// Measurement from outside the program.
//
// The benchmark never reads the library's internals. It measures at the
// public interfaces it may legally wrap:
//   - TransportProbe: a net::Transport decorator around each site's
//     TcpTransport. It counts requests and bytes in every run, and in the
//     traced run records a span per outbound Request and per served request
//     (it also wraps the site's MessageHandler), split by message kind with
//     rmi::ParseRequest.
//   - PolicyProbe: a core::ConsistencyPolicy decorator around a master's
//     policy, counting and timing each hook call.
//   - SpanLog: the traced run's in-memory span store. Spans carry an id and
//     their parent's id; they are written out when the run ends, and each
//     layer's self time is computed from them (report.cc).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "core/consistency.h"
#include "net/transport.h"
#include "rmi/protocol.h"

namespace rtbench {

// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock run.py stamps the
// process start with).
std::int64_t NowNs();

enum class SpanKind : std::uint8_t {
  kOp = 0,      // one workload op, on the thread that runs it
  kFault,       // one object fault (RefBase::Demand on a proxy-out)
  kCommit,      // tx::Transaction::Commit
  kRequest,     // Transport::Request, client side
  kServe,       // MessageHandler::HandleRequest, server side
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: none
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::kOp;
  std::uint8_t site = 0;  // benchmark's site index
  std::uint8_t msg = 0;   // rmi::MessageKind for request/serve spans
};

// Process-wide span store. Disabled (every call a no-op) unless the run is
// traced. Records are appended to one of a few mutex-guarded shards picked
// by thread, so concurrent threads rarely meet.
class SpanLog {
 public:
  static SpanLog& Instance();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const SpanRecord& record);
  std::vector<SpanRecord> Collect() const;

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::vector<SpanRecord> records;
  };
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::array<Shard, kShards> shards_;
};

// RAII span on the calling thread; nests under the thread's open span.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::uint8_t site, std::uint8_t msg = 0,
             std::uint64_t parent_override = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  bool active_;
  SpanRecord record_;
};

// Message kinds the per-kind request counters distinguish.
inline constexpr std::size_t kKinds = obiwan::rmi::kMaxMessageKind + 1;

// Totals of one probe (or of all probes).
struct TrafficCount {
  std::uint64_t requests = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;
  std::array<std::uint64_t, kKinds> by_kind{};  // traced run only

  TrafficCount& operator+=(const TrafficCount& o);
  TrafficCount operator-(const TrafficCount& o) const;
};

// Links a client Request span to the server span handling it, and hands
// the server's handler time back to the client (both run in this process).
// Keyed by destination address plus a digest of the request frame. Used in
// the traced run only.
class RequestPairing {
 public:
  static RequestPairing& Instance();

  static std::uint64_t Key(const std::string& to, obiwan::BytesView request);
  void Open(std::uint64_t key, std::uint64_t client_span);
  // Server side: the client span to parent under (0 if unknown).
  std::uint64_t ClientSpan(std::uint64_t key) const;
  void SetServerNs(std::uint64_t key, std::int64_t ns);
  // Client side, after the reply: the server's handler time (-1 if the
  // request was not paired) and the entry is dropped.
  std::int64_t Close(std::uint64_t key);

  // (client Request ns - server handler ns) of every paired request.
  std::vector<std::int64_t> TakeTransportNs();
  void AddTransportNs(std::int64_t ns);

 private:
  struct Entry {
    std::uint64_t client_span = 0;
    std::int64_t server_ns = -1;
    int open = 0;  // duplicate keys in flight: pairing is skipped
  };
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::vector<std::int64_t> transport_ns_;
};

// Captured get replies (traced run): the wire-codec metrics re-run the
// public codec over them after the measured phase.
class ReplyCapture {
 public:
  static ReplyCapture& Instance();
  void Offer(obiwan::BytesView reply);
  std::vector<obiwan::Bytes> Take();

 private:
  static constexpr std::size_t kMax = 256;
  std::mutex mutex_;
  std::vector<obiwan::Bytes> replies_;
};

// net::Transport decorator; see the file comment.
class TransportProbe final : public obiwan::net::Transport {
 public:
  using obiwan::net::Transport::Request;

  TransportProbe(std::uint8_t site, std::unique_ptr<obiwan::net::Transport> inner);
  ~TransportProbe() override;

  obiwan::Result<obiwan::Bytes> Request(const obiwan::net::Address& to,
                                        obiwan::BytesView request,
                                        const obiwan::net::CallOptions& options) override;
  obiwan::Status Serve(obiwan::net::MessageHandler* handler) override;
  void StopServing() override;
  obiwan::net::Address LocalAddress() const override;
  void SetDefaultDeadline(obiwan::Nanos deadline) override;
  obiwan::Nanos default_deadline() const override;

  TrafficCount Count() const;

 private:
  class HandlerProbe;

  std::uint8_t site_;
  std::unique_ptr<obiwan::net::Transport> inner_;
  std::unique_ptr<HandlerProbe> handler_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> request_bytes_{0};
  std::atomic<std::uint64_t> reply_bytes_{0};
  std::array<std::atomic<std::uint64_t>, kKinds> by_kind_{};
};

// Hook-call counts and times of one PolicyProbe.
struct HookCount {
  std::uint64_t calls = 0;        // every hook
  std::uint64_t puts = 0;         // AfterPut calls: accepted updates
  std::uint64_t put_hook_ns = 0;  // ValidatePut + AfterPut time (traced run)
};

// core::ConsistencyPolicy decorator around a master's policy.
class PolicyProbe final : public obiwan::core::ConsistencyPolicy {
 public:
  explicit PolicyProbe(std::unique_ptr<obiwan::core::ConsistencyPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  obiwan::Bytes MakePutData(const obiwan::core::ReplicaView& replica,
                            obiwan::Clock& clock) override;
  obiwan::Status ValidatePut(const obiwan::core::MasterView& master,
                             const obiwan::core::PutView& put) override;
  std::vector<obiwan::net::Address> AfterPut(const obiwan::core::MasterView& master,
                                             const obiwan::core::PutView& put) override;
  obiwan::Bytes MakeGetData(const obiwan::core::MasterView& master,
                            const obiwan::net::Address& requester) override;
  void OnReplicaData(const obiwan::core::ReplicaView& replica,
                     obiwan::BytesView policy_data) override;
  bool PushUpdatesOnPut() const override { return inner_->PushUpdatesOnPut(); }

  HookCount Count() const;

 private:
  std::unique_ptr<obiwan::core::ConsistencyPolicy> inner_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> put_hook_ns_{0};
};

// Process resource usage (getrusage(RUSAGE_SELF): every thread; the peak
// resident set from /proc/self/status VmHWM where it is readable).
struct ProcUsage {
  double cpu_us = 0;
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
  std::uint64_t minor_faults = 0;
  double max_rss_mib = 0;
};
ProcUsage ReadProcUsage();

// Traced run: the highest thread count seen by a background sampler and by
// explicit samples (taken while fanout bursts are live).
class ThreadPeak {
 public:
  static ThreadPeak& Instance();
  void Sample();
  int peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> peak_{0};
};

}  // namespace rtbench
