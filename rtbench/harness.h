// What every workload shares: its sites' probes, the measured closed loop,
// the correctness ledger and the figures the report is computed from.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_objects.h"
#include "common/ids.h"
#include "core/site.h"
#include "probes.h"

namespace rtbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // length of the measured phase
  bool trace = false;
  std::int64_t t0_ns = 0;  // CLOCK_MONOTONIC when the process was started
  std::string out_dir = ".bench_out";
};

// One measured op: time until its first result was usable, and until it was
// complete.
struct OpTiming {
  std::int64_t first_ns = 0;
  std::int64_t total_ns = 0;
};

class Harness {
 public:
  explicit Harness(RunOptions options);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const RunOptions& options() const { return options_; }

  // A started site on a probed TcpTransport at 127.0.0.1 (kernel-chosen
  // port). Site index = order of creation; index 0 is the workload's
  // master/provider by convention. Null (and a recorded problem) on error.
  std::unique_ptr<obiwan::core::Site> NewSite(obiwan::SiteId id);

  // Install `policy` on `site` behind a PolicyProbe.
  void ProbePolicy(obiwan::core::Site& site,
                   std::unique_ptr<obiwan::core::ConsistencyPolicy> policy);

  // Correctness ledger: a false `ok` marks the run incorrect.
  void Check(bool ok, std::string_view what);
  bool correct() const;

  // Closed loop on `threads` threads. Each runs `op(thread, index)` for
  // index 0 .. warmup_ops - 1 (the warm-up, on the thread that is then
  // measured); once every thread is warm, set-up ends (the setup_s
  // boundary, and in the traced run the start of span recording) and each
  // thread goes on with index warmup_ops, warmup_ops + 1, ... until the
  // run's seconds have elapsed. `op` returns its timing, or nothing when it
  // failed; it wraps its timed part (not its output checks) in
  // SpanKind::kOp spans. False (and a recorded problem) if a warm-up op
  // failed.
  using Op = std::function<std::optional<OpTiming>(int thread, std::uint64_t index)>;
  bool Measure(int threads, std::uint64_t warmup_ops, const Op& op);

  // Call at the end of a workload, while its sites are alive: cross-checks
  // the probes' request and byte totals against the program's own
  // obiwan_transport_* counters, then forgets the probes.
  void EndOfRun();

  // Samples of ReplicaVersion + IsStale probe pairs (traced run).
  void AddProbeSamples(const std::vector<std::int64_t>& ns);

  // --- figures for the report ----------------------------------------------------
  // Timings of a uniform sample of the completed ops (reservoir sampling):
  // the benchmark's own memory stays the same however many ops a run does,
  // so peak_rss_mib does not grow with the program's speed.
  static constexpr std::size_t kSampleCapacity = std::size_t{1} << 16;
  std::vector<OpTiming> Samples() const;

  std::int64_t setup_end_ns = 0;
  double wall_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  ProcUsage usage_before, usage_after;
  TrafficCount traffic_before, traffic_after;
  HookCount hooks_before, hooks_after;
  std::vector<std::int64_t> probe_ns;

 private:
  class Sampler;

  void SetupDone();
  TrafficCount Traffic() const;
  HookCount Hooks() const;
  void Record(const OpTiming& timing);  // mutex_ held

  // Ops a client thread runs between two hand-overs of its results.
  static constexpr std::uint64_t kFlushOps = 256;

  RunOptions options_;
  std::vector<TransportProbe*> transports_;
  std::vector<PolicyProbe*> policies_;
  mutable std::mutex mutex_;  // problems_, probe_ns, op results
  std::vector<std::string> problems_;
  std::vector<OpTiming> samples_;  // kSampleCapacity slots, allocated up front
  std::size_t filled_ = 0;
  Rng sample_rng_;
  std::unique_ptr<Sampler> sampler_;  // traced run, measured phase only
};

// Workload entry points; each returns false when set-up failed.
bool RunReplicateGraph(Harness& h);
bool RunUpdateFanout(Harness& h);
bool RunInvokeMix(Harness& h);

}  // namespace rtbench
