#include "probes.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ctime>

namespace rtbench {

using obiwan::Bytes;
using obiwan::BytesView;
using obiwan::Result;
using obiwan::Status;

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

// Kind byte of a request frame (0 when malformed), via the public parser.
std::uint8_t KindOf(BytesView request) {
  Result<obiwan::rmi::ParsedRequest> parsed = obiwan::rmi::ParseRequest(request);
  return parsed.ok() ? static_cast<std::uint8_t>(parsed->kind) : 0;
}

// Thread-local stack of open spans: the last is the parent of the next span
// begun on this thread.
thread_local std::vector<std::uint64_t> t_open_spans;

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

// Live thread count of this process (/proc/self/stat), 0 if unreadable.
int ReadThreadCount() {
  const int fd = ::open("/proc/self/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[1024];
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  // Fields after the parenthesised command name: state is field 3,
  // num_threads field 20.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  int field = 2;
  for (++p; *p != '\0'; ++p) {
    if (*p == ' ' && ++field == 20) return std::atoi(p + 1);
  }
  return 0;
}

}  // namespace

// --- SpanLog -------------------------------------------------------------------

SpanLog& SpanLog::Instance() {
  static SpanLog log;
  return log;
}

void SpanLog::Add(const SpanRecord& record) {
  Shard& shard = shards_[record.thread % kShards];
  std::lock_guard lock(shard.mutex);
  shard.records.push_back(record);
}

std::vector<SpanRecord> SpanLog::Collect() const {
  std::vector<SpanRecord> all;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    all.insert(all.end(), shard.records.begin(), shard.records.end());
  }
  return all;
}

ScopedSpan::ScopedSpan(SpanKind kind, std::uint8_t site, std::uint8_t msg,
                       std::uint64_t parent_override)
    : active_(SpanLog::Instance().enabled()) {
  if (!active_) return;
  SpanLog& log = SpanLog::Instance();
  record_.id = log.NewId();
  record_.parent = parent_override;
  if (record_.parent == 0 && !t_open_spans.empty()) record_.parent = t_open_spans.back();
  record_.thread = ThreadIndex();
  record_.kind = kind;
  record_.site = site;
  record_.msg = msg;
  t_open_spans.push_back(record_.id);
  record_.start = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.end = NowNs();
  t_open_spans.pop_back();
  SpanLog::Instance().Add(record_);
}

// --- TrafficCount -----------------------------------------------------------------

TrafficCount& TrafficCount::operator+=(const TrafficCount& o) {
  requests += o.requests;
  request_bytes += o.request_bytes;
  reply_bytes += o.reply_bytes;
  for (std::size_t k = 0; k < kKinds; ++k) by_kind[k] += o.by_kind[k];
  return *this;
}

TrafficCount TrafficCount::operator-(const TrafficCount& o) const {
  TrafficCount d;
  d.requests = requests - o.requests;
  d.request_bytes = request_bytes - o.request_bytes;
  d.reply_bytes = reply_bytes - o.reply_bytes;
  for (std::size_t k = 0; k < kKinds; ++k) d.by_kind[k] = by_kind[k] - o.by_kind[k];
  return d;
}

// --- RequestPairing ---------------------------------------------------------------

RequestPairing& RequestPairing::Instance() {
  static RequestPairing pairing;
  return pairing;
}

std::uint64_t RequestPairing::Key(const std::string& to, BytesView request) {
  // The frame's head carries the kind, trace id and target; its tail the
  // arguments or state. Together with the size and the destination they
  // tell concurrent requests apart.
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  };
  mix(to.data(), to.size());
  const std::size_t n = request.size();
  mix(&n, sizeof n);
  const std::size_t edge = std::min<std::size_t>(n, 64);
  mix(request.data(), edge);
  mix(request.data() + (n - edge), edge);
  return h;
}

void RequestPairing::Open(std::uint64_t key, std::uint64_t client_span) {
  std::lock_guard lock(mutex_);
  Entry& e = entries_[key];
  if (++e.open == 1) {
    e.client_span = client_span;
    e.server_ns = -1;
  } else {
    e.client_span = 0;
  }
}

std::uint64_t RequestPairing::ClientSpan(std::uint64_t key) const {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.client_span;
}

void RequestPairing::SetServerNs(std::uint64_t key, std::int64_t ns) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.client_span != 0) it->second.server_ns = ns;
}

std::int64_t RequestPairing::Close(std::uint64_t key) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return -1;
  const std::int64_t ns = it->second.client_span != 0 ? it->second.server_ns : -1;
  if (--it->second.open == 0) entries_.erase(it);
  return ns;
}

std::vector<std::int64_t> RequestPairing::TakeTransportNs() {
  std::lock_guard lock(mutex_);
  return std::move(transport_ns_);
}

void RequestPairing::AddTransportNs(std::int64_t ns) {
  std::lock_guard lock(mutex_);
  transport_ns_.push_back(ns);
}

// --- ReplyCapture -----------------------------------------------------------------

ReplyCapture& ReplyCapture::Instance() {
  static ReplyCapture capture;
  return capture;
}

void ReplyCapture::Offer(BytesView reply) {
  std::lock_guard lock(mutex_);
  if (replies_.size() < kMax) replies_.emplace_back(reply.begin(), reply.end());
}

std::vector<Bytes> ReplyCapture::Take() {
  std::lock_guard lock(mutex_);
  return std::move(replies_);
}

// --- TransportProbe ---------------------------------------------------------------

class TransportProbe::HandlerProbe final : public obiwan::net::MessageHandler {
 public:
  HandlerProbe(std::uint8_t site, obiwan::net::MessageHandler* inner,
               obiwan::net::Address local)
      : site_(site), inner_(inner), local_(std::move(local)) {}

  Result<Bytes> HandleRequest(const obiwan::net::Address& from,
                              BytesView request) override {
    if (!SpanLog::Instance().enabled()) return inner_->HandleRequest(from, request);
    const std::uint8_t kind = KindOf(request);
    RequestPairing& pairing = RequestPairing::Instance();
    const std::uint64_t key = RequestPairing::Key(local_, request);
    Result<Bytes> reply = Bytes{};
    std::int64_t ns = 0;
    {
      ScopedSpan span(SpanKind::kServe, site_, kind, pairing.ClientSpan(key));
      const std::int64_t start = NowNs();
      reply = inner_->HandleRequest(from, request);
      ns = NowNs() - start;
    }
    pairing.SetServerNs(key, ns);
    if (kind == static_cast<std::uint8_t>(obiwan::rmi::MessageKind::kGet) && reply.ok()) {
      ReplyCapture::Instance().Offer(obiwan::AsView(*reply));
    }
    return reply;
  }

 private:
  std::uint8_t site_;
  obiwan::net::MessageHandler* inner_;
  obiwan::net::Address local_;
};

TransportProbe::TransportProbe(std::uint8_t site,
                               std::unique_ptr<obiwan::net::Transport> inner)
    : site_(site), inner_(std::move(inner)) {}

// The inner transport's connection threads call handler_: stop them before
// handler_ is destroyed (members die after this body runs).
TransportProbe::~TransportProbe() { inner_->StopServing(); }

Result<Bytes> TransportProbe::Request(const obiwan::net::Address& to, BytesView request,
                                      const obiwan::net::CallOptions& options) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  request_bytes_.fetch_add(request.size(), std::memory_order_relaxed);
  if (!SpanLog::Instance().enabled()) {
    Result<Bytes> reply = inner_->Request(to, request, options);
    if (reply.ok()) reply_bytes_.fetch_add(reply->size(), std::memory_order_relaxed);
    return reply;
  }

  const std::uint8_t kind = KindOf(request);
  by_kind_[kind].fetch_add(1, std::memory_order_relaxed);
  // A push runs on a fanout thread while its batch is live: the moment the
  // thread count peaks.
  if (kind == static_cast<std::uint8_t>(obiwan::rmi::MessageKind::kPush)) {
    ThreadPeak::Instance().Sample();
  }
  RequestPairing& pairing = RequestPairing::Instance();
  const std::uint64_t key = RequestPairing::Key(to, request);
  Result<Bytes> reply = Bytes{};
  std::int64_t ns = 0;
  {
    ScopedSpan span(SpanKind::kRequest, site_, kind);
    pairing.Open(key, span.id());
    const std::int64_t start = NowNs();
    reply = inner_->Request(to, request, options);
    ns = NowNs() - start;
  }
  const std::int64_t server_ns = pairing.Close(key);
  if (server_ns >= 0) pairing.AddTransportNs(ns - server_ns);
  if (reply.ok()) reply_bytes_.fetch_add(reply->size(), std::memory_order_relaxed);
  return reply;
}

Status TransportProbe::Serve(obiwan::net::MessageHandler* handler) {
  handler_ = std::make_unique<HandlerProbe>(site_, handler, inner_->LocalAddress());
  return inner_->Serve(handler_.get());
}

void TransportProbe::StopServing() { inner_->StopServing(); }

obiwan::net::Address TransportProbe::LocalAddress() const {
  return inner_->LocalAddress();
}

void TransportProbe::SetDefaultDeadline(obiwan::Nanos deadline) {
  inner_->SetDefaultDeadline(deadline);
}

obiwan::Nanos TransportProbe::default_deadline() const {
  return inner_->default_deadline();
}

TrafficCount TransportProbe::Count() const {
  TrafficCount c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.request_bytes = request_bytes_.load(std::memory_order_relaxed);
  c.reply_bytes = reply_bytes_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < kKinds; ++k) {
    c.by_kind[k] = by_kind_[k].load(std::memory_order_relaxed);
  }
  return c;
}

// --- PolicyProbe ------------------------------------------------------------------

Bytes PolicyProbe::MakePutData(const obiwan::core::ReplicaView& replica,
                               obiwan::Clock& clock) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  return inner_->MakePutData(replica, clock);
}

Status PolicyProbe::ValidatePut(const obiwan::core::MasterView& master,
                                const obiwan::core::PutView& put) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!SpanLog::Instance().enabled()) return inner_->ValidatePut(master, put);
  const std::int64_t start = NowNs();
  Status status = inner_->ValidatePut(master, put);
  put_hook_ns_.fetch_add(static_cast<std::uint64_t>(NowNs() - start),
                         std::memory_order_relaxed);
  return status;
}

std::vector<obiwan::net::Address> PolicyProbe::AfterPut(
    const obiwan::core::MasterView& master, const obiwan::core::PutView& put) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  puts_.fetch_add(1, std::memory_order_relaxed);
  if (!SpanLog::Instance().enabled()) return inner_->AfterPut(master, put);
  const std::int64_t start = NowNs();
  std::vector<obiwan::net::Address> notify = inner_->AfterPut(master, put);
  put_hook_ns_.fetch_add(static_cast<std::uint64_t>(NowNs() - start),
                         std::memory_order_relaxed);
  return notify;
}

Bytes PolicyProbe::MakeGetData(const obiwan::core::MasterView& master,
                               const obiwan::net::Address& requester) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  return inner_->MakeGetData(master, requester);
}

void PolicyProbe::OnReplicaData(const obiwan::core::ReplicaView& replica,
                                BytesView policy_data) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  inner_->OnReplicaData(replica, policy_data);
}

HookCount PolicyProbe::Count() const {
  return HookCount{calls_.load(std::memory_order_relaxed),
                   puts_.load(std::memory_order_relaxed),
                   put_hook_ns_.load(std::memory_order_relaxed)};
}

// --- process usage ----------------------------------------------------------------

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  ProcUsage u;
  u.cpu_us = us(ru.ru_utime) + us(ru.ru_stime);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  // ru_maxrss survives execve, so a process started by a larger parent
  // reports the parent's peak until it outgrows it; VmHWM is this image's.
  if (FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        u.max_rss_mib = static_cast<double>(kib) / 1024.0;
        break;
      }
    }
    std::fclose(status);
  }
  return u;
}

ThreadPeak& ThreadPeak::Instance() {
  static ThreadPeak peak;
  return peak;
}

void ThreadPeak::Sample() {
  const int now = ReadThreadCount();
  int seen = peak_.load(std::memory_order_relaxed);
  while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
  }
}

}  // namespace rtbench
