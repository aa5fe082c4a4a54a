#include "harness.h"

#include <barrier>
#include <chrono>
#include <condition_variable>
#include <iostream>
#include <thread>

#include "net/tcp.h"

namespace rtbench {

// Background thread-count sampler of the traced run.
class Harness::Sampler {
 public:
  Sampler() : thread_([this] { Loop(); }) {}
  ~Sampler() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  void Loop() {
    std::unique_lock lock(mutex_);
    while (!stop_) {
      ThreadPeak::Instance().Sample();
      cv_.wait_for(lock, std::chrono::milliseconds(2), [this] { return stop_; });
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

Harness::Harness(RunOptions options)
    : options_(std::move(options)),
      samples_(kSampleCapacity),
      sample_rng_(StreamRng(options_.seed, ~std::uint64_t{0})) {}

Harness::~Harness() = default;

std::unique_ptr<obiwan::core::Site> Harness::NewSite(obiwan::SiteId id) {
  auto tcp = obiwan::net::TcpTransport::Create(0);
  if (!tcp.ok()) {
    Check(false, "cannot bind a TCP transport: " + tcp.status().ToString());
    return nullptr;
  }
  const auto index = static_cast<std::uint8_t>(transports_.size());
  auto probe = std::make_unique<TransportProbe>(index, std::move(*tcp));
  transports_.push_back(probe.get());
  auto site = std::make_unique<obiwan::core::Site>(id, std::move(probe));
  obiwan::Status started = site->Start();
  if (!started.ok()) {
    Check(false, "cannot start site: " + started.ToString());
    return nullptr;
  }
  return site;
}

void Harness::ProbePolicy(obiwan::core::Site& site,
                          std::unique_ptr<obiwan::core::ConsistencyPolicy> policy) {
  auto probe = std::make_unique<PolicyProbe>(std::move(policy));
  policies_.push_back(probe.get());
  site.SetConsistencyPolicy(std::move(probe));
}

void Harness::Check(bool ok, std::string_view what) {
  if (ok) return;
  std::lock_guard lock(mutex_);
  if (problems_.size() < 8) std::cerr << "rtbench: check failed: " << what << "\n";
  problems_.emplace_back(what);
}

bool Harness::correct() const {
  std::lock_guard lock(mutex_);
  return problems_.empty();
}

TrafficCount Harness::Traffic() const {
  TrafficCount total;
  for (const TransportProbe* t : transports_) total += t->Count();
  return total;
}

HookCount Harness::Hooks() const {
  HookCount total;
  for (const PolicyProbe* p : policies_) {
    const HookCount c = p->Count();
    total.calls += c.calls;
    total.puts += c.puts;
    total.put_hook_ns += c.put_hook_ns;
  }
  return total;
}

void Harness::SetupDone() {
  setup_end_ns = NowNs();
  if (options_.trace) {
    SpanLog::Instance().Enable();
    sampler_ = std::make_unique<Sampler>();
  }
  usage_before = ReadProcUsage();
  traffic_before = Traffic();
  hooks_before = Hooks();
}

bool Harness::Measure(int threads, std::uint64_t warmup_ops, const Op& op) {
  std::atomic<bool> warmup_failed{false};
  std::int64_t start = 0;
  std::int64_t deadline = 0;
  // Runs once, on the last thread to finish its warm-up, before any thread
  // goes on.
  std::barrier warm(threads, [&]() noexcept {
    SetupDone();
    start = NowNs();
    deadline = start + static_cast<std::int64_t>(options_.seconds * 1e9);
  });
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < warmup_ops && !warmup_failed; ++i) {
        if (!op(t, i)) warmup_failed = true;
      }
      warm.arrive_and_wait();
      if (warmup_failed) return;
      // Results are handed over in batches, so that client threads do not
      // meet on the harness's lock once per op.
      std::vector<OpTiming> done;
      done.reserve(kFlushOps);
      std::uint64_t thread_attempted = 0;
      auto flush = [&] {
        std::lock_guard lock(mutex_);
        attempted += thread_attempted;
        failed += thread_attempted - done.size();
        for (const OpTiming& timing : done) Record(timing);
        done.clear();
        thread_attempted = 0;
      };
      for (std::uint64_t i = warmup_ops; NowNs() < deadline; ++i) {
        const std::optional<OpTiming> timing = op(t, i);
        ++thread_attempted;
        if (timing) done.push_back(*timing);
        if (thread_attempted == kFlushOps) flush();
      }
      flush();
    });
  }
  for (std::thread& w : workers) w.join();
  wall_s = static_cast<double>(NowNs() - start) / 1e9;
  usage_after = ReadProcUsage();
  traffic_after = Traffic();
  hooks_after = Hooks();
  sampler_.reset();
  Check(!warmup_failed, "warm-up op failed");
  return !warmup_failed;
}

void Harness::EndOfRun() {
  // Two independent paths to the same totals: the decorators count what the
  // sites hand their transports, the TcpTransports count what they send.
  const TrafficCount probes = Traffic();
  const obiwan::MetricLabels tcp{{"transport", "tcp"}};
  const obiwan::MetricsRegistry& registry = obiwan::MetricsRegistry::Default();
  const std::uint64_t requests =
      registry.SumCounters("obiwan_transport_requests_total", tcp);
  const std::uint64_t request_bytes =
      registry.SumCounters("obiwan_transport_request_bytes_total", tcp);
  const std::uint64_t reply_bytes =
      registry.SumCounters("obiwan_transport_reply_bytes_total", tcp);
  Check(probes.requests == requests,
        "probe requests " + std::to_string(probes.requests) +
            " != obiwan_transport_requests_total " + std::to_string(requests));
  Check(probes.request_bytes == request_bytes,
        "probe request bytes " + std::to_string(probes.request_bytes) +
            " != obiwan_transport_request_bytes_total " + std::to_string(request_bytes));
  Check(probes.reply_bytes == reply_bytes,
        "probe reply bytes " + std::to_string(probes.reply_bytes) +
            " != obiwan_transport_reply_bytes_total " + std::to_string(reply_bytes));
  transports_.clear();
  policies_.clear();
}

void Harness::Record(const OpTiming& timing) {
  ++completed;
  if (filled_ < samples_.size()) {
    samples_[filled_++] = timing;
  } else if (const std::uint64_t slot = sample_rng_.Below(completed); slot < samples_.size()) {
    samples_[slot] = timing;
  }
}

std::vector<OpTiming> Harness::Samples() const {
  std::lock_guard lock(mutex_);
  return {samples_.begin(), samples_.begin() + static_cast<std::ptrdiff_t>(filled_)};
}

void Harness::AddProbeSamples(const std::vector<std::int64_t>& ns) {
  std::lock_guard lock(mutex_);
  probe_ns.insert(probe_ns.end(), ns.begin(), ns.end());
}

}  // namespace rtbench
