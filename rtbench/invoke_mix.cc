// invoke_mix: the small-message path under concurrency.
//
// One master site and one client site. The client runs Threads() threads,
// each on objects of its own: kCounters counters on the master, invoked by
// RMI, and a resident kChainNodes-replica chain replicated at set-up. Each
// op is one RMI Touch of a counter (the first result: the reply), followed
// by an LMI walk of the thread's chain with a Site::ReplicaVersion and
// Site::IsStale probe of every replica.
#include <algorithm>
#include <thread>

#include "bench_objects.h"
#include "core/remote_ref.h"
#include "harness.h"

namespace rtbench {

namespace {

using obiwan::core::Ref;
using obiwan::core::RemoteRef;

constexpr std::size_t kCounters = 8;
constexpr std::size_t kChainNodes = 64;
constexpr std::size_t kWarmupOpsPerThread = 200;
// The traced run times the probes of every kProbeStride-th op only, so that
// the samples stay a few MB however many ops a run does.
constexpr std::uint64_t kProbeStride = 16;

// Client threads: every in-flight call also keeps one of the master's
// connection threads busy, so half the cores (at least one) keep both
// sides of every call on a core of their own.
int Threads() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::max(1u, cores / 2));
}

struct ThreadState {
  std::vector<std::shared_ptr<BenchCounter>> masters;
  std::vector<RemoteRef<BenchCounter>> remotes;
  std::vector<std::int64_t> touches;  // Touch calls issued per counter
  Ref<BenchNode> head;
  std::int64_t value_sum = 0;           // the generator's
  std::vector<std::uint64_t> versions;  // each replica's, at set-up
  std::vector<std::int64_t> probe_ns;
};

}  // namespace

bool RunInvokeMix(Harness& h) {
  auto master = h.NewSite(1);
  auto client = h.NewSite(2);
  if (!master || !client) return false;
  master->HostRegistry();
  client->UseRegistry(master->address());
  h.ProbePolicy(*master, std::make_unique<obiwan::core::NoConsistency>());

  const int threads = Threads();
  std::vector<ThreadState> state(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    ThreadState& s = state[t];
    Rng rng = StreamRng(h.options().seed, static_cast<std::uint64_t>(t));
    for (std::size_t j = 0; j < kCounters; ++j) {
      auto counter = std::make_shared<BenchCounter>();
      counter->label = "counter-" + std::to_string(rng.Next());
      const std::string name = "c" + std::to_string(t) + "-" + std::to_string(j);
      if (!master->Bind(name, counter).ok()) return false;
      auto remote = client->Lookup<BenchCounter>(name);
      if (!remote.ok()) return false;
      s.masters.push_back(counter);
      s.remotes.push_back(*remote);
      s.touches.push_back(0);
    }
    const GraphSpec chain = MakeChainSpec(rng, kChainNodes);
    for (std::int64_t v : chain.values) s.value_sum += v;
    const std::string name = "chain" + std::to_string(t);
    if (!master->Bind(name, BuildGraph(chain)).ok()) return false;
    auto remote = client->Lookup<BenchNode>(name);
    if (!remote.ok()) return false;
    auto head = remote->Replicate(obiwan::core::ReplicationMode::Incremental(kChainNodes));
    if (!head.ok()) return false;
    s.head = std::move(*head);
    for (Ref<BenchNode>* cursor = &s.head; !cursor->IsEmpty(); cursor = &(*cursor)->a) {
      auto version = client->ReplicaVersion(*cursor);
      if (!version.ok()) return false;
      s.versions.push_back(*version);
    }
    h.Check(s.versions.size() == kChainNodes, "chain replicated incompletely");
  }

  const bool traced = h.options().trace;
  auto op = [&](int t, std::uint64_t index) -> std::optional<OpTiming> {
    ThreadState& s = state[t];
    Rng rng = StreamRng(h.options().seed, ((static_cast<std::uint64_t>(t) + 1) << 40) + index);
    const std::size_t j = rng.Below(kCounters);
    const bool time_probes = traced && index % kProbeStride == 0;
    OpTiming timing;
    std::int64_t sum = 0;
    std::size_t nodes = 0;
    bool fresh = true;
    bool counted = false;
    const std::int64_t start = NowNs();
    {
      ScopedSpan span(SpanKind::kOp, 0);
      auto count = s.remotes[j].Invoke(&BenchCounter::Touch);
      if (!count.ok()) return std::nullopt;
      timing.first_ns = NowNs() - start;
      counted = *count == ++s.touches[j];
      for (Ref<BenchNode>* cursor = &s.head; !cursor->IsEmpty(); cursor = &(*cursor)->a) {
        sum += (*cursor)->Value();  // LMI
        const std::int64_t probe_start = time_probes ? NowNs() : 0;
        auto version = client->ReplicaVersion(*cursor);
        const bool stale = client->IsStale(*cursor);
        if (time_probes) s.probe_ns.push_back(NowNs() - probe_start);
        fresh = fresh && version.ok() && nodes < s.versions.size() &&
                *version == s.versions[nodes] && !stale;
        ++nodes;
      }
    }
    timing.total_ns = NowNs() - start;
    h.Check(counted, "Touch returned an unexpected count");
    h.Check(sum == s.value_sum && nodes == kChainNodes,
            "local reads differ from the generator's values");
    h.Check(fresh, "a resident replica reads stale or at an unexpected version");
    return timing;
  };

  if (!h.Measure(threads, kWarmupOpsPerThread, op)) return false;
  for (ThreadState& s : state) {
    h.AddProbeSamples(s.probe_ns);
    for (std::size_t j = 0; j < kCounters; ++j) {
      h.Check(s.masters[j]->touches == s.touches[j],
              "a master's count differs from the Touch calls issued on it");
    }
  }
  h.EndOfRun();
  return true;
}

}  // namespace rtbench
