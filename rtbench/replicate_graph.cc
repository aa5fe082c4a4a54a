// replicate_graph: the paper's demand path.
//
// One client thread. Each op opens a "session" of four graphs, one per
// replication mode, replicates each from its root, touches every object by
// LMI (walking to the end, so that every proxy-out faults), checks the
// replicas, then releases the cluster pins it holds and evicts every replica
// before the next op:
//   g0  chain of 48     Incremental(1)   one object per fault
//   g1  DAG of 128      Incremental(16)  batches of 16
//   g2  DAG of 128      Cluster(32)      one proxy pair per 32 objects
//   g3  DAG of 128      Closure          the whole graph in one get
// The DAGs are binary trees with 16 shared targets (nodes with two parents).
// Payloads run 64 B .. 16 KB. kSessions sessions are generated from the seed
// and exported at set-up; op i opens session i % kSessions, which after the
// previous eviction is replicated from scratch.
#include <array>
#include <unordered_set>

#include "bench_objects.h"
#include "core/remote_ref.h"
#include "harness.h"

namespace rtbench {

namespace {

using obiwan::core::Ref;
using obiwan::core::ReplicationMode;

constexpr std::size_t kSessions = 8;
constexpr std::size_t kChainNodes = 48;
constexpr std::size_t kDagNodes = 128;
constexpr std::size_t kSharedTargets = 16;
constexpr int kGraphs = 4;

ReplicationMode ModeOf(int graph) {
  switch (graph) {
    case 0: return ReplicationMode::Incremental(1);
    case 1: return ReplicationMode::Incremental(16);
    case 2: return ReplicationMode::Cluster(32);
    default: return ReplicationMode::Closure();
  }
}

struct Graph {
  std::string name;
  GraphSpec spec;
  GraphDigest digest;
  std::int64_t value_sum = 0;
};

// Depth-first walk of one replica graph (a before b), faulting every
// proxy-out and invoking each object once. Records each distinct replica in
// visit order, and checks identity preservation against the generator's
// graph: a node reached twice must be the same replica both times.
class Walker {
 public:
  Walker(Harness& h, const GraphSpec& spec) : h_(h), spec_(spec), by_index_(spec.size()) {}

  bool Visit(Ref<BenchNode>& ref, int index) {
    if (ref.IsEmpty() != (index < 0)) {
      h_.Check(false, "replica topology differs from the generator's");
      return false;
    }
    if (index < 0) return true;
    if (ref.IsProxy()) {
      ScopedSpan fault(SpanKind::kFault, 1);
      if (!ref.Demand().ok()) return false;
    }
    BenchNode* node = ref.get();
    if (node == nullptr) return false;
    if (by_index_[index] != nullptr) {
      h_.Check(by_index_[index] == node, "a shared target was materialized twice");
      return true;
    }
    if (!seen_.insert(node).second) {
      h_.Check(false, "two masters share one replica");
      return true;
    }
    by_index_[index] = node;
    order_.push_back(node);
    ids_.push_back(ref.id());
    lmi_sum_ += ref->Value();  // LMI
    return Visit(node->a, spec_.a[index]) && Visit(node->b, spec_.b[index]);
  }

  GraphDigest Digest() const {
    GraphDigest d;
    d.hash = 0xCBF29CE484222325ull;
    for (const BenchNode* node : order_) {
      const std::size_t label_len = node->label.size();
      d.hash = Fnv(d.hash, &label_len, sizeof label_len);
      d.hash = Fnv(d.hash, node->label.data(), label_len);
      d.hash = Fnv(d.hash, node->payload.data(), node->payload.size());
      d.hash = Fnv(d.hash, &node->value, sizeof node->value);
    }
    d.nodes = order_.size();
    d.hash = Fnv(d.hash, &d.nodes, sizeof d.nodes);
    return d;
  }

  const std::vector<obiwan::ObjectId>& ids() const { return ids_; }
  // Sum of the values the LMI calls returned.
  std::int64_t lmi_sum() const { return lmi_sum_; }

 private:
  Harness& h_;
  const GraphSpec& spec_;
  std::vector<BenchNode*> by_index_;
  std::unordered_set<BenchNode*> seen_;
  std::vector<BenchNode*> order_;
  std::vector<obiwan::ObjectId> ids_;
  std::int64_t lmi_sum_ = 0;
};

}  // namespace

bool RunReplicateGraph(Harness& h) {
  auto provider = h.NewSite(1);
  auto demander = h.NewSite(2);
  if (!provider || !demander) return false;
  provider->HostRegistry();
  demander->UseRegistry(provider->address());
  h.ProbePolicy(*provider, std::make_unique<obiwan::core::NoConsistency>());

  std::vector<std::array<Graph, kGraphs>> sessions(kSessions);
  std::size_t session_nodes = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    session_nodes = 0;
    for (int g = 0; g < kGraphs; ++g) {
      Rng rng = StreamRng(h.options().seed, s * kGraphs + static_cast<std::size_t>(g));
      Graph& graph = sessions[s][g];
      graph.name = "s" + std::to_string(s) + "g" + std::to_string(g);
      graph.spec = g == 0 ? MakeChainSpec(rng, kChainNodes)
                          : MakeDagSpec(rng, kDagNodes, kSharedTargets);
      graph.digest = DigestSpec(graph.spec);
      for (std::int64_t v : graph.spec.values) graph.value_sum += v;
      session_nodes += graph.spec.size();
      obiwan::Status bound = provider->Bind(graph.name, BuildGraph(graph.spec));
      h.Check(bound.ok(), "bind " + graph.name + ": " + bound.ToString());
      if (!bound.ok()) return false;
    }
  }

  obiwan::core::Site& site = *demander;
  auto op = [&](int, std::uint64_t index) -> std::optional<OpTiming> {
    std::array<Graph, kGraphs>& session = sessions[index % kSessions];
    OpTiming timing;
    std::vector<std::unique_ptr<Walker>> walkers;
    std::vector<Ref<BenchNode>> roots(kGraphs);
    const std::int64_t start = NowNs();
    {
      ScopedSpan span(SpanKind::kOp, 0);
      for (int g = 0; g < kGraphs; ++g) {
        auto remote = site.Lookup<BenchNode>(session[g].name);
        if (!remote.ok()) return std::nullopt;
        auto root = remote->Replicate(ModeOf(g));
        if (!root.ok()) return std::nullopt;
        roots[g] = std::move(*root);
        if (g == 0) timing.first_ns = NowNs() - start;
        walkers.push_back(std::make_unique<Walker>(h, session[g].spec));
        if (!walkers.back()->Visit(roots[g], 0)) return std::nullopt;
      }
    }
    const std::int64_t walked = NowNs() - start;

    // Output checks, outside the timed part.
    std::vector<obiwan::core::ProxyDescriptor> cluster_pins;
    for (int g = 0; g < kGraphs; ++g) {
      h.Check(walkers[g]->Digest() == session[g].digest,
              "replica digest differs from the generator's in " + session[g].name);
      h.Check(walkers[g]->lmi_sum() == session[g].value_sum,
              "LMI calls returned other values than the generator's in " + session[g].name);
      if (!ModeOf(g).SharedProxyPair()) continue;
      for (const obiwan::ObjectId& id : walkers[g]->ids()) {
        auto provider_of = site.ReplicaProvider(id);
        if (!provider_of.ok()) continue;
        bool known = false;
        for (const auto& pin : cluster_pins) known = known || pin.pin == provider_of->pin;
        if (!known) cluster_pins.push_back(*provider_of);
      }
    }

    // Close the session: release the cluster pins, drop every replica.
    const std::int64_t close_start = NowNs();
    std::size_t evicted = 0;
    {
      ScopedSpan span(SpanKind::kOp, 0);
      for (const auto& pin : cluster_pins) {
        if (!site.ReleaseProxy(pin).ok()) return std::nullopt;
      }
      walkers.clear();
      roots.clear();
      evicted = site.EvictIdleReplicas();
    }
    timing.total_ns = walked + (NowNs() - close_start);
    h.Check(evicted == session_nodes, "evicted " + std::to_string(evicted) + " of " +
                                          std::to_string(session_nodes) + " replicas");
    return timing;
  };

  // Warm-up: every session once.
  if (!h.Measure(1, kSessions, op)) return false;
  h.EndOfRun();
  return true;
}

}  // namespace rtbench
