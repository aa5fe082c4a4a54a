// Shareable classes and seeded input generators of the real-time benchmark.
//
// The benchmark owns its classes so that nothing outside this directory can
// change what it measures. Every label, payload byte, shared edge and
// mutation is derived from the run's seed; the *shape* of the inputs (object
// counts, the multiset of payload sizes, the number of shared targets) is
// fixed, so that two seeds load the system identically while the values it
// carries differ. That keeps per-op byte and round-trip counts comparable
// across seeds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ref.h"
#include "core/shareable.h"

namespace rtbench {

// splitmix64: small, fast, and identical on every platform (unlike the
// standard distributions, whose mapping is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  std::uint64_t state_;
};

// Stream `stream` of the run seeded with `seed`: independent generators for
// independent purposes, so adding a draw to one never shifts another.
Rng StreamRng(std::uint64_t seed, std::uint64_t stream);

std::string RandomBytes(Rng& rng, std::size_t n);

// A graph node: the replicate_graph and invoke_mix object. Two outgoing
// references make chains (b empty) and DAGs with shared targets.
class BenchNode : public obiwan::core::Shareable {
 public:
  OBIWAN_SHAREABLE(BenchNode)
  std::string label;
  std::string payload;
  std::int64_t value = 0;
  obiwan::core::Ref<BenchNode> a;
  obiwan::core::Ref<BenchNode> b;

  std::int64_t Value() const { return value; }

  static void ObiwanDefine(obiwan::core::ClassDef<BenchNode>& def) {
    def.Field("label", &BenchNode::label)
        .Field("payload", &BenchNode::payload)
        .Field("value", &BenchNode::value)
        .Ref("a", &BenchNode::a)
        .Ref("b", &BenchNode::b)
        .Method("Value", &BenchNode::Value);
  }
};

// A document: the update_fanout object. Edits change a few body bytes and
// the stamp.
class BenchDoc : public obiwan::core::Shareable {
 public:
  OBIWAN_SHAREABLE(BenchDoc)
  std::string label;
  std::string body;
  std::int64_t stamp = 0;

  static void ObiwanDefine(obiwan::core::ClassDef<BenchDoc>& def) {
    def.Field("label", &BenchDoc::label)
        .Field("body", &BenchDoc::body)
        .Field("stamp", &BenchDoc::stamp);
  }
};

// A counter invoked remotely: the invoke_mix RMI target.
class BenchCounter : public obiwan::core::Shareable {
 public:
  OBIWAN_SHAREABLE(BenchCounter)
  std::string label;
  std::int64_t touches = 0;

  // Returns the count after this touch.
  std::int64_t Touch() { return ++touches; }

  static void ObiwanDefine(obiwan::core::ClassDef<BenchCounter>& def) {
    def.Field("label", &BenchCounter::label)
        .Field("touches", &BenchCounter::touches)
        .Method("Touch", &BenchCounter::Touch);
  }
};

// --- replicate_graph inputs ----------------------------------------------------

// Generator-side description of one graph: node i's references are indices
// (-1 for null). Node 0 is the root.
struct GraphSpec {
  std::vector<std::string> labels;
  std::vector<std::string> payloads;
  std::vector<std::int64_t> values;
  std::vector<int> a;
  std::vector<int> b;

  std::size_t size() const { return labels.size(); }
};

// Payloads of a graph's nodes repeat the ladder 64 B .. 16 KB in a seeded
// order.
//
// A chain of `n` nodes (a -> next, b null).
GraphSpec MakeChainSpec(Rng& rng, std::size_t n);
// A binary tree of `n` nodes (heap layout) in which `shared` leaves also
// point (b) at a seeded node of higher index, giving that node two parents.
GraphSpec MakeDagSpec(Rng& rng, std::size_t n, std::size_t shared);

// Instantiate the graph as local objects; returns the root.
std::shared_ptr<BenchNode> BuildGraph(const GraphSpec& spec);

// Checksum of the graph reachable from a root, visiting each distinct node
// once in depth-first order (a before b). Computed over labels, payload
// bytes, values and the number of distinct nodes reached.
struct GraphDigest {
  std::uint64_t hash = 0;
  std::size_t nodes = 0;
  friend bool operator==(const GraphDigest&, const GraphDigest&) = default;
};
// From the generator's description alone.
GraphDigest DigestSpec(const GraphSpec& spec);

// Incremental FNV-1a (word-wise) used by both digest paths.
std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t n);

}  // namespace rtbench
