#include "bench_objects.h"

#include <algorithm>
#include <cstring>
#include <functional>

OBIWAN_REGISTER_CLASS(rtbench::BenchNode);
OBIWAN_REGISTER_CLASS(rtbench::BenchDoc);
OBIWAN_REGISTER_CLASS(rtbench::BenchCounter);

namespace rtbench {

namespace {

constexpr std::size_t kLabelBytes = 12;
// 64 B .. 16 KB, doubling: nine sizes.
constexpr std::size_t kLadder[] = {64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};

std::string RandomLabel(Rng& rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string s(kLabelBytes, ' ');
  for (char& c : s) c = kAlphabet[rng.Below(sizeof(kAlphabet) - 1)];
  return s;
}

std::vector<std::size_t> PayloadSizes(Rng& rng, std::size_t n) {
  std::vector<std::size_t> sizes(n);
  for (std::size_t i = 0; i < n; ++i) sizes[i] = kLadder[i % std::size(kLadder)];
  rng.Shuffle(sizes);
  return sizes;
}

void FillNodes(Rng& rng, GraphSpec& spec, std::size_t n) {
  const std::vector<std::size_t> sizes = PayloadSizes(rng, n);
  for (std::size_t i = 0; i < n; ++i) {
    spec.labels.push_back(RandomLabel(rng));
    spec.payloads.push_back(RandomBytes(rng, sizes[i]));
    spec.values.push_back(static_cast<std::int64_t>(rng.Below(1u << 30)));
  }
}

}  // namespace

Rng StreamRng(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed * 0x100000001B3ull + stream);
  return Rng(mix.Next() ^ (stream << 32));
}

std::string RandomBytes(Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  std::size_t i = 0;
  while (i < n) {
    std::uint64_t word = rng.Next();
    for (int k = 0; k < 8 && i < n; ++k, ++i) {
      s[i] = static_cast<char>(word & 0xFF);
      word >>= 8;
    }
  }
  return s;
}

GraphSpec MakeChainSpec(Rng& rng, std::size_t n) {
  GraphSpec spec;
  FillNodes(rng, spec, n);
  for (std::size_t i = 0; i < n; ++i) {
    spec.a.push_back(i + 1 < n ? static_cast<int>(i + 1) : -1);
    spec.b.push_back(-1);
  }
  return spec;
}

GraphSpec MakeDagSpec(Rng& rng, std::size_t n, std::size_t shared) {
  GraphSpec spec;
  FillNodes(rng, spec, n);
  spec.a.assign(n, -1);
  spec.b.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (2 * i + 1 < n) spec.a[i] = static_cast<int>(2 * i + 1);
    if (2 * i + 2 < n) spec.b[i] = static_cast<int>(2 * i + 2);
  }
  // Leaves (no children at all) pick a second parent's target among the
  // nodes after them; a target is shared at most once so the count of
  // identity checks is fixed.
  std::vector<int> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    if (spec.a[i] < 0 && spec.b[i] < 0 && i + 1 < n) leaves.push_back(static_cast<int>(i));
  }
  rng.Shuffle(leaves);
  std::vector<bool> taken(n, false);
  std::size_t made = 0;
  for (int leaf : leaves) {
    if (made == shared) break;
    const std::size_t span = n - static_cast<std::size_t>(leaf) - 1;
    const int target = leaf + 1 + static_cast<int>(rng.Below(span));
    if (taken[target]) continue;
    taken[target] = true;
    spec.b[leaf] = target;
    ++made;
  }
  return spec;
}

std::shared_ptr<BenchNode> BuildGraph(const GraphSpec& spec) {
  std::vector<std::shared_ptr<BenchNode>> nodes(spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) {
    nodes[i] = std::make_shared<BenchNode>();
    nodes[i]->label = spec.labels[i];
    nodes[i]->payload = spec.payloads[i];
    nodes[i]->value = spec.values[i];
  }
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (spec.a[i] >= 0) nodes[i]->a = nodes[spec.a[i]];
    if (spec.b[i] >= 0) nodes[i]->b = nodes[spec.b[i]];
  }
  return nodes.empty() ? nullptr : nodes[0];
}

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t n) {
  // FNV-1a over 8-byte words (bytes for the tail): the digest runs over
  // every payload byte of every op, so it must stay cheap next to the op.
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, sizeof word);
    h = (h ^ word) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

GraphDigest DigestSpec(const GraphSpec& spec) {
  GraphDigest d;
  d.hash = 0xCBF29CE484222325ull;
  std::vector<bool> seen(spec.size(), false);
  std::function<void(int)> visit = [&](int i) {
    if (i < 0 || seen[i]) return;
    seen[i] = true;
    ++d.nodes;
    const std::size_t label_len = spec.labels[i].size();
    d.hash = Fnv(d.hash, &label_len, sizeof label_len);
    d.hash = Fnv(d.hash, spec.labels[i].data(), label_len);
    d.hash = Fnv(d.hash, spec.payloads[i].data(), spec.payloads[i].size());
    d.hash = Fnv(d.hash, &spec.values[i], sizeof spec.values[i]);
    visit(spec.a[i]);
    visit(spec.b[i]);
  };
  visit(0);
  d.hash = Fnv(d.hash, &d.nodes, sizeof d.nodes);
  return d;
}

}  // namespace rtbench
