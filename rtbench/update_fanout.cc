// update_fanout: the write path.
//
// One master under core::PushUpdates, one writer site and kHolders further
// holder sites, each holding a replica of every one of kDocs documents
// (2-8 KB bodies). Every site serves its HTTP admin endpoint, so the update
// journey tracker sits on the put path as on a deployed site. Each op:
//   1. Site::Put of one edited replica (the first result: Put returning);
//   2. a tx::Transaction that reads one replica, writes two edited ones and
//      commits;
//   3. the op is complete when every holder's replica of the three written
//      documents shows the writer's values at the master's version.
// Each edit changes kEditBytes body bytes and the stamp; which documents,
// offsets and bytes are drawn from the seed and the op index.
#include <algorithm>
#include <array>
#include <thread>

#include "bench_objects.h"
#include "common/metrics.h"
#include "core/remote_ref.h"
#include "harness.h"
#include "tx/transaction.h"

namespace rtbench {

namespace {

using obiwan::core::Ref;

constexpr std::size_t kDocs = 16;
constexpr std::size_t kHolders = 3;
constexpr std::size_t kEditBytes = 8;
constexpr std::size_t kWarmupOps = 64;
constexpr std::size_t kBodyKiB[] = {2, 3, 4, 5, 6, 7, 8, 4};
constexpr std::int64_t kConvergeTimeoutNs = 2000000000;

struct DocValue {
  std::string body;
  std::int64_t stamp = 0;
};

// Journey figures of the trackers of sites `ids`: journeys completed (every
// holder acked), and observations of one hop ("wire": a holder's ack back at
// the master; "apply": a push applied on a holder).
std::uint64_t JourneysCompleted(const std::vector<obiwan::SiteId>& ids) {
  std::uint64_t sum = 0;
  for (obiwan::SiteId id : ids) {
    sum += obiwan::MetricsRegistry::Default().SumCounters(
        "obiwan_update_journeys_completed_total", {{"site", std::to_string(id)}});
  }
  return sum;
}

std::uint64_t JourneyHops(const std::vector<obiwan::SiteId>& ids, const char* hop) {
  std::uint64_t sum = 0;
  for (obiwan::SiteId id : ids) {
    sum += obiwan::MetricsRegistry::Default()
               .SummarizeHistograms("obiwan_update_hop_ns",
                                    {{"site", std::to_string(id)}, {"hop", hop}})
               .count;
  }
  return sum;
}

std::uint64_t MasterVersionOf(obiwan::core::Site& master, obiwan::ObjectId id) {
  auto version = master.MasterVersion(id);
  return version.ok() ? *version : 0;
}

}  // namespace

bool RunUpdateFanout(Harness& h) {
  auto master = h.NewSite(1);
  auto writer = h.NewSite(2);
  std::vector<std::unique_ptr<obiwan::core::Site>> holders;
  std::vector<obiwan::SiteId> holder_ids;
  for (std::size_t i = 0; i < kHolders; ++i) {
    holder_ids.push_back(static_cast<obiwan::SiteId>(3 + i));
    holders.push_back(h.NewSite(holder_ids.back()));
    if (!holders.back()) return false;
  }
  if (!master || !writer) return false;
  master->HostRegistry();
  h.ProbePolicy(*master, std::make_unique<obiwan::core::PushUpdates>());
  std::vector<obiwan::core::Site*> clients = {writer.get()};
  for (auto& holder : holders) clients.push_back(holder.get());
  for (obiwan::core::Site* site : clients) site->UseRegistry(master->address());
  std::vector<obiwan::core::Site*> all = {master.get()};
  all.insert(all.end(), clients.begin(), clients.end());
  for (obiwan::core::Site* site : all) {
    obiwan::Status admin = site->ServeAdmin("127.0.0.1:0");
    h.Check(admin.ok(), "admin endpoint: " + admin.ToString());
    if (!admin.ok()) return false;
  }

  // The documents, their masters, and the values the writer's edits must
  // produce (kept here, apart from the program).
  Rng gen = StreamRng(h.options().seed, 0);
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < kDocs; ++i) {
    sizes.push_back(kBodyKiB[i % std::size(kBodyKiB)] * 1024);
  }
  gen.Shuffle(sizes);
  std::vector<DocValue> expected(kDocs);
  std::vector<obiwan::ObjectId> ids(kDocs);
  for (std::size_t i = 0; i < kDocs; ++i) {
    auto doc = std::make_shared<BenchDoc>();
    doc->label = "doc-" + RandomBytes(gen, 6);
    doc->body = RandomBytes(gen, sizes[i]);
    expected[i] = {doc->body, 0};
    obiwan::Status bound = master->Bind("doc" + std::to_string(i), doc);
    h.Check(bound.ok(), "bind: " + bound.ToString());
    if (!bound.ok()) return false;
    ids[i] = master->Export(doc);
  }

  // Initial replication: every client site replicates every document.
  std::vector<std::vector<Ref<BenchDoc>>> replicas(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (std::size_t i = 0; i < kDocs; ++i) {
      auto remote = clients[c]->Lookup<BenchDoc>("doc" + std::to_string(i));
      if (!remote.ok()) return false;
      auto ref = remote->Replicate(obiwan::core::ReplicationMode::Incremental(1));
      if (!ref.ok()) return false;
      replicas[c].push_back(std::move(*ref));
    }
  }
  std::vector<Ref<BenchDoc>>& mine = replicas[0];

  std::vector<std::uint64_t> base_versions;
  for (obiwan::ObjectId id : ids) base_versions.push_back(MasterVersionOf(*master, id));
  const std::uint64_t journeys0 = JourneysCompleted({1});
  const std::uint64_t acks0 = JourneyHops({1}, "wire");
  const std::uint64_t applies0 = JourneyHops(holder_ids, "apply");
  std::uint64_t updates = 0;  // objects accepted by put and commit

  // Edit the writer's replica of doc `i` and the expected value alike.
  auto edit = [&](std::size_t i, Rng& rng) {
    std::array<std::pair<std::size_t, char>, kEditBytes> bytes;
    for (auto& [offset, value] : bytes) {
      offset = rng.Below(expected[i].body.size());
      value = static_cast<char>(rng.Next() & 0xFF);
    }
    const auto stamp = static_cast<std::int64_t>(rng.Next() >> 1);
    for (auto [offset, value] : bytes) expected[i].body[offset] = value;
    expected[i].stamp = stamp;
    writer->WithObjectLock(mine[i], [&] {
      BenchDoc* doc = mine[i].get();
      for (auto [offset, value] : bytes) doc->body[offset] = value;
      doc->stamp = stamp;
    });
  };

  // Does every holder show the expected value of doc `i` at the master's
  // version?
  auto converged = [&](std::size_t i) {
    const std::uint64_t version = MasterVersionOf(*master, ids[i]);
    for (std::size_t c = 1; c < clients.size(); ++c) {
      Ref<BenchDoc>& ref = replicas[c][i];
      auto held = clients[c]->ReplicaVersion(ref);
      if (!held.ok() || *held != version) return false;
      const bool same = clients[c]->WithObjectLock(ref, [&] {
        const BenchDoc* doc = ref.get();
        return doc->stamp == expected[i].stamp && doc->body == expected[i].body;
      });
      if (!same) return false;
    }
    return true;
  };

  auto op = [&](int, std::uint64_t index) -> std::optional<OpTiming> {
    Rng rng = StreamRng(h.options().seed, (std::uint64_t{1} << 32) + index);
    std::vector<std::size_t> pick(kDocs);
    for (std::size_t i = 0; i < kDocs; ++i) pick[i] = i;
    rng.Shuffle(pick);
    const std::size_t put = pick[0], read = pick[1], write1 = pick[2], write2 = pick[3];
    edit(put, rng);
    edit(write1, rng);
    edit(write2, rng);

    OpTiming timing;
    const std::int64_t start = NowNs();
    {
      ScopedSpan span(SpanKind::kOp, 0);
      if (!writer->Put(mine[put]).ok()) return std::nullopt;
      ++updates;
      timing.first_ns = NowNs() - start;
      obiwan::tx::Transaction tx(*writer);
      if (!tx.Read(mine[read]).ok() || !tx.Write(mine[write1]).ok() ||
          !tx.Write(mine[write2]).ok()) {
        return std::nullopt;
      }
      {
        ScopedSpan commit(SpanKind::kCommit, 1);
        if (!tx.Commit().ok()) return std::nullopt;
      }
      updates += 2;
      for (std::size_t i : {put, write1, write2}) {
        while (!converged(i)) {
          if (NowNs() - start > kConvergeTimeoutNs) {
            h.Check(false, "holders did not converge on doc" + std::to_string(i));
            return std::nullopt;
          }
          std::this_thread::yield();
        }
      }
    }
    timing.total_ns = NowNs() - start;
    return timing;
  };

  if (!h.Measure(1, kWarmupOps, op)) return false;

  // Every accepted object bumped its master's version exactly once.
  std::uint64_t increments = 0;
  for (std::size_t i = 0; i < kDocs; ++i) {
    increments += MasterVersionOf(*master, ids[i]) - base_versions[i];
  }
  h.Check(increments == updates, "master versions advanced " + std::to_string(increments) +
                                     " times for " + std::to_string(updates) + " updates");
  // Each update is one journey, completed once all holders acked it: the
  // master's tracker counts updates journeys and updates x holders acks, and
  // the holders' trackers updates x holders applied pushes.
  const std::uint64_t journeys = JourneysCompleted({1}) - journeys0;
  const std::uint64_t acks = JourneyHops({1}, "wire") - acks0;
  const std::uint64_t applies = JourneyHops(holder_ids, "apply") - applies0;
  const std::string of_updates = " for " + std::to_string(updates) + " updates";
  h.Check(journeys == updates, "completed journeys " + std::to_string(journeys) + of_updates);
  h.Check(acks == updates * kHolders, "holder acks " + std::to_string(acks) + of_updates);
  h.Check(applies == updates * kHolders,
          "applied pushes " + std::to_string(applies) + of_updates);
  h.EndOfRun();
  return true;
}

}  // namespace rtbench
