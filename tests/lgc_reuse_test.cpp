// LGC result reuse (core::Cluster, Node::lgc): a collection of a process
// whose mutation epoch has not moved since its last sweep hands that
// sweep's result out instead of tracing again.  These tests hold every
// reuse to what a fresh trace would have produced, over the random
// mutator/coherence histories of summary_diff_test with and without a
// FaultPlan, and pin what the candidate policy sends on NewSetStubs: no
// distances unless the distance heuristic is the policy, and under it the
// same traffic as before reuse existed.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/cluster.h"
#include "gc/adgc/adgc.h"
#include "gc/lgc/lgc.h"
#include "random_history.h"
#include "workload/fault_plan.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc::gc {
namespace {

using core::CandidatePolicy;
using core::Cluster;
using core::ClusterConfig;

/// What a fresh Lgc::mark of a process classifies, read back from the mark
/// masks without sweeping, plus what apply() would reclaim or drop.
struct FreshMark {
  util::FlatMap<ObjectId, std::uint8_t> object_reach;
  util::FlatMap<rm::StubKey, std::uint8_t> stub_reach;
  util::FlatSet<rm::StubKey> live_stubs;
  std::size_t unmarked_objects{0};
  std::size_t unmarked_stubs{0};
};

FreshMark fresh_mark(const rm::Process& proc) {
  const LgcMark marked = Lgc::mark(proc);
  FreshMark fresh;
  const rm::Heap& heap = proc.heap();
  heap.for_each([&](ObjectId id, std::uint32_t slot, const rm::Object&) {
    if (const std::uint8_t mask = heap.marks(slot, marked.epoch)) {
      fresh.object_reach.append(id, mask);
    } else {
      ++fresh.unmarked_objects;
    }
  });
  for (const auto& [key, stub] : proc.stubs()) {
    if (const std::uint8_t mask = stub.marks(marked.epoch)) {
      fresh.stub_reach.append(key, mask);
      fresh.live_stubs.insert(key);
    } else {
      ++fresh.unmarked_stubs;
    }
  }
  return fresh;
}

std::uint64_t marks_reused(const Cluster& cluster, ProcessId pid) {
  return cluster.process(pid).metrics().get("lgc.marks_reused");
}

/// History hooks that check every reuse: before each collection, a fresh
/// mark of every live process; after it, each process whose
/// lgc.marks_reused moved must hold a kept result equal to that mark.
struct ReuseChecker {
  explicit ReuseChecker(Cluster& c) : cluster(c) {}

  Cluster& cluster;
  std::map<ProcessId, FreshMark> fresh;
  std::map<ProcessId, std::uint64_t> reused_before;
  std::uint64_t reuses{0};

  void before() {
    fresh.clear();
    reused_before.clear();
    for (ProcessId pid : cluster.process_ids()) {
      fresh.emplace(pid, fresh_mark(cluster.process(pid)));
      reused_before[pid] = marks_reused(cluster, pid);
    }
  }

  void after() {
    for (ProcessId pid : cluster.process_ids()) {
      if (marks_reused(cluster, pid) == reused_before.at(pid)) continue;
      ++reuses;
      const LgcResult& kept = cluster.last_collection(pid);
      const FreshMark& f = fresh.at(pid);
      const std::string at = "reused collection on " + to_string(pid);
      EXPECT_EQ(f.object_reach, kept.object_reach) << at;
      EXPECT_EQ(f.stub_reach, kept.stub_reach) << at;
      EXPECT_EQ(f.live_stubs, kept.live_stubs) << at;
      EXPECT_EQ(f.unmarked_objects, 0u) << at << ": a fresh sweep reclaims";
      EXPECT_EQ(f.unmarked_stubs, 0u) << at << ": a fresh sweep drops stubs";
      EXPECT_TRUE(kept.reclaimed.empty()) << at;
      EXPECT_EQ(kept.resurrected, 0u) << at;
      EXPECT_EQ(kept.traced, 0u) << at;
    }
  }

  [[nodiscard]] test::HistoryHooks hooks() {
    test::HistoryHooks h;
    h.before_collect = [this] { before(); };
    h.after_collect = [this] { after(); };
    return h;
  }
};

TEST(LgcReuse, ReusedResultsMatchAFreshMark) {
  std::uint64_t reuses = 0;
  for (const CandidatePolicy policy :
       {CandidatePolicy::kExhaustive, CandidatePolicy::kDistance}) {
    for (std::uint32_t seed : {1u, 7u, 42u, 1234u, 90210u, 424242u}) {
      ClusterConfig cfg;
      cfg.net.seed = seed;
      cfg.candidates = policy;
      Cluster cluster{cfg};
      const std::size_t procs = 2 + seed % 4;
      for (std::size_t i = 0; i < procs; ++i) cluster.add_process();
      ReuseChecker checker{cluster};
      for (int leg = 0; leg < 6; ++leg) {
        test::drive_random_history(cluster, seed * 31 + leg, 60,
                                   checker.hooks());
        // Settled state: the next round finds most processes unchanged.
        checker.before();
        cluster.collect_all();
        checker.after();
        cluster.run_until_quiescent();
      }
      reuses += checker.reuses;
    }
  }
  EXPECT_GT(reuses, 0u) << "the histories never exercised the reuse path";
}

TEST(LgcReuse, FaultPlanHistoriesNeverReuseStaleResults) {
  std::uint64_t reuses = 0;
  for (std::uint32_t seed : {3u, 11u, 29u, 2024u}) {
    ClusterConfig cfg;
    cfg.net.seed = seed;
    cfg.lease_timeout = 64;
    Cluster cluster{cfg};
    const std::size_t procs = 3 + seed % 3;
    for (std::size_t i = 0; i < procs; ++i) cluster.add_process();

    workload::FaultPlanSpec spec;
    spec.seed = seed;
    spec.start = 4;
    spec.horizon = 160;
    spec.persist_period = 16;
    workload::FaultPlanRunner runner{
        cluster, workload::FaultPlan::random(cluster.process_ids(), spec)};
    ReuseChecker checker{cluster};
    test::HistoryHooks hooks = checker.hooks();
    hooks.before_op = [&runner] { runner.poll(); };
    for (int leg = 0; leg < 6; ++leg) {
      test::drive_random_history(cluster, seed * 17 + leg, 60, hooks);
    }
    runner.finish();
    cluster.run_until_quiescent();
    checker.before();
    cluster.collect_all();
    checker.after();
    EXPECT_GT(cluster.network().metrics().get("cluster.crashes"), 0u)
        << "seed " << seed;
    EXPECT_GT(cluster.network().metrics().get("cluster.recoveries"), 0u)
        << "seed " << seed;
    reuses += checker.reuses;
  }
  EXPECT_GT(reuses, 0u);
}

TEST(LgcReuse, KillAndRestartDropTheKeptResult) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  const ObjectId c = cluster.new_object(p0);  // garbage at persist time
  cluster.add_root(p0, a);
  cluster.persist(p0);

  // The first collection sweeps c; the second finds the epoch unchanged.
  ASSERT_EQ(cluster.collect(p0).reclaimed.size(), 1u);
  EXPECT_EQ(marks_reused(cluster, p0), 0u);
  cluster.collect(p0);
  EXPECT_EQ(marks_reused(cluster, p0), 1u);
  const std::uint64_t kept_epoch = cluster.process(p0).mutation_epoch();

  // Restarting from the image brings c back at an epoch equal to the kept
  // one — a reuse would now leave c in place for good.
  cluster.kill(p0);
  ASSERT_TRUE(cluster.restart(p0));
  ASSERT_TRUE(cluster.process(p0).heap().contains(c));
  ASSERT_EQ(cluster.process(p0).mutation_epoch(), kept_epoch)
      << "the scenario relies on the restarted epoch colliding";

  const LgcResult& r = cluster.collect(p0);
  EXPECT_EQ(marks_reused(cluster, p0), 0u);
  ASSERT_EQ(r.reclaimed.size(), 1u);
  EXPECT_EQ(r.reclaimed.front(), c);
  EXPECT_FALSE(cluster.process(p0).heap().contains(c));
}

/// Every NewSetStubs sent, folded into counters and an FNV-1a digest of
/// its contents in send order.
class NewSetStubsTap : public net::Network::Observer {
 public:
  void on_send(const net::Envelope& env) override {
    const auto* m = dynamic_cast<const NewSetStubsMsg*>(env.msg);
    if (m == nullptr) return;
    ++sent;
    weight += m->weight();
    if (!m->distances.empty()) ++with_distances;
    mix(raw(env.src));
    mix(raw(env.dst));
    mix(m->epoch);
    mix(m->horizon);
    mix(m->final_set ? 1 : 0);
    mix(m->stub_anchors.size());
    for (ObjectId obj : m->stub_anchors) mix(raw(obj));
    mix(m->distances.size());
    for (const auto& [obj, d] : m->distances) {
      mix(raw(obj));
      mix(d);
    }
  }

  std::uint64_t sent{0};
  std::uint64_t weight{0};
  std::uint64_t with_distances{0};
  std::uint64_t digest{14695981039346656037ull};

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xffu;
      digest *= 1099511628211ull;
    }
  }
};

/// A fixed workload with live and garbage cycles: the Figure 2 cycle plus a
/// garbage mesh, several plain collection rounds, then a full GC.
void run_policy_workload(Cluster& cluster) {
  workload::build_figure2(cluster);
  workload::build_mesh(cluster, {.processes = 4, .dependencies = 5});
  cluster.run_until_quiescent();
  for (int i = 0; i < 6; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  cluster.run_full_gc();
}

TEST(LgcReuse, ExhaustivePolicySendsNoDistances) {
  NewSetStubsTap tap;
  Cluster cluster;
  cluster.network().add_observer(&tap);
  run_policy_workload(cluster);
  EXPECT_GT(tap.sent, 0u);
  EXPECT_EQ(tap.with_distances, 0u);
  EXPECT_GT(cluster.metric_total("lgc.marks_reused"), 0u);
  cluster.network().remove_observer(&tap);
}

TEST(LgcReuse, DistancePolicyTrafficIsPinned) {
  NewSetStubsTap tap;
  ClusterConfig cfg;
  cfg.candidates = CandidatePolicy::kDistance;
  Cluster cluster{cfg};
  cluster.network().add_observer(&tap);
  run_policy_workload(cluster);
  EXPECT_GT(cluster.metric_total("lgc.marks_reused"), 0u);
  // Recorded from the collector before LGC results were reused: reuse
  // must not change a single NewSetStubs (anchors, epochs, distances).
  EXPECT_EQ(tap.sent, 112u);
  EXPECT_EQ(tap.weight, 564u);
  EXPECT_EQ(tap.with_distances, 106u);
  EXPECT_EQ(tap.digest, 51689862293550797ull);
  cluster.network().remove_observer(&tap);
}

}  // namespace
}  // namespace rgc::gc
