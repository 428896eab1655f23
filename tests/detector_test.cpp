// Unit/integration tests: the replication-aware cycle detector — start
// conditions, pure propagation cycles, verdict cuts, stale-cut safety,
// subsumption, policy configuration.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/oracle.h"
#include "workload/figures.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::Oracle;

TEST(Detector, StartRequiresSnapshot) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  EXPECT_FALSE(cluster.detect(p1, a).has_value());
}

TEST(Detector, StartRejectsUnknownCandidate) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);  // no scion, not replicated
  cluster.snapshot_all();
  EXPECT_FALSE(cluster.detect(p1, a).has_value())
      << "an object without incoming remote dependencies cannot head a "
         "distributed cycle";
}

TEST(Detector, StartRejectsLocallyReachableCandidate) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  cluster.snapshot_all();
  EXPECT_FALSE(cluster.detect(p1, a).has_value());
}

TEST(Detector, PurePropagationCycleIsDetectedAndReclaimed) {
  // a propagated P1 -> P2 and back P2 -> P1: a two-replica "cycle" held
  // alive purely by propagation entries — no scions at all.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  cluster.propagate(a, p2, p1);
  cluster.run_until_quiescent();

  // The acyclic protocol deadlocks on the mutual props...
  for (int i = 0; i < 6; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  ASSERT_TRUE(cluster.process(p1).heap().contains(a));
  ASSERT_TRUE(cluster.process(p2).heap().contains(a));

  // ...the cycle detector resolves it.
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(p1, a).has_value());
  cluster.run_until_quiescent();
  ASSERT_GE(cluster.cycles_found().size(), 1u);
  for (int i = 0; i < 8; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST(Detector, MakeCutsCoverTheProvenClosure) {
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.cycles_found().size(), 1u);

  const Cdm& verdict = cluster.cycles_found().front();
  const auto cuts = CycleDetector::make_cuts(verdict, verdict.required_closure());
  // Every incoming link inside the proven cycle, one message per holder:
  // X@P1's scion from P3, X'@P2's inProp from P1, Y@P4's scion from P2 and
  // Y'@P3's inProp from P4.
  ASSERT_EQ(cuts.size(), 4u);
  for (const auto& [pid, cut] : cuts) {
    EXPECT_EQ(cut.candidate, f.x);
    EXPECT_EQ(cut.detection_id, verdict.detection_id);
  }
  ASSERT_EQ(cuts.at(f.p1).scion_cuts.size(), 1u);
  EXPECT_EQ(cuts.at(f.p1).scion_cuts[0].first, (rm::ScionKey{f.p3, f.x}));
  EXPECT_TRUE(cuts.at(f.p1).prop_cuts.empty());
  EXPECT_TRUE(cuts.at(f.p2).scion_cuts.empty());
  ASSERT_EQ(cuts.at(f.p2).prop_cuts.size(), 1u);
  EXPECT_EQ(cuts.at(f.p2).prop_cuts[0].object, f.x);
  EXPECT_EQ(cuts.at(f.p2).prop_cuts[0].parent, f.p1);
  ASSERT_EQ(cuts.at(f.p4).scion_cuts.size(), 1u);
  EXPECT_EQ(cuts.at(f.p4).scion_cuts[0].first, (rm::ScionKey{f.p2, f.y}));
  ASSERT_EQ(cuts.at(f.p3).prop_cuts.size(), 1u);
  EXPECT_EQ(cuts.at(f.p3).prop_cuts[0].object, f.y);
  EXPECT_EQ(cuts.at(f.p3).prop_cuts[0].parent, f.p4);

  // Nothing outside the proven set is ever cut.
  EXPECT_TRUE(CycleDetector::make_cuts(verdict, {}).empty());
}

TEST(Detector, StaleCutIsSkippedAfterInvocation) {
  Cluster cluster;
  ClusterConfig cfg;
  cfg.auto_cut = false;  // apply the cut manually, after a mutation
  Cluster manual{cfg};
  const auto f = workload::build_figure2(manual);
  manual.snapshot_all();
  manual.detect(f.p1, f.x);
  manual.run_until_quiescent();
  ASSERT_EQ(manual.cycles_found().size(), 1u);

  // A mutator invocation on the candidate lands *after* the verdict: the
  // recorded IC no longer matches and the cut must refuse to apply.
  manual.invoke(f.p3, f.x);
  manual.run_until_quiescent();

  const Cdm& verdict = manual.cycles_found().front();
  auto cut = std::make_unique<CutMsg>(
      CycleDetector::make_cuts(verdict, verdict.required_closure()).at(f.p1));
  manual.network().send(f.p1, f.p1, std::move(cut));
  manual.run_until_quiescent();
  EXPECT_TRUE(manual.process(f.p1).scions().contains(rm::ScionKey{f.p3, f.x}))
      << "a cut with a stale IC must not delete the scion";
  EXPECT_EQ(manual.process(f.p1).metrics().get("cycle.cuts_stale"), 1u);
}

TEST(Detector, DuplicateVerdictCutsAreIdempotent) {
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.cycles_found().size(), 1u);
  // Replay the candidate's cut.
  const Cdm& verdict = cluster.cycles_found().front();
  auto cut = std::make_unique<CutMsg>(
      CycleDetector::make_cuts(verdict, verdict.required_closure()).at(f.p1));
  cluster.network().send(f.p1, f.p1, std::move(cut));
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.process(f.p1).metrics().get("cycle.scions_cut"), 1u);
}

TEST(Detector, SubsumedDuplicateCdmsAreDropped) {
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();

  // Re-running the identical detection under the same snapshots hits the
  // per-entry subsumption filter at every hop it repeats... a new
  // detection id makes the filter inapplicable; same-id replays drop.
  const auto drops_before =
      cluster.metric_total("cycle.drops_subsumed");
  cluster.detect(f.p1, f.x);  // new detection id: no drops expected
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.metric_total("cycle.drops_subsumed"), drops_before);
}

TEST(Detector, SecondDetectionAfterCutFindsNothing) {
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.cycles_found().size(), 1u);

  // Fresh snapshots reflect the cut scion: the cycle is already broken,
  // the candidate may no longer even qualify.
  for (int i = 0; i < 8; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  cluster.snapshot_all();
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.cycles_found().size(), 1u) << "no second verdict";
}

TEST(Detector, ParentsFirstPolicyStillDetects) {
  ClusterConfig cfg;
  cfg.detector.children_first = false;  // ablation: reversed forwarding
  Cluster cluster{cfg};
  const auto f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(f.p1, f.x).has_value());
  cluster.run_until_quiescent();
  EXPECT_GE(cluster.cycles_found().size(), 1u)
      << "the policy affects economy, not completeness";
}

TEST(Detector, ThreeProcessRingOfPropagations) {
  // a propagated around P1 -> P2 -> P3 -> P1: a three-replica prop cycle.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ProcessId p3 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  cluster.propagate(a, p2, p3);
  cluster.run_until_quiescent();
  cluster.propagate(a, p3, p1);
  cluster.run_until_quiescent();

  const auto stats = cluster.run_full_gc();
  EXPECT_GE(stats.cycles_found, 1u);
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST(Detector, TwoIndependentCyclesAreBothCollected) {
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  // Second, disjoint cycle on the same processes.
  const ObjectId u = cluster.new_object(f.p1);
  const ObjectId v = cluster.new_object(f.p4);
  cluster.add_root(f.p1, u);
  cluster.add_root(f.p4, v);
  cluster.propagate(u, f.p1, f.p2);
  cluster.propagate(v, f.p4, f.p3);
  cluster.run_until_quiescent();
  workload::make_remote_ref(cluster, f.p2, u, f.p4, v);
  workload::make_remote_ref(cluster, f.p3, v, f.p1, u);
  cluster.remove_root(f.p1, u);
  cluster.remove_root(f.p4, v);
  workload::settle(cluster);

  const auto stats = cluster.run_full_gc();
  EXPECT_GE(stats.cycles_found, 2u);
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_TRUE(Oracle::fully_collected(cluster, Oracle::analyze(cluster)));
}

TEST(Detector, CycleWithAcyclicTailNeedsAdgcFirst) {
  // g -> x where x is in a garbage cycle: the scion from g's process keeps
  // an unresolved dependency until the acyclic protocol collects g; then
  // the cycle falls.  run_full_gc alternates both phases and converges.
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  const ProcessId p5 = cluster.add_process();
  const ObjectId g = cluster.new_object(p5);
  cluster.add_root(p5, g);
  workload::make_remote_ref(cluster, p5, g, f.p1, f.x);
  workload::settle(cluster);

  // With g live, the cycle must survive everything.
  auto stats = cluster.run_full_gc();
  EXPECT_TRUE(cluster.process(f.p1).heap().contains(f.x));

  // Drop g: tail + cycle all garbage now.
  cluster.remove_root(p5, g);
  stats = cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_TRUE(Oracle::fully_collected(cluster, Oracle::analyze(cluster)));
}

TEST(Detector, MutuallyReferencingCyclesConverge) {
  // Cycle A (fig2) plus an upstream cycle B referencing into A: trial
  // deletion chokes on this shape (§6); ours converges over rounds.
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  const ProcessId q1 = cluster.add_process();
  const ProcessId q2 = cluster.add_process();
  const ObjectId m = cluster.new_object(q1);
  const ObjectId n = cluster.new_object(q2);
  cluster.add_root(q1, m);
  cluster.add_root(q2, n);
  workload::make_remote_ref(cluster, q1, m, q2, n);
  workload::make_remote_ref(cluster, q2, n, q1, m);
  // B -> A: m also references x.
  workload::make_remote_ref(cluster, q1, m, f.p1, f.x);
  cluster.remove_root(q1, m);
  cluster.remove_root(q2, n);
  workload::settle(cluster);

  const auto stats = cluster.run_full_gc();
  EXPECT_GE(stats.cycles_found, 2u);
  EXPECT_EQ(cluster.total_objects(), 0u);
}

}  // namespace
}  // namespace rgc::gc
