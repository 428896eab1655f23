// One proof per garbage cycle: a verdict cuts the whole proven closure
// (not only the candidate's links), and wave suppression parks the
// detections that would prove the same structure again.  These tests pin
// both halves and the ways suppression must not cost completeness.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/daemon.h"
#include "core/oracle.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::Oracle;

bool fully_collected(const Cluster& cluster) {
  const core::OracleReport report = Oracle::analyze(cluster);
  return report.violations.empty() && Oracle::fully_collected(cluster, report);
}

/// Acyclic rounds only: whatever a verdict's cut set free.
void settle(Cluster& cluster) {
  for (int i = 0; i < 12; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
}

TEST(ClosureCut, OneDetectionCollectsTheWholeMesh) {
  Cluster cluster;
  const workload::Mesh mesh = workload::build_mesh(
      cluster, {.processes = 4, .dependencies = 6, .extra_replicas = 1});
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(mesh.head_process, mesh.head).has_value());
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.cycles_found().size(), 1u);

  settle(cluster);
  EXPECT_TRUE(fully_collected(cluster))
      << "one proof must break the whole mesh, not only the candidate's links";
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_EQ(cluster.metric_total("cycle.cuts_stale"), 0u);
  EXPECT_EQ(cluster.metric_total("cycle.cuts_empty"), 0u);
}

/// The garbage cycle behind the store_daemon seed-12 survivors:
///   a@P3 ⇢ a@P2 (prop), a@P2 -> b@P2 (local), b@P2 ⇢ b@P4 (prop),
///   b@P4 -> a@P2 (remote reference).
/// a@P3, the root of a's propagation tree, has an outProp and no incoming
/// link at all, so a cut of the candidate's own links is empty.  With
/// `tail`, b@P4 also references a live object on P5 (through a plain
/// local object), which makes the detections from a@P3 and a@P2 fail.
struct RootedCycle {
  std::vector<ProcessId> p;
  ObjectId a{kNoObject};
  ObjectId b{kNoObject};
  ObjectId live{kNoObject};
};

RootedCycle build_rooted_cycle(Cluster& cluster, bool tail) {
  RootedCycle s;
  for (int i = 0; i < 6; ++i) s.p.push_back(cluster.add_process());
  s.a = cluster.new_object(s.p[3]);
  s.b = cluster.new_object(s.p[2]);
  s.live = cluster.new_object(s.p[5]);
  cluster.add_root(s.p[3], s.a);
  cluster.add_root(s.p[2], s.b);
  cluster.add_root(s.p[5], s.live);
  cluster.propagate(s.a, s.p[3], s.p[2]);
  cluster.run_until_quiescent();
  cluster.add_ref(s.p[2], s.a, s.b);
  cluster.propagate(s.b, s.p[2], s.p[4]);
  cluster.run_until_quiescent();
  workload::make_remote_ref(cluster, s.p[4], s.b, s.p[2], s.a);
  if (tail) {
    const ObjectId hop = cluster.new_object(s.p[4]);
    cluster.add_ref(s.p[4], s.b, hop);
    workload::make_remote_ref(cluster, s.p[4], hop, s.p[5], s.live);
  }
  cluster.remove_root(s.p[3], s.a);
  cluster.remove_root(s.p[2], s.b);
  workload::settle(cluster);
  return s;
}

TEST(ClosureCut, CandidateWithNoIncomingLinkStillCutsItsCycle) {
  Cluster cluster;
  const RootedCycle s = build_rooted_cycle(cluster, /*tail=*/false);
  const rm::Process& p3 = cluster.process(s.p[3]);
  ASSERT_NE(p3.find_out_prop(s.a, s.p[2]), nullptr);
  for (const auto& [key, scion] : p3.scions()) ASSERT_NE(key.anchor, s.a);
  for (const rm::InProp& e : p3.in_props()) ASSERT_NE(e.object, s.a);

  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(s.p[3], s.a).has_value());
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.cycles_found().size(), 1u);
  settle(cluster);
  EXPECT_TRUE(fully_collected(cluster));
  EXPECT_EQ(cluster.metric_total("cycle.cuts_empty"), 0u);
}

TEST(ClosureCut, RunFullGcSurvivesAWinnerThatFailsOnALiveTail) {
  Cluster cluster;
  const RootedCycle s = build_rooted_cycle(cluster, /*tail=*/true);
  // In the first round's wave a detection that fails on the tail
  // outranks the ones that can prove the cycle: the round proves nothing
  // on its own, and only the resumed tracks prove it.
  const Cluster::FullGcStats stats = cluster.run_full_gc();
  EXPECT_GE(stats.cycles_found, 1u);
  EXPECT_GT(cluster.metric_total("cycle.drops_suppressed"), 0u);
  EXPECT_GT(cluster.metric_total("cycle.suppressed_resumed"), 0u);
  EXPECT_TRUE(fully_collected(cluster));
  EXPECT_TRUE(cluster.process(s.p[5]).heap().contains(s.live));
}

TEST(ClosureCut, AdaptiveDaemonSurvivesAWinnerThatFailsOnALiveTail) {
  Cluster cluster;
  const RootedCycle s = build_rooted_cycle(cluster, /*tail=*/true);
  // Unstaggered sweeps put every process's detections in one wave; the
  // first waves' winners fail on the tail and park the rest, which a
  // daemon never resumes — a later sweep's wave, ranked anew, proves it.
  core::DaemonConfig config;
  config.stagger = 0;
  core::GcDaemon daemon{cluster, config};
  daemon.run(2000);
  EXPECT_GT(cluster.metric_total("cycle.drops_suppressed"), 0u);
  EXPECT_TRUE(fully_collected(cluster));
  EXPECT_TRUE(cluster.process(s.p[5]).heap().contains(s.live));
}

}  // namespace
}  // namespace rgc::gc
