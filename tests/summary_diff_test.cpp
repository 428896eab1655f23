// Differential tests for the one-pass SCC summarizer: gc::summarize must
// produce bit-for-bit the same ProcessSummary as the retained per-seed
// reference implementation (gc::summarize_reference) on randomized
// mutator/coherence histories, and the cluster's dirty-epoch cache must
// reuse a summary exactly when nothing summary-relevant changed.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/cluster.h"
#include "gc/cycle/snapshot_io.h"
#include "gc/cycle/summary.h"
#include "random_history.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::ClusterConfig;
using test::drive_random_history;

/// Both implementations, every process, structural and byte equality.
void expect_identical_summaries(Cluster& cluster, const char* context) {
  for (ProcessId pid : cluster.process_ids()) {
    const rm::Process& proc = cluster.process(pid);
    const ProcessSummary fast = summarize(proc);
    const ProcessSummary ref = summarize_reference(proc);
    ASSERT_EQ(fast, ref) << context << ": summary mismatch on "
                         << to_string(pid);
    ASSERT_EQ(encode_summary(fast), encode_summary(ref))
        << context << ": serialized bytes differ on " << to_string(pid);
  }
}

TEST(SummaryDiff, RandomHistoriesAcrossSeeds) {
  for (std::uint32_t seed : {1u, 7u, 42u, 1234u, 90210u, 424242u}) {
    ClusterConfig cfg;
    cfg.net.seed = seed;
    Cluster cluster{cfg};
    const std::size_t procs = 2 + seed % 4;
    for (std::size_t i = 0; i < procs; ++i) cluster.add_process();

    // Compare at several points along the history, not only at the end:
    // mid-flight propagations, undelivered invokes and half-collected
    // garbage are exactly the states a background summarizer sees.
    for (int leg = 0; leg < 6; ++leg) {
      drive_random_history(cluster, seed * 31 + leg, 60);
      expect_identical_summaries(cluster, "random history");
    }
  }
}

TEST(SummaryDiff, MeshAndFigureTopologies) {
  {
    Cluster cluster;
    workload::build_mesh(cluster,
                         {.processes = 5, .dependencies = 7, .extra_replicas = 2});
    expect_identical_summaries(cluster, "mesh");
  }
  {
    Cluster cluster;
    workload::build_figure2(cluster);
    expect_identical_summaries(cluster, "figure 2");
  }
}

// ---- dirty-epoch incremental reuse ----------------------------------------

TEST(SummaryDiff, EpochBumpsOnSummaryRelevantMutations) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  rm::Process& proc = cluster.process(p1);

  std::uint64_t before = proc.mutation_epoch();
  const ObjectId a = cluster.new_object(p1);
  EXPECT_GT(proc.mutation_epoch(), before) << "create_object must bump";

  before = proc.mutation_epoch();
  cluster.add_root(p1, a);
  EXPECT_GT(proc.mutation_epoch(), before) << "add_root must bump";

  before = proc.mutation_epoch();
  cluster.propagate(a, p1, p2);
  EXPECT_GT(proc.mutation_epoch(), before) << "propagate must bump (UC)";

  const std::uint64_t remote_before = cluster.process(p2).mutation_epoch();
  cluster.run_until_quiescent();
  EXPECT_GT(cluster.process(p2).mutation_epoch(), remote_before)
      << "delivered propagation must bump the receiver";

  // Steps with no deliveries and no expiring roots leave epochs alone.
  before = proc.mutation_epoch();
  cluster.step();
  cluster.step();
  EXPECT_EQ(proc.mutation_epoch(), before);
}

TEST(SummaryDiff, SnapshotAllReusesQuiescentSummaries) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();

  cluster.snapshot_all();
  const std::uint64_t reused0 = cluster.metric_total("cycle.summarize_reused");
  const auto dirty0 =
      cluster.network().metrics().gauge_value("cycle.summary_dirty_fraction");
  EXPECT_EQ(dirty0, 100u) << "first snapshot round summarizes everything";

  // Nothing changed: the second round must reuse both summaries verbatim.
  cluster.snapshot_all();
  EXPECT_EQ(cluster.metric_total("cycle.summarize_reused"), reused0 + 2);
  EXPECT_EQ(
      cluster.network().metrics().gauge_value("cycle.summary_dirty_fraction"),
      0u);
  EXPECT_EQ(cluster.detector(p1).summary(), summarize(cluster.process(p1)))
      << "a reused summary must equal what a fresh summarization would give";

  // Mutating one process re-summarizes exactly that one.
  cluster.remove_root(p1, a);
  cluster.snapshot_all();
  EXPECT_EQ(cluster.metric_total("cycle.summarize_reused"), reused0 + 3);
  EXPECT_EQ(
      cluster.network().metrics().gauge_value("cycle.summary_dirty_fraction"),
      50u);
  EXPECT_FALSE(cluster.detector(p1).summary().replicas.at(a).local_reach);
}

TEST(SummaryDiff, SnapshotRoundTripKeepsEpochAndAnchorIndex) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();

  const ProcessSummary s = summarize(cluster.process(p2));
  const auto decoded = decode_summary(encode_summary(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, s);
  EXPECT_EQ(decoded->mutation_epoch, s.mutation_epoch);
  // The anchor index is derived state but must come back usable.
  EXPECT_EQ(decoded->scions_anchored_at(a).size(),
            s.scions_anchored_at(a).size());
}

}  // namespace
}  // namespace rgc::gc
