// Per-cycle cost ledger tests (obs/ledger.h): the critical-path
// decomposition identity on jittered mesh runs, byte-identical JSONL across
// worker-pool widths and across event-skip vs per-step schedules, the
// explain() drill-down, report/Prometheus surfacing, and the allocation
// bounds (completed ring overwrite, live-slot eviction).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/report.h"
#include "gc/cycle/cdm.h"
#include "obs/ledger.h"
#include "obs/prom.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc {
namespace {

using obs::Ledger;
using obs::LedgerConfig;
using obs::LedgerEntry;
using obs::LedgerHop;

core::ClusterConfig jittered_config(std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.net.seed = seed;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 3;  // jitter puts real queue-wait on the hops
  return cfg;
}

/// Builds the §5.2 mesh, proves + reclaims its spanning cycle, and leaves
/// the cluster quiescent with at least one completed ledger entry.
void run_mesh_gc(core::Cluster& cluster, std::size_t processes = 4,
                 std::size_t deps = 8) {
  workload::build_mesh(cluster, {processes, deps, /*extra_replicas=*/0});
  cluster.run_until_quiescent();
  cluster.run_full_gc();
  cluster.run_until_quiescent();
  cluster.collect_all();
  cluster.run_until_quiescent();
}

std::string ledger_jsonl(const core::Cluster& cluster) {
  std::ostringstream os;
  cluster.ledger()->write_jsonl(os);
  return os.str();
}

// ---- The decomposition identity --------------------------------------------

TEST(LedgerTest, DecompositionIdentityHoldsOnJitteredMeshes) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    core::Cluster cluster{jittered_config(seed)};
    run_mesh_gc(cluster);
    const Ledger* ledger = cluster.ledger();
    ASSERT_NE(ledger, nullptr);
    ASSERT_GT(ledger->completed(), 0u) << "seed " << seed;

    for (const LedgerEntry* e : ledger->entries()) {
      ASSERT_TRUE(e->complete);
      // e2e = detect + cut + sweep.
      EXPECT_EQ(e->e2e_steps, e->detect_steps + e->cut_wait_steps +
                                  e->cut_transit_steps + e->sweep_wait_steps)
          << "seed " << seed << " detection " << e->detection_id;
      // detect = sum over critical hops of (digest + wait + transit), and
      // the per-entry totals are exactly the per-hop sums.
      std::uint64_t digest = 0;
      std::uint64_t wait = 0;
      std::uint64_t transit = 0;
      for (const LedgerHop& hop : e->path) {
        digest += hop.digest_steps;
        wait += hop.wait_steps;
        transit += hop.transit_steps;
        EXPECT_EQ(hop.deliver_step - hop.sent_step,
                  hop.wait_steps + hop.transit_steps);
      }
      EXPECT_EQ(e->digest_steps, digest);
      EXPECT_EQ(e->wait_steps, wait);
      EXPECT_EQ(e->transit_steps, transit);
      EXPECT_EQ(e->detect_steps, digest + wait + transit)
          << "seed " << seed << " detection " << e->detection_id;
      // The chain is causal: contiguous in time, ending at the verdict.
      if (!e->path.empty()) {
        EXPECT_EQ(e->path.front().sent_step - e->path.front().digest_steps,
                  e->started_step);
        EXPECT_EQ(e->path.back().deliver_step, e->detected_step);
      }
      EXPECT_GE(e->reclaimed_step, e->detected_step);
      EXPECT_EQ(e->e2e_steps, e->reclaimed_step - e->started_step);
    }
  }
}

TEST(LedgerTest, MeshRunAttributesCutAndTraffic) {
  core::Cluster cluster{jittered_config(5)};
  run_mesh_gc(cluster);
  const Ledger* ledger = cluster.ledger();
  const auto top = ledger->slowest(1);
  ASSERT_EQ(top.size(), 1u);
  const LedgerEntry* e = top[0];
  EXPECT_GT(e->cdm_msgs, 0u);
  EXPECT_GT(e->cdm_weight, e->cdm_msgs);  // CDMs carry sets, weight > count
  EXPECT_GE(e->cut_msgs, 1u);
  EXPECT_GE(e->scions_cut + e->props_cut, 1u);
  // The whole cut fan-out is charged to its detection: with one proof for
  // the mesh, that entry accounts for every link cut in the run.
  ASSERT_EQ(cluster.cycles_found().size(), 1u);
  EXPECT_EQ(e->scions_cut + e->props_cut,
            cluster.metric_total("cycle.scions_cut") +
                cluster.metric_total("cycle.props_cut"));
  EXPECT_GE(e->members_reclaimed, 1u);
  EXPECT_GT(e->hops, 0u);
  EXPECT_FALSE(e->dominant().empty());
  EXPECT_FALSE(e->path.empty());
}

TEST(LedgerTest, EntryWaitsForTheWholeCutFanOut) {
  // A daemon-like eager collector can free the candidate before the
  // verdict's other Cuts land; the entry must stay open until they do, so
  // every link of the fan-out is charged to it.
  core::ClusterConfig cfg;
  cfg.net.seed = 1;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 8;
  core::Cluster cluster{cfg};
  const workload::Figure2 f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(f.p1, f.x).has_value());
  bool open_at_reclaim = false;
  for (int t = 0; t < 400 && cluster.process(f.p1).heap().contains(f.x); ++t) {
    cluster.step();
    if (cluster.cycles_found().empty()) continue;
    cluster.collect(f.p1);
    if (!cluster.process(f.p1).heap().contains(f.x)) {
      const LedgerEntry* e =
          cluster.ledger()->find(cluster.cycles_found().front().detection_id);
      open_at_reclaim = e != nullptr && !e->complete;
    }
  }
  ASSERT_FALSE(cluster.process(f.p1).heap().contains(f.x));
  EXPECT_TRUE(open_at_reclaim) << "Cuts were still in flight at the reclaim";
  cluster.run_until_quiescent();
  const LedgerEntry* e =
      cluster.ledger()->find(cluster.cycles_found().front().detection_id);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete);
  EXPECT_EQ(e->scions_cut + e->props_cut, 4u);
  EXPECT_EQ(e->scions_cut + e->props_cut,
            cluster.metric_total("cycle.scions_cut") +
                cluster.metric_total("cycle.props_cut"));
}

// ---- Determinism -----------------------------------------------------------

TEST(LedgerTest, JsonlByteIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    core::ClusterConfig cfg = jittered_config(1234);
    cfg.threads = threads;
    core::Cluster cluster{cfg};
    run_mesh_gc(cluster, /*processes=*/6, /*deps=*/8);
    return ledger_jsonl(cluster);
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel)
      << "ledger contents must not depend on ClusterConfig::threads";
}

TEST(LedgerTest, JsonlByteIdenticalAcrossSchedules) {
  // Event-skip (Cluster::advance / run_until_quiescent) promises a schedule
  // observably identical to per-step execution; the ledger reads virtual
  // steps off every hop, so byte-identical JSONL is a direct witness.
  const auto drive = [](bool event_skip) {
    core::Cluster cluster{jittered_config(99)};
    // Figure 2: one replicated garbage cycle across four processes, fully
    // reclaimable from a single detection + cut (figures_test proves this).
    const workload::Figure2 fig = workload::build_figure2(cluster);
    const auto drain = [&] {
      if (event_skip) {
        cluster.run_until_quiescent();
      } else {
        std::uint64_t steps = 0;
        while (!cluster.network().idle() && steps++ < 100000) cluster.step();
      }
    };
    drain();
    cluster.snapshot_all();
    cluster.detect(fig.p1, fig.x);
    drain();
    // The cut deletes X@P1's scion; acyclic rounds cascade the reclaim
    // through the remaining replicas back to the candidate.
    for (int round = 0; round < 8; ++round) {
      cluster.collect_all();
      drain();
    }
    return ledger_jsonl(cluster);
  };
  const std::string per_step = drive(false);
  const std::string skipped = drive(true);
  ASSERT_FALSE(per_step.empty());
  EXPECT_EQ(per_step, skipped)
      << "event-skip scheduling changed the ledger's observed lifecycle";
}

// ---- Drill-down & surfacing ------------------------------------------------

TEST(LedgerTest, ExplainPrintsTheCriticalPath) {
  core::Cluster cluster{jittered_config(3)};
  run_mesh_gc(cluster);
  const Ledger* ledger = cluster.ledger();
  const auto top = ledger->slowest(1);
  ASSERT_FALSE(top.empty());

  // id 0 explains the slowest completed cycle.
  const std::string text = ledger->explain(0);
  EXPECT_NE(text.find("cycle " + std::to_string(top[0]->detection_id)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("e2e"), std::string::npos);
  EXPECT_NE(text.find("dominant:"), std::string::npos);
  // Each critical hop renders one line.
  std::size_t hop_lines = 0;
  for (std::size_t at = text.find("digest "); at != std::string::npos;
       at = text.find("digest ", at + 1)) {
    ++hop_lines;
  }
  EXPECT_GE(hop_lines, top[0]->path.size());

  EXPECT_NE(ledger->explain(0xdead).find("unknown detection id"),
            std::string::npos);
  EXPECT_EQ(ledger->explain(top[0]->detection_id), text)
      << "explicit id of the slowest cycle must match explain(0)";
}

TEST(LedgerTest, ReportAndPrometheusSurfaceTheLedger) {
  core::Cluster cluster{jittered_config(2)};
  run_mesh_gc(cluster);

  const core::ClusterReport report = core::make_report(cluster);
  ASSERT_FALSE(report.slowest_cycles.empty());
  EXPECT_TRUE(report.slowest_cycles.front().complete);
  // Slowest first.
  for (std::size_t i = 1; i < report.slowest_cycles.size(); ++i) {
    EXPECT_GE(report.slowest_cycles[i - 1].e2e_steps,
              report.slowest_cycles[i].e2e_steps);
  }
  bool counter_present = false;
  for (const auto& [name, value] : report.gc_counters) {
    if (name == "ledger.cycles_reclaimed") {
      counter_present = true;
      EXPECT_GT(value, 0u);
    }
  }
  EXPECT_TRUE(counter_present);
  EXPECT_NE(report.to_string().find("slowest cycles (ledger)"),
            std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"slowest_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"detection_id\""), std::string::npos);

  std::ostringstream prom;
  obs::write_prometheus(cluster, prom);
  EXPECT_NE(prom.str().find("rgc_ledger_cycles_reclaimed"),
            std::string::npos);
  EXPECT_NE(prom.str().find("rgc_ledger_e2e_steps"), std::string::npos);
}

TEST(LedgerTest, DisabledWhenCapacityZero) {
  core::ClusterConfig cfg = jittered_config(1);
  cfg.ledger_capacity = 0;
  core::Cluster cluster{cfg};
  EXPECT_EQ(cluster.ledger(), nullptr);
  run_mesh_gc(cluster);  // still collects fine without a ledger
  EXPECT_TRUE(core::make_report(cluster).slowest_cycles.empty());
}

// ---- Allocation bounds (direct unit tests) ---------------------------------

gc::Cdm make_cdm(std::uint64_t id, std::uint64_t candidate,
                 std::uint64_t started) {
  gc::Cdm cdm;
  cdm.detection_id = id;
  cdm.candidate = Replica{ObjectId{candidate}, ProcessId{0}};
  cdm.started_step = started;
  return cdm;
}

TEST(LedgerTest, CompletedRingOverwritesOldest) {
  LedgerConfig cfg;
  cfg.capacity = 2;
  Ledger ledger{cfg};
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ledger.cycle_proven(ProcessId{0}, make_cdm(i, 100 + i, 10 * i), 0);
    ledger.object_reclaimed(ProcessId{0}, ObjectId{100 + i}, 10 * i + 5);
  }
  EXPECT_EQ(ledger.completed(), 3u);
  EXPECT_EQ(ledger.metrics().get("ledger.entries_overwritten"), 1u);
  const auto kept = ledger.entries();
  ASSERT_EQ(kept.size(), 2u);
  // Oldest-first ring order: detection 1 was overwritten, 2 and 3 remain.
  EXPECT_EQ(kept[0]->detection_id, 2u);
  EXPECT_EQ(kept[1]->detection_id, 3u);
  EXPECT_EQ(ledger.find(1), nullptr);
}

TEST(LedgerTest, LiveSlotsEvictOldestWhenFull) {
  LedgerConfig cfg;
  cfg.max_live = 2;
  Ledger ledger{cfg};
  // Three concurrent (never reclaimed) detections through two slots.
  ledger.cycle_proven(ProcessId{0}, make_cdm(1, 101, 10), 0);
  ledger.cycle_proven(ProcessId{0}, make_cdm(2, 102, 20), 0);
  EXPECT_EQ(ledger.live(), 2u);
  ledger.cycle_proven(ProcessId{0}, make_cdm(3, 103, 30), 0);
  EXPECT_EQ(ledger.live(), 2u);
  EXPECT_EQ(ledger.metrics().get("ledger.evictions"), 1u);
  EXPECT_EQ(ledger.find(1), nullptr);  // the oldest track was evicted
  ASSERT_NE(ledger.find(3), nullptr);
  // The evicted detection's member no longer completes anything.
  ledger.object_reclaimed(ProcessId{0}, ObjectId{101}, 99);
  EXPECT_EQ(ledger.completed(), 0u);
}

TEST(LedgerTest, DuplicateVerdictsAreCountedOnce) {
  Ledger ledger;
  const gc::Cdm cdm = make_cdm(7, 107, 10);
  ledger.cycle_proven(ProcessId{0}, cdm, 0);
  ledger.cycle_proven(ProcessId{1}, cdm, 0);  // racing duplicate verdict
  EXPECT_EQ(ledger.metrics().get("ledger.cycles_proven"), 1u);
  EXPECT_EQ(ledger.metrics().get("ledger.duplicate_verdicts"), 1u);
  ASSERT_NE(ledger.find(7), nullptr);
  EXPECT_EQ(ledger.find(7)->verdict_process, ProcessId{0});  // first wins
}

TEST(LedgerTest, ZeroHopLocalDetectionCompletes) {
  Ledger ledger;
  ledger.cycle_proven(ProcessId{2}, make_cdm(9, 109, 40), /*unlinked=*/35);
  ledger.object_reclaimed(ProcessId{0}, ObjectId{109}, 44);
  const LedgerEntry* e = ledger.find(9);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete);
  EXPECT_TRUE(e->path.empty());
  EXPECT_EQ(e->detect_steps, 0u);
  EXPECT_EQ(e->unlinked_step, 35u);
  // No cut observed: the whole post-verdict stretch is sweep wait.
  EXPECT_EQ(e->sweep_wait_steps, 4u);
  EXPECT_EQ(e->e2e_steps, 4u);
}

}  // namespace
}  // namespace rgc
