// Targeted tests for the protocol's staleness guards — the machinery
// §2.2.4's causal-ordering remarks imply but leave implicit, which the
// unreliable transport makes load-bearing.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "gc/adgc/adgc.h"
#include "gc/cycle/detector.h"
#include "workload/figures.h"

namespace rgc::gc {
namespace {

using core::Cluster;

TEST(ProtocolGuards, StaleNewSetStubsEpochIsIgnored) {
  // Hand-deliver an old (empty) stub set *after* a newer one: the epoch
  // guard must reject it, keeping the scion alive.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  const ObjectId b = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.add_ref(p1, a, b);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  cluster.add_root(p2, a);
  cluster.collect(p2);  // current set (epoch 1), lists b
  cluster.run_until_quiescent();
  ASSERT_TRUE(cluster.process(p1).scions().contains(rm::ScionKey{p2, b}));

  NewSetStubsMsg stale;
  stale.epoch = 0;  // older than anything delivered
  stale.horizon = cluster.process(p2).delivered_prop_seq(p1);
  const net::Envelope env{p2, p1, 999, 0, &stale};
  Adgc::on_new_set_stubs(cluster.process(p1), env, stale);
  EXPECT_TRUE(cluster.process(p1).scions().contains(rm::ScionKey{p2, b}))
      << "a stale empty set must not retract a current scion";
  EXPECT_EQ(cluster.process(p1).metrics().get("adgc.newsetstubs_stale"), 1u);
}

TEST(ProtocolGuards, FreshEpochWithoutAnchorRetires) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  const ObjectId b = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.add_ref(p1, a, b);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();

  NewSetStubsMsg fresh;
  fresh.epoch = 42;
  fresh.horizon = cluster.process(p2).delivered_prop_seq(p1);
  const net::Envelope env{p2, p1, 999, 0, &fresh};
  Adgc::on_new_set_stubs(cluster.process(p1), env, fresh);
  EXPECT_FALSE(cluster.process(p1).scions().contains(rm::ScionKey{p2, b}));
}

TEST(ProtocolGuards, HorizonShieldsNewerScionEvenAtFreshEpoch) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  const ObjectId b = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.add_ref(p1, a, b);
  cluster.propagate(a, p1, p2);  // in flight: scion exists, not delivered
  ASSERT_TRUE(cluster.process(p1).scions().contains(rm::ScionKey{p2, b}));

  NewSetStubsMsg msg;
  msg.epoch = 42;
  msg.horizon = 0;  // computed before the propagate was delivered
  const net::Envelope env{p2, p1, 999, 0, &msg};
  Adgc::on_new_set_stubs(cluster.process(p1), env, msg);
  EXPECT_TRUE(cluster.process(p1).scions().contains(rm::ScionKey{p2, b}))
      << "created_seq beyond the horizon must shield the scion";
}

TEST(ProtocolGuards, UnreachableWithWrongUcIsDiscarded) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();

  UnreachableMsg report;
  report.object = a;
  report.uc = 99;  // does not match the live link UC (1)
  const net::Envelope env{p2, p1, 999, 0, &report};
  Adgc::on_unreachable(cluster.process(p1), env, report);
  EXPECT_FALSE(cluster.process(p1).find_out_prop(a, p2)->rec_umess);
  EXPECT_EQ(cluster.process(p1).metrics().get("adgc.unreachable_stale"), 1u);
}

TEST(ProtocolGuards, ReclaimForUnknownLinkIsANoOp) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  cluster.new_object(p1);

  ReclaimMsg reclaim;
  reclaim.object = ObjectId{12345};
  const net::Envelope env{p2, p1, 1, 0, &reclaim};
  EXPECT_NO_THROW(Adgc::on_reclaim(cluster.process(p1), env, reclaim));
}

TEST(ProtocolGuards, CutForVanishedScionIsANoOp) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  cluster.new_object(p1);
  CutMsg cut;
  cut.candidate = ObjectId{7};
  cut.scion_cuts.emplace_back(rm::ScionKey{p2, ObjectId{7}}, 0);
  cut.prop_cuts.push_back(PropCut{ObjectId{7}, p2, 0});
  const net::Envelope env{p2, p1, 1, 0, &cut};
  EXPECT_NO_THROW(cluster.detector(p1).on_cut(env, cut));
  EXPECT_EQ(cluster.process(p1).metrics().get("cycle.scions_cut"), 0u);
}

TEST(ProtocolGuards, PropCycleCutCarriesPropLinks) {
  // A pure propagation cycle's verdict must cut the candidate's inProp
  // link (there are no scions to cut), and the PropCut companion clears
  // the parent's outProp.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  cluster.propagate(a, p2, p1);
  cluster.run_until_quiescent();

  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(p1, a).has_value());
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.cycles_found().size(), 1u);

  const Cdm& verdict = cluster.cycles_found().front();
  const auto cuts = CycleDetector::make_cuts(verdict, verdict.required_closure());
  ASSERT_EQ(cuts.size(), 2u) << "each replica's inProp is cut where it lives";
  for (const auto& [child, parent] : {std::pair{p1, p2}, std::pair{p2, p1}}) {
    const CutMsg& cut = cuts.at(child);
    EXPECT_TRUE(cut.scion_cuts.empty());
    ASSERT_EQ(cut.prop_cuts.size(), 1u);
    EXPECT_EQ(cut.prop_cuts[0].object, a);
    EXPECT_EQ(cut.prop_cuts[0].parent, parent);
  }
  // The auto-cut already applied: the links are gone on both sides.
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.process(p1).find_in_prop(a, p2), nullptr);
  EXPECT_EQ(cluster.process(p2).find_out_prop(a, p1), nullptr);
  EXPECT_EQ(cluster.process(p2).find_in_prop(a, p1), nullptr);
  EXPECT_EQ(cluster.process(p1).find_out_prop(a, p2), nullptr);
}

}  // namespace
}  // namespace rgc::gc
