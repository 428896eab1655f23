// Differential tests for the CDM algebra: Cdm's sorted edge set, early-exit
// closure walk (with its carried verdict cache) and binary-searched race
// barrier must give exactly the answers of the straightforward
// implementation they replaced, kept below as an executable spec
// (SpecCdm).  Compared on seeded random require/observe/target sequences
// and on every CDM that crosses the wire while the mesh and figure
// topologies are collected: verdicts, closures, unresolved sets, race
// aborts and CdmMsg::weight().
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <variant>
#include <vector>

#include "core/cluster.h"
#include "gc/cycle/cdm.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc::gc {
namespace {

using core::Cluster;

// ---- executable spec ---------------------------------------------------------

/// The CDM algebra as first written: insertion-ordered edge list with a
/// linear dedup, closure recomputed by rescanning every edge per element,
/// and a linear race-barrier scan.  Slow and obviously right.
struct SpecCdm {
  Replica candidate;
  util::FlatSet<Element> prop_deps;
  util::FlatSet<Element> ref_deps;
  util::FlatSet<Element> targets;
  std::vector<std::pair<Element, Element>> dep_edges;
  std::vector<Replica> pending_refs;
  std::vector<Observation> observations;

  bool observe(Observation obs) {
    for (const Observation& prev : observations) {
      if (prev.link == obs.link && prev.counter != obs.counter) return false;
    }
    observations.push_back(std::move(obs));
    return true;
  }

  void require(const Element& from, const Element& on, bool prop) {
    (prop ? prop_deps : ref_deps).insert(on);
    const std::pair<Element, Element> edge{from, on};
    if (std::find(dep_edges.begin(), dep_edges.end(), edge) == dep_edges.end()) {
      dep_edges.push_back(edge);
    }
  }

  [[nodiscard]] util::FlatSet<Element> required_closure() const {
    util::FlatSet<Element> closure;
    std::vector<Element> work{Element::make(candidate)};
    closure.insert(work.front());
    while (!work.empty()) {
      const Element cur = work.back();
      work.pop_back();
      for (const auto& [from, on] : dep_edges) {
        if (from == cur && closure.insert(on)) work.push_back(on);
      }
    }
    return closure;
  }

  [[nodiscard]] util::FlatSet<Element> unresolved() const {
    return required_closure().difference(targets);
  }

  [[nodiscard]] bool cycle_complete() const { return unresolved().empty(); }

  [[nodiscard]] std::size_t weight() const {
    return 1 + prop_deps.size() + ref_deps.size() + targets.size() +
           observations.size() + pending_refs.size() + dep_edges.size();
  }
};

/// The spec's view of a live CDM's wire state.
SpecCdm spec_of(const Cdm& cdm) {
  SpecCdm s;
  s.candidate = cdm.candidate;
  s.prop_deps = cdm.prop_deps;
  s.ref_deps = cdm.ref_deps;
  s.targets = cdm.targets;
  s.dep_edges = cdm.dep_edges.items();
  s.pending_refs = cdm.pending_refs;
  s.observations = cdm.observations;
  return s;
}

std::size_t weight_of(const Cdm& cdm) {
  CdmMsg msg;
  msg.cdm = cdm;
  return msg.weight();
}

/// Observations as a multiset: the implementation keeps them sorted by
/// link, the spec in call order.
std::vector<std::pair<std::variant<RefLink, PropLink>, std::uint64_t>>
observation_multiset(const std::vector<Observation>& obs) {
  std::vector<std::pair<std::variant<RefLink, PropLink>, std::uint64_t>> out;
  out.reserve(obs.size());
  for (const Observation& o : obs) out.emplace_back(o.link, o.counter);
  std::sort(out.begin(), out.end());
  return out;
}

/// Every derived answer of `cdm` equals the spec's on the same state.
void expect_agrees(const Cdm& cdm, const SpecCdm& spec, const char* context) {
  ASSERT_EQ(cdm.required_closure(), spec.required_closure()) << context;
  ASSERT_EQ(cdm.unresolved(), spec.unresolved()) << context;
  ASSERT_EQ(cdm.cycle_complete(), spec.cycle_complete()) << context;
  ASSERT_EQ(weight_of(cdm), spec.weight()) << context;
  ASSERT_EQ(cdm.dep_edges.size(), spec.dep_edges.size()) << context;
  ASSERT_EQ(observation_multiset(cdm.observations),
            observation_multiset(spec.observations))
      << context;
}

// ---- seeded random sequences ------------------------------------------------

/// A small universe so that repeats, reconvergence, closed loops and
/// counter clashes all happen often.
struct Universe {
  std::mt19937 rng;

  std::uint32_t below(std::uint32_t n) { return rng() % n; }

  Replica replica() {
    return Replica{ObjectId{1 + below(5)}, ProcessId{1 + below(3)}};
  }
  RefLink ref_link() {
    return RefLink{ProcessId{1 + below(3)}, ObjectId{1 + below(5)},
                   ProcessId{1 + below(3)}};
  }
  Element element() {
    return below(3) == 0 ? Element::make(ref_link()) : Element::make(replica());
  }
  Observation observation() {
    const std::uint64_t counter = below(4) == 0 ? 1 : 0;
    if (below(2) == 0) return {ref_link(), counter};
    return {PropLink{ObjectId{1 + below(5)}, ProcessId{1 + below(3)},
                     ProcessId{1 + below(3)}},
            counter};
  }
};

struct Tally {
  int complete{0};
  int incomplete{0};
  int races{0};
};

void run_random_sequence(std::uint32_t seed, int ops, Tally& tally) {
  Universe u{std::mt19937{seed}};
  Cdm cdm;
  SpecCdm spec;
  cdm.candidate = spec.candidate = u.replica();
  cdm.ref_deps.insert(Element::make(cdm.candidate));
  spec.ref_deps.insert(Element::make(spec.candidate));

  for (int i = 0; i < ops; ++i) {
    switch (u.below(6)) {
      case 0:
      case 1: {
        // Bias `from` toward the candidate's closure so chains grow.
        const auto closure = spec.required_closure();
        const Element from = u.below(3) != 0
                                 ? closure.items()[u.below(closure.size())]
                                 : u.element();
        const Element on = u.element();
        const bool prop = u.below(2) == 0;
        cdm.require(from, on, prop);
        spec.require(from, on, prop);
        break;
      }
      case 2: {
        const Observation obs = u.observation();
        const bool accepted = cdm.observe(obs);
        ASSERT_EQ(accepted, spec.observe(obs)) << "seed " << seed << " op " << i;
        if (!accepted) ++tally.races;
        break;
      }
      case 3:
      case 4: {
        // Visit something open in the closure more often than not, so
        // loops actually close.
        const auto open = spec.unresolved();
        const Element e = !open.empty() && u.below(4) != 0
                              ? open.items()[u.below(open.size())]
                              : u.element();
        cdm.targets.insert(e);
        spec.targets.insert(e);
        break;
      }
      default: {
        // A fork: the track continues on a copy, as a branch or an extra
        // reference send would, carrying the verdict cache along.
        Cdm fork = cdm;
        cdm = std::move(fork);
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_agrees(cdm, spec, "random sequence"))
        << "seed " << seed << " op " << i;
    (spec.cycle_complete() ? tally.complete : tally.incomplete) += 1;
  }
}

TEST(CdmDiff, RandomSequencesMatchTheSpec) {
  Tally tally;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    ASSERT_NO_FATAL_FAILURE(run_random_sequence(seed, 120, tally));
  }
  // The sequences must exercise both verdicts and the race barrier, or
  // the comparison proves little.
  EXPECT_GT(tally.complete, 100);
  EXPECT_GT(tally.incomplete, 100);
  EXPECT_GT(tally.races, 20);
}

TEST(CdmDiff, VerdictCacheSurvivesGrowthAndCopies) {
  // A long chain resolved front to back: every step both answers must
  // agree, including after the cached open element gets visited.
  Cdm cdm;
  SpecCdm spec;
  cdm.candidate = spec.candidate = Replica{ObjectId{1}, ProcessId{1}};
  std::vector<Element> chain;
  for (std::uint32_t k = 0; k < 12; ++k) {
    chain.push_back(Element::make(Replica{ObjectId{1 + k}, ProcessId{1}}));
  }
  for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
    cdm.require(chain[k], chain[k + 1], /*prop=*/false);
    spec.require(chain[k], chain[k + 1], /*prop=*/false);
  }
  for (const Element& e : chain) {
    ASSERT_NO_FATAL_FAILURE(expect_agrees(cdm, spec, "chain"));
    EXPECT_FALSE(cdm.cycle_complete());
    const Cdm copy = cdm;
    EXPECT_FALSE(copy.cycle_complete());
    cdm.targets.insert(e);
    spec.targets.insert(e);
  }
  EXPECT_TRUE(cdm.cycle_complete());
  EXPECT_TRUE(spec.cycle_complete());
  // A new requirement reopens the closure.
  const Element late = Element::make(Replica{ObjectId{99}, ProcessId{2}});
  cdm.require(chain.back(), late, /*prop=*/true);
  spec.require(chain.back(), late, /*prop=*/true);
  ASSERT_NO_FATAL_FAILURE(expect_agrees(cdm, spec, "reopened"));
  EXPECT_FALSE(cdm.cycle_complete());
}

// ---- detections over real topologies ----------------------------------------

/// Collects `cluster` to completion while a tap checks every CDM on the
/// wire against the spec: same derived answers on the carried state, and
/// the same race-barrier verdicts when its observations are replayed.
/// Returns the number of CDMs checked.
std::size_t check_wire_cdms(Cluster& cluster) {
  std::size_t checked = 0;
  cluster.network().set_tap([&checked](const net::Envelope& env) {
    const auto* m = dynamic_cast<const CdmMsg*>(env.msg);
    if (m == nullptr) return;
    ++checked;
    const Cdm& cdm = m->cdm;
    const SpecCdm spec = spec_of(cdm);
    ASSERT_NO_FATAL_FAILURE(expect_agrees(cdm, spec, "wire CDM"));
    ASSERT_EQ(m->weight(), spec.weight());

    // Rebuild the requirements and observations from scratch, in a
    // shuffled order, through both implementations.
    std::mt19937 rng{static_cast<std::uint32_t>(checked)};
    std::vector<std::pair<Element, Element>> edges = cdm.dep_edges.items();
    std::shuffle(edges.begin(), edges.end(), rng);
    Cdm fresh;
    SpecCdm fresh_spec;
    fresh.candidate = fresh_spec.candidate = cdm.candidate;
    fresh.targets = fresh_spec.targets = cdm.targets;
    for (const auto& [from, on] : edges) {
      const bool prop = cdm.prop_deps.contains(on);
      fresh.require(from, on, prop);
      fresh_spec.require(from, on, prop);
    }
    std::vector<Observation> obs = cdm.observations;
    std::shuffle(obs.begin(), obs.end(), rng);
    for (const Observation& o : obs) {
      ASSERT_TRUE(fresh.observe(o));
      ASSERT_TRUE(fresh_spec.observe(o));
    }
    ASSERT_NO_FATAL_FAILURE(expect_agrees(fresh, fresh_spec, "rebuilt CDM"));
    ASSERT_EQ(fresh.cycle_complete(), cdm.cycle_complete());
    if (!obs.empty()) {
      // A counter that moved behind the detector's back: both abort.
      Observation clash = obs.front();
      ++clash.counter;
      EXPECT_FALSE(fresh.observe(clash));
      EXPECT_FALSE(fresh_spec.observe(clash));
    }
  });
  cluster.run_full_gc();
  cluster.network().set_tap(nullptr);
  for (const Cdm& verdict : cluster.cycles_found()) {
    EXPECT_TRUE(verdict.cycle_complete());
    EXPECT_TRUE(spec_of(verdict).cycle_complete());
  }
  return checked;
}

TEST(CdmDiff, MeshDetectionsMatchTheSpec) {
  Cluster cluster;
  workload::build_mesh(cluster,
                       {.processes = 5, .dependencies = 7, .extra_replicas = 2});
  cluster.run_until_quiescent();
  EXPECT_GT(check_wire_cdms(cluster), 100u);
  EXPECT_FALSE(cluster.cycles_found().empty());
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST(CdmDiff, FigureDetectionsMatchTheSpec) {
  {
    Cluster cluster;
    workload::build_figure2(cluster);
    EXPECT_GT(check_wire_cdms(cluster), 0u);
    EXPECT_FALSE(cluster.cycles_found().empty());
  }
  {
    Cluster cluster;
    workload::build_figure3(cluster);
    EXPECT_GT(check_wire_cdms(cluster), 0u);
    EXPECT_FALSE(cluster.cycles_found().empty());
  }
  {
    Cluster cluster;
    // Figure 2's cycle held live by a root: no verdict may appear.
    workload::build_figure4(cluster);
    check_wire_cdms(cluster);
    EXPECT_TRUE(cluster.cycles_found().empty());
  }
}

}  // namespace
}  // namespace rgc::gc
