// Seeded random mutator/coherence histories for the differential suites
// (summary_diff_test, lgc_reuse_test): every operation the model allows,
// drawn with guards so each pick is legal, interleaved with message
// delivery and collections.
#pragma once

#include <functional>
#include <iterator>
#include <random>
#include <vector>

#include "core/cluster.h"
#include "workload/figures.h"

namespace rgc::test {

/// Optional callbacks into a history.  `before_op` runs ahead of every
/// operation (a FaultPlanRunner::poll, say); `before_collect` and
/// `after_collect` bracket each collect() / collect_all() the history runs.
struct HistoryHooks {
  std::function<void()> before_op;
  std::function<void()> before_collect;
  std::function<void()> after_collect;
};

/// Drives `operations` random operations against the live processes of
/// `cluster`.  The history tracks only the object-id pool; legality is
/// checked against live process state, so crashes and restarts fired from
/// `hooks.before_op` are tolerated (dead processes are never picked, and no
/// courier-built reference is attempted across a partition).
inline void drive_random_history(core::Cluster& cluster, std::uint32_t seed,
                                 int operations,
                                 const HistoryHooks& hooks = {}) {
  std::mt19937 rng{seed};
  std::vector<ObjectId> pool;

  // A uniformly random element of `xs`, or kNoObject when empty.
  const auto pick = [&](const std::vector<ObjectId>& xs) {
    return xs.empty() ? kNoObject : xs[rng() % xs.size()];
  };
  const auto local_objects = [&](ProcessId p) {
    std::vector<ObjectId> out;
    for (ObjectId obj : pool) {
      if (cluster.process(p).heap().contains(obj)) out.push_back(obj);
    }
    return out;
  };
  const auto collect = [&](auto&& run) {
    if (hooks.before_collect) hooks.before_collect();
    run();
    if (hooks.after_collect) hooks.after_collect();
  };

  for (int op = 0; op < operations; ++op) {
    if (hooks.before_op) hooks.before_op();
    const std::vector<ProcessId> pids = cluster.process_ids();
    const auto pick_pid = [&] { return pids[rng() % pids.size()]; };
    const ProcessId p = pick_pid();
    const rm::Process& proc = cluster.process(p);
    switch (rng() % 12) {
      case 0:
        pool.push_back(cluster.new_object(p));
        break;
      case 1: {  // root anything resolvable (replica or stubbed remote)
        std::vector<ObjectId> known;
        for (ObjectId obj : pool) {
          if (proc.knows(obj)) known.push_back(obj);
        }
        if (const ObjectId obj = pick(known); obj != kNoObject) {
          cluster.add_root(p, obj);
        }
        break;
      }
      case 2: {
        const auto& roots = proc.heap().roots();
        if (!roots.empty()) {
          auto it = roots.begin();
          std::advance(it, rng() % roots.size());
          cluster.remove_root(p, *it);
        }
        break;
      }
      case 3: {  // local or stub-resolved reference assignment
        const ObjectId from = pick(local_objects(p));
        if (from == kNoObject) break;
        std::vector<ObjectId> known;
        for (ObjectId obj : pool) {
          if (proc.knows(obj)) known.push_back(obj);
        }
        if (const ObjectId to = pick(known); to != kNoObject) {
          cluster.add_ref(p, from, to);
        }
        break;
      }
      case 4: {
        const ObjectId from = pick(local_objects(p));
        if (from == kNoObject) break;
        const rm::Object* obj = proc.heap().find(from);
        if (obj == nullptr || obj->refs.empty()) break;
        cluster.remove_ref(p, from, obj->refs[rng() % obj->refs.size()].target);
        break;
      }
      case 5: {  // replicate onto a random other process
        if (pids.size() < 2) break;
        const ObjectId obj = pick(local_objects(p));
        if (obj == kNoObject) break;
        ProcessId to = pick_pid();
        if (to == p) break;
        cluster.propagate(obj, p, to);
        break;
      }
      case 6: {  // courier-built remote reference
        if (pids.size() < 2 || cluster.partitioned()) break;
        const ProcessId q = pick_pid();
        if (q == p) break;
        const ObjectId from = pick(local_objects(p));
        const ObjectId to = pick(local_objects(q));
        if (from == kNoObject || to == kNoObject) break;
        pool.push_back(workload::make_remote_ref(cluster, p, from, q, to));
        break;
      }
      case 7: {  // invoke through a random stub (IC/SSP traffic)
        std::vector<rm::StubKey> keys;
        for (const auto& [key, stub] : proc.stubs()) keys.push_back(key);
        if (!keys.empty()) {
          cluster.invoke(p, keys[rng() % keys.size()].target);
        }
        break;
      }
      case 8:
        cluster.step();
        break;
      case 9:
        cluster.run_until_quiescent();
        break;
      case 10:
        collect([&] { cluster.collect(p); });
        break;
      default:
        collect([&] { cluster.collect_all(); });
        break;
    }
  }
  cluster.run_until_quiescent();
}

}  // namespace rgc::test
