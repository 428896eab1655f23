// The three workloads.  Each pass builds its system from scratch (timed as
// set-up), runs a fixed, seed-determined sequence of episodes or requests
// through public library calls only, and checks the outcome against the
// omniscient Oracle.  Inputs depend on the pass's seed alone, and so does
// its whole execution in virtual time.
#include <algorithm>
#include <deque>
#include <exception>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cluster.h"
#include "core/oracle.h"
#include "graphdb/graphdb.h"
#include "harness.h"
#include "workload/figures.h"

namespace gcbench {
namespace {

using rgc::ObjectId;
using rgc::ProcessId;
using rgc::core::Cluster;
using rgc::core::Oracle;

double elapsed_s(Clock::time_point t0) { return us_between(t0, Clock::now()) / 1e6; }

/// Percentage of replicas the Oracle calls garbage: the space the store
/// spends on data nobody can reach.
double garbage_pct(const rgc::core::OracleReport& report) {
  if (report.replicas.empty()) return 0.0;
  std::size_t garbage = 0;
  for (const rgc::Replica& r : report.replicas) {
    if (!report.is_live(r.object)) ++garbage;
  }
  return 100.0 * static_cast<double>(garbage) / static_cast<double>(report.replicas.size());
}

void fail(PassResult& r, std::string what) {
  ++r.failed;
  if (r.errors.size() < 8) r.errors.push_back(std::move(what));
}

/// The final correctness gate shared by every pass.
void check_oracle(const Cluster& cluster, PassResult& r) {
  const rgc::core::OracleReport report = Oracle::analyze(cluster);
  if (!report.violations.empty()) fail(r, "oracle violation: " + report.violations.front());
  if (!Oracle::fully_collected(cluster, report)) fail(r, "garbage left after the final collection");
}

// ---- Batch workloads: a live heap plus one garbage structure per episode --

struct BatchSizes {
  std::size_t processes;
  std::size_t preload;        // live objects per process
  std::size_t roots;          // mutator roots per process
  std::size_t cross_links;    // live remote references per process
  std::size_t live_replicas;  // live objects propagated per process
  std::size_t warmup;         // untimed episodes inside set-up
  std::size_t episodes;       // measured episodes per pass
};

/// Live preload: per process a random forest under `roots` mutator roots
/// (each object hangs off an earlier one, a quarter get a second parent),
/// plus live remote references and live replicas between processes, so the
/// acyclic protocol and the summaries carry live stub/scion/prop structure.
void build_preload(Cluster& cluster, const std::vector<ProcessId>& procs,
                   const BatchSizes& sz, Rng& rng) {
  std::vector<std::vector<ObjectId>> objs(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    auto& mine = objs[p];
    mine.reserve(sz.preload);
    for (std::size_t i = 0; i < sz.preload; ++i) {
      mine.push_back(cluster.new_object(procs[p]));
      if (i < sz.roots) {
        cluster.add_root(procs[p], mine[i]);
        continue;
      }
      cluster.add_ref(procs[p], mine[rng.below(i)], mine[i]);
      if (rng.percent(25)) cluster.add_ref(procs[p], mine[rng.below(i)], mine[i]);
    }
  }
  const std::size_t n = procs.size();
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t i = 0; i < sz.cross_links; ++i) {
      const std::size_t q = (p + 1 + rng.below(n - 1)) % n;
      rgc::workload::make_remote_ref(cluster, procs[p], objs[p][rng.below(sz.preload)],
                                     procs[q], objs[q][rng.below(sz.preload)]);
    }
    // Replicas carry their object's references as stubs; objects from the
    // newer half have few children, so the stub count varies little by seed.
    for (std::size_t i = 0; i < sz.live_replicas; ++i) {
      const std::size_t q = (p + 1 + rng.below(n - 1)) % n;
      const std::size_t obj = sz.preload / 2 + rng.below(sz.preload - sz.preload / 2);
      cluster.propagate(objs[p][obj], procs[p], procs[q]);
    }
  }
  cluster.run_until_quiescent();
  cluster.run_full_gc();  // reclaims the construction couriers
}

/// Lays one episode's garbage and returns the virtual step of the unlink
/// that made it garbage.
using GarbageBuilder = std::uint64_t (*)(Cluster&, std::vector<ProcessId>, Rng&, bool smoke);

PassResult run_batch(const Params& params, PassMode mode, Tracer& tracer,
                     const BatchSizes& sz, GarbageBuilder build) {
  PassResult r;
  r.nodes_per_summarize = sz.processes;
  const auto t_setup = Clock::now();
  Cluster cluster(cluster_config(mode));
  std::vector<ProcessId> procs;
  for (std::size_t i = 0; i < sz.processes; ++i) procs.push_back(cluster.add_process());
  Rng preload_rng(derive(params.seed, 0));
  build_preload(cluster, procs, sz, preload_rng);
  r.input_digest = preload_rng.digest();
  const std::uint64_t preload_size = cluster.total_objects();

  auto episode = [&](std::uint64_t index, bool measured) {
    Rng rng(derive(params.seed, 1 + index));
    const std::int64_t ep = tracer.open("episode", index, Tracer::kOff);
    const std::int64_t sb = tracer.open("build_garbage", index, ep);
    const std::uint64_t unlinked = build(cluster, procs, rng, params.smoke);
    tracer.close(sb);
    if (measured) r.input_digest = derive(r.input_digest, rng.digest());
    const std::uint64_t before = cluster.total_objects();
    const Probe p0 = tracer.enabled() ? Probe::take(cluster) : Probe{};
    const std::int64_t sg = tracer.open("run_full_gc", index, ep);
    const auto tg0 = Clock::now();
    const Cluster::FullGcStats stats = cluster.run_full_gc();
    const auto tg1 = Clock::now();
    tracer.close(sg);
    const std::uint64_t after = cluster.total_objects();
    if (tracer.enabled()) {
      const Probe d = Probe::take(cluster) - p0;
      tracer.arg(sg, "rounds", static_cast<double>(stats.rounds));
      tracer.arg(sg, "reclaimed", static_cast<double>(before - after));
      tracer.arg(sg, "detections", static_cast<double>(stats.detections_started));
      tracer.arg(sg, "cycles", static_cast<double>(stats.cycles_found));
      tracer.arg(sg, "lgc.mark_us", d[Probe::kMarkUs]);
      tracer.arg(sg, "lgc.apply_us", d[Probe::kApplyUs]);
      tracer.arg(sg, "summarize_us", d[Probe::kLgcSummarizeUs] + d[Probe::kCycleSummarizeUs]);
      tracer.arg(sg, "adgc.digest_us", d[Probe::kDigestUs]);
      tracer.arg(sg, "cycle.detect_us", d[Probe::kDetectUs]);
      tracer.arg(sg, "cycle.install_us", d[Probe::kInstallUs]);
      tracer.arg(sg, "net.gc_msgs", d[Probe::kGcMsgs]);
      tracer.arg(sg, "net.gc_bytes", d[Probe::kGcBytes]);
      tracer.arg(sg, "ledger.e2e_steps_sum", d[Probe::kE2eSum]);
    }
    tracer.close(ep);
    if (!measured) return;
    ++r.attempted;
    if (after != preload_size) {
      fail(r, "episode " + std::to_string(index) + ": " + std::to_string(after) +
                  " replicas left, preload is " + std::to_string(preload_size));
    }
    r.gc_ms.push_back(us_between(tg0, tg1) / 1000.0);
    r.gc_steps.push_back(cluster.now() - unlinked);
    ++r.gc_calls;
    r.rounds += stats.rounds;
    r.detections += stats.detections_started;
  };

  const bool tracing = tracer.enabled();
  tracer.set_enabled(false);
  for (std::size_t w = 0; w < sz.warmup; ++w) episode(1'000'000 + w, false);
  tracer.set_enabled(tracing);
  r.setup_s = elapsed_s(t_setup);

  const Probe before = Probe::take(cluster);
  for (std::size_t k = 0; k < sz.episodes; ++k) {
    try {
      episode(k, true);
    } catch (const std::exception& e) {
      ++r.attempted;
      fail(r, std::string("episode threw: ") + e.what());
    }
  }
  r.delta = Probe::take(cluster) - before;
  check_oracle(cluster, r);
  return r;
}

/// §5.2's replicated triangle-mesh ring, laid over the fixed process set
/// (the library's build_mesh adds new processes on every call): a strand
/// walks the ring; each hop propagates the current object to the next
/// process and to one bystander, and links it to a fresh object there both
/// locally and remotely.  Closing the strand and dropping the construction
/// root leaves one garbage cycle spanning every process.
std::uint64_t build_mesh_garbage(Cluster& c, std::vector<ProcessId> procs, Rng& rng,
                                 bool smoke) {
  const std::size_t n = procs.size();
  std::rotate(procs.begin(), procs.begin() + static_cast<long>(rng.below(n)), procs.end());
  const std::size_t deps = smoke ? 2 + rng.below(3) : 7 + rng.below(3);
  const std::size_t hops = (deps + 1) / 2 * n;

  const ObjectId head = c.new_object(procs[0]);
  c.add_root(procs[0], head);
  ObjectId current = head;
  std::size_t at = 0;
  for (std::size_t hop = 0; hop < hops; ++hop) {
    const std::size_t next_at = (at + 1) % n;
    c.propagate(current, procs[at], procs[next_at]);
    c.propagate(current, procs[at], procs[(at + 2) % n]);
    c.run_until_quiescent();
    const ObjectId target = c.new_object(procs[next_at]);
    c.add_ref(procs[next_at], current, target);
    rgc::workload::make_remote_ref(c, procs[at], current, procs[next_at], target);
    current = target;
    at = next_at;
  }
  c.add_ref(procs[at], current, head);
  c.remove_root(procs[0], head);
  return c.now();
}

/// Replicated acyclic garbage: rooted trees spread over the processes with
/// remote parent->child references (stub/scion chains) and every interior
/// node propagated to its last child's process (prop lists; the Union Rule
/// decides the replicas' fate).  Dropping the roots makes it all garbage.
std::uint64_t build_tree_garbage(Cluster& c, std::vector<ProcessId> procs, Rng& rng,
                                 bool smoke) {
  const std::size_t n = procs.size();
  const std::size_t trees = smoke ? 2 : 3;
  std::vector<std::pair<ObjectId, ProcessId>> roots;
  for (std::size_t t = 0; t < trees; ++t) {
    const std::size_t depth = (smoke ? 2 : 4) + (t == 0 ? 1 : 0);
    const std::size_t root_at = rng.below(n);
    const ObjectId root = c.new_object(procs[root_at]);
    c.add_root(procs[root_at], root);
    roots.emplace_back(root, procs[root_at]);
    std::vector<std::pair<ObjectId, std::size_t>> level{{root, root_at}};
    for (std::size_t d = 0; d < depth; ++d) {
      std::vector<std::pair<ObjectId, std::size_t>> next;
      for (const auto& [parent, pa] : level) {
        for (std::size_t k = 0; k < 2; ++k) {
          const std::size_t ca = (pa + 1 + k + rng.below(n)) % n;
          const ObjectId child = c.new_object(procs[ca]);
          if (ca == pa) {
            c.add_ref(procs[pa], parent, child);
          } else {
            rgc::workload::make_remote_ref(c, procs[pa], parent, procs[ca], child);
          }
          next.emplace_back(child, ca);
        }
        if (next.back().second != pa) c.propagate(parent, procs[pa], procs[next.back().second]);
      }
      c.run_until_quiescent();
      level = std::move(next);
    }
  }
  for (const auto& [root, at] : roots) c.remove_root(at, root);
  return c.now();
}

// ---- store_daemon: one closed-loop client against GraphStore -------------

struct StoreSizes {
  std::size_t shards;
  std::size_t vertices;     // registered vertices the client keeps
  std::size_t extra_edges;  // preload edges beyond the mutual pairs
  std::size_t warmup;       // untimed requests inside set-up
  std::size_t requests;     // measured requests per pass
  std::size_t float_every;  // Oracle sample every n-th request
  std::size_t drain_steps;  // daemon steps before the final collection
};

using rgc::graphdb::GraphStore;
using rgc::graphdb::VertexId;

/// The client's model of the store: which vertices it holds (in creation
/// order) and which edges it made.  A new vertex gets a mutual edge to the previous vertex when that
/// one is still unpaired, edge inserts point from an older to a newer
/// vertex, and deletes unregister the oldest vertex.  So once both halves of
/// a pair are unregistered nothing held reaches them: deletes keep leaving
/// cross-shard garbage, cyclic through the pairs' mutual edges.
class Client {
 public:
  enum Op { kRead, kAddEdge, kAddVertex, kDelete, kOps };
  static constexpr const char* kOpNames[kOps] = {"graphdb.reachable_from", "graphdb.add_edge",
                                                 "graphdb.add_vertex", "graphdb.remove_vertex"};

  Client(GraphStore& store, std::uint64_t seed, std::size_t target)
      : store_(store), rng_(seed), target_(target) {}

  /// Chooses the next request: 40% reads, 15% edge inserts, 45% vertex
  /// writes that add while below the target size and delete otherwise.
  Op pick() {
    const std::size_t r = rng_.below(100);
    if (held_.size() < 2) return kAddVertex;
    if (r < 40) return kRead;
    if (r < 55) return kAddEdge;
    return held_.size() < target_ ? kAddVertex : kDelete;
  }

  /// Runs the store calls of one request (plus the model's bookkeeping).
  void execute(Op op) {
    switch (op) {
      case kRead:
        read_start_ = random_held();
        read_result_ = store_.reachable_from(read_start_, kReadDepth);
        break;
      case kAddEdge: add_edge(); break;
      case kAddVertex: add_vertex(); break;
      case kDelete: remove(); break;
      case kOps: break;
    }
  }

  /// Checks the last read against the model: everything reached along
  /// held vertices must be in the answer (their home replicas are
  /// registered), and nothing outside the model's reach may be.
  [[nodiscard]] bool verify_read() const {
    std::unordered_set<std::uint64_t> got;
    for (VertexId v : read_result_) got.insert(key(v));
    const auto all = reach(false);
    const auto via_held = reach(true);
    return std::all_of(got.begin(), got.end(), [&](std::uint64_t v) { return all.contains(v); }) &&
           std::all_of(via_held.begin(), via_held.end(),
                       [&](std::uint64_t v) { return got.contains(v); });
  }

  [[nodiscard]] const std::deque<VertexId>& held() const noexcept { return held_; }
  [[nodiscard]] std::uint64_t input_digest() const noexcept { return rng_.digest(); }

 private:
  static constexpr std::size_t kReadDepth = 3;

  static std::uint64_t key(VertexId v) { return rgc::raw(v); }

  VertexId random_held() { return held_[rng_.below(held_.size())]; }

  /// Model BFS from the last read's start, expanding every vertex or only
  /// held ones.
  std::unordered_set<std::uint64_t> reach(bool held_only) const {
    std::unordered_set<std::uint64_t> seen{key(read_start_)};
    std::vector<std::uint64_t> frontier{key(read_start_)};
    for (std::size_t depth = 0; depth < kReadDepth; ++depth) {
      std::vector<std::uint64_t> next;
      for (std::uint64_t v : frontier) {
        if (held_only && !registered_.contains(v)) continue;
        const auto it = out_.find(v);
        if (it == out_.end()) continue;
        for (std::uint64_t w : it->second) {
          if (seen.insert(w).second) next.push_back(w);
        }
      }
      frontier = std::move(next);
    }
    return seen;
  }

  void link(VertexId from, VertexId to) {
    store_.add_edge(from, to);
    out_[key(from)].insert(key(to));
  }

  void add_vertex() {
    const VertexId v = store_.add_vertex("v" + std::to_string(next_label_++));
    if (unpaired_ && registered_.contains(key(*unpaired_))) {
      link(v, *unpaired_);
      link(*unpaired_, v);
      unpaired_.reset();
    } else {
      unpaired_ = v;
    }
    held_.push_back(v);
    registered_.insert(key(v));
  }

  void add_edge() {
    std::size_t a = rng_.below(held_.size());
    std::size_t b = rng_.below(held_.size());
    if (a == b) return;
    if (a > b) std::swap(a, b);
    if (!out_[key(held_[a])].contains(key(held_[b]))) link(held_[a], held_[b]);
  }

  /// Unregisters the oldest held vertex.
  void remove() {
    const VertexId v = held_.front();
    store_.remove_vertex(v);
    registered_.erase(key(v));
    held_.pop_front();
  }

  GraphStore& store_;
  Rng rng_;
  std::size_t target_;
  std::uint64_t next_label_{0};
  std::deque<VertexId> held_;
  std::unordered_set<std::uint64_t> registered_;
  std::optional<VertexId> unpaired_;
  std::unordered_map<std::uint64_t, std::set<std::uint64_t>> out_;
  VertexId read_start_{};
  std::vector<VertexId> read_result_;
};

}  // namespace

PassResult run_mesh_gc(const Params& params, PassMode mode, Tracer& tracer) {
  const BatchSizes sz = params.smoke ? BatchSizes{3, 300, 4, 2, 2, 1, 4}
                                     : BatchSizes{6, 6000, 16, 32, 32, 3, 30};
  return run_batch(params, mode, tracer, sz, build_mesh_garbage);
}

PassResult run_heap_gc(const Params& params, PassMode mode, Tracer& tracer) {
  const BatchSizes sz = params.smoke ? BatchSizes{3, 500, 4, 2, 2, 1, 4}
                                     : BatchSizes{4, 5000, 16, 32, 32, 5, 60};
  return run_batch(params, mode, tracer, sz, build_tree_garbage);
}

PassResult run_store_daemon(const Params& params, PassMode mode, Tracer& tracer) {
  const StoreSizes sz = params.smoke ? StoreSizes{3, 120, 60, 20, 120, 40, 400}
                                     : StoreSizes{8, 3000, 1500, 100, 600, 50, 2000};
  PassResult r;
  const auto t_setup = Clock::now();
  rgc::graphdb::GraphStoreConfig config;
  config.shards = sz.shards;
  config.cluster = cluster_config(mode);
  GraphStore store(config);
  Client client(store, derive(params.seed, 0), sz.vertices);
  for (std::size_t i = 0; i < sz.vertices; ++i) client.execute(Client::kAddVertex);
  for (std::size_t i = 0; i < sz.extra_edges; ++i) client.execute(Client::kAddEdge);
  store.cluster().run_until_quiescent();
  store.run_gc();

  for (std::size_t i = 0; i < sz.warmup; ++i) {
    client.execute(client.pick());
    store.step();
  }
  r.setup_s = elapsed_s(t_setup);

  const Probe before = Probe::take(store.cluster());
  for (std::size_t i = 0; i < sz.requests; ++i) {
    const Client::Op op = client.pick();
    const std::int64_t sr = tracer.open("request", i, Tracer::kOff);
    const std::int64_t sc = tracer.open(Client::kOpNames[op], i, sr);
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      client.execute(op);
    } catch (const std::exception& e) {
      ok = false;
      fail(r, std::string("request threw: ") + e.what());
    }
    const auto t1 = Clock::now();
    tracer.close(sc);
    const std::int64_t ss = tracer.open("graphdb.step", i, sr);
    const Probe p0 = tracer.enabled() ? Probe::take(store.cluster()) : Probe{};
    const auto t2 = Clock::now();
    store.step();
    const auto t3 = Clock::now();
    if (tracer.enabled()) {
      const Probe d = Probe::take(store.cluster()) - p0;
      tracer.arg(ss, "daemon.collections", d[Probe::kCollections]);
      tracer.arg(ss, "daemon.sweeps", d[Probe::kSweeps]);
      tracer.arg(ss, "daemon.skipped", d[Probe::kSkipped]);
      tracer.arg(ss, "reclaimed", d[Probe::kReclaimed]);
      tracer.arg(ss, "summarize_us", d[Probe::kLgcSummarizeUs] + d[Probe::kCycleSummarizeUs]);
      tracer.arg(ss, "cycle.detect_us", d[Probe::kDetectUs]);
      tracer.arg(ss, "net.gc_msgs", d[Probe::kGcMsgs]);
    }
    tracer.close(ss);
    tracer.close(sr);
    ++r.attempted;
    if (ok && op == Client::kRead && !client.verify_read()) {
      fail(r, "reachable_from disagrees with the client's model");
    }
    const double step_us = us_between(t2, t3);
    r.op_us.push_back(us_between(t0, t1) + step_us);
    r.call_us[Client::kOpNames[op]].push_back(us_between(t0, t1));
    r.step_us.push_back(step_us);
    if ((i + 1) % sz.float_every == 0) {
      r.floating_pct.push_back(garbage_pct(rgc::core::Oracle::analyze(store.cluster())));
    }
  }
  r.delta = Probe::take(store.cluster()) - before;
  r.input_digest = client.input_digest();

  // Drain through the daemon, then one synchronous full collection.
  store.run_steps(sz.drain_steps);
  store.run_gc();
  check_oracle(store.cluster(), r);
  for (VertexId v : client.held()) {
    if (!store.vertex_registered(v)) {
      fail(r, "held vertex " + rgc::to_string(v) + " is not registered");
      break;
    }
  }
  if (store.vertex_count() != client.held().size()) {
    fail(r, "store holds " + std::to_string(store.vertex_count()) + " vertices, client " +
                std::to_string(client.held().size()));
  }
  return r;
}

}  // namespace gcbench
