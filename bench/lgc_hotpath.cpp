// LGC hot-path microbench: trace throughput and collection-time allocations.
//
// The paper's dominant GC cost is local tracing (Figures 6/7): every
// collection walks the whole live graph, and every cluster round does it
// once per process.  This bench pins down the two quantities the mark-epoch
// work optimizes:
//
//   - trace throughput — objects visited per second of Lgc::collect wall
//     time on a 100k-object local mesh (fanout 4, fully live, one root),
//     the median of repeated runs with its interquartile spread;
//   - allocations per collection — global operator new invocations during
//     one steady-state collection (the seed implementation allocated a
//     std::map node per visited object per trace family).
//
// A third section times Cluster::run_full_gc on a 16-process garbage mesh,
// serial vs. the phase-split parallel path, and checks both reclaim the
// same number of objects; a fourth scales that mesh's depth (3, 6, 12, 24
// dependencies per process pair, no ballast) and records CDM detection
// wall time against the CDM count.
//
// Each datapoint is also emitted as JSONL via RGC_BENCH_JSONL (see
// bench_util.h).  scripts/bench_all.sh collects a whole run; the committed
// BENCH_seed.json holds the pre-optimization baseline for comparison.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/daemon.h"
#include "core/oracle.h"
#include "gc/lgc/lgc.h"
#include "net/network.h"
#include "obs/ledger.h"
#include "obs/recorder.h"
#include "rm/process.h"
#include "workload/figures.h"
#include "workload/mesh.h"

// ---- Global allocation counter ---------------------------------------------
// Counts every operator new in the binary (thread-safe: the parallel
// full-gc section allocates from worker threads).

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rgc;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kObjects = 100000;
constexpr int kFanout = 4;
constexpr int kWarmup = 2;
constexpr int kRuns = 10;
/// Repetitions of the gated single-process timings (trace, summarize): a
/// single shot swings by more than the 10% gate on a shared host, so the
/// record carries the median and the interquartile spread instead.
constexpr int kReps = 7;

/// 100k-object local mesh: object i references i+1, i+7, i+31, i+107
/// (mod n), one root at 0 — everything live, maximal trace work.
void build_local_mesh(rm::Process& proc) {
  static constexpr std::uint64_t kStrides[kFanout] = {1, 7, 31, 107};
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    proc.create_object(ObjectId{i});
  }
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    rm::Object* obj = proc.heap().find(ObjectId{i});
    for (std::uint64_t s : kStrides) {
      obj->refs.push_back(rm::Ref{ObjectId{(i + s) % kObjects}, kNoProcess});
    }
  }
  proc.add_root(ObjectId{0});
}

void bench_trace() {
  net::Network net;
  rm::Process proc{ProcessId{0}, net};
  net.attach(ProcessId{0}, [](const net::Envelope&) {});
  build_local_mesh(proc);

  gc::LgcConfig cfg;
  std::uint64_t traced = 0;
  for (int i = 0; i < kWarmup; ++i) traced = gc::Lgc::collect(proc, cfg).traced;

  const std::uint64_t allocs_before = g_allocs.load();
  const std::uint64_t bytes_before = g_alloc_bytes.load();
  const auto a0 = Clock::now();
  gc::Lgc::collect(proc, cfg);
  const double one_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - a0).count();
  const std::uint64_t allocs_per = g_allocs.load() - allocs_before;
  const std::uint64_t bytes_per = g_alloc_bytes.load() - bytes_before;

  std::vector<double> rates;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kRuns; ++i) gc::Lgc::collect(proc, cfg);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    rates.push_back(static_cast<double>(traced) * kRuns /
                    (secs > 0 ? secs : 1e-9));
  }
  const bench::Repeated rate = bench::repeated(rates);

  std::printf("lgc_hotpath.trace   objects=%llu traced=%llu\n",
              static_cast<unsigned long long>(kObjects),
              static_cast<unsigned long long>(traced));
  std::printf("  one collection: %.2f ms, %llu allocs, %llu bytes\n", one_ms,
              static_cast<unsigned long long>(allocs_per),
              static_cast<unsigned long long>(bytes_per));
  std::printf("  throughput: %.0f traced objects/sec (median of %d, spread"
              " %.1f%%)\n",
              rate.median, kReps, rate.spread * 100);

  bench::RunRecord rec{"lgc_hotpath.trace"};
  rec.field("objects", kObjects)
      .field("fanout", kFanout)
      .field("traced_per_collection", traced)
      .field("runs", kRuns)
      .field("reps", kReps)
      .field("objects_per_sec_median", rate.median)
      .field("objects_per_sec_spread", rate.spread)
      .field("allocs_per_collection", allocs_per)
      .field("alloc_bytes_per_collection", bytes_per)
      .field("collection_ms", one_ms);
}

// ---- Parallel full-GC section ----------------------------------------------

struct FullGcRun {
  double ms{0};
  core::Cluster::FullGcStats stats;
  std::uint64_t objects_left{0};
  std::uint64_t steps{0};
};

/// Builds a 16-process cluster holding a garbage mesh (kept small — the
/// exhaustive detection sweep is quadratic in strand length) plus a large
/// live local graph per process, so every GC round has real per-process
/// trace and summarize work for the pool to spread, then runs the driver.
FullGcRun run_full_gc_once(std::size_t threads) {
  constexpr std::uint64_t kBallastPerProcess = 20000;
  core::ClusterConfig cfg;
  cfg.net.seed = 42;
  cfg.threads = threads;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(
      cluster, {.processes = 16, .dependencies = 6, .extra_replicas = 1});
  for (ProcessId pid : cluster.process_ids()) {
    ObjectId prev = cluster.new_object(pid);
    cluster.add_root(pid, prev);
    for (std::uint64_t i = 1; i < kBallastPerProcess; ++i) {
      const ObjectId next = cluster.new_object(pid);
      cluster.add_ref(pid, prev, next);
      prev = next;
    }
  }
  cluster.run_until_quiescent();
  (void)mesh;

  FullGcRun run;
  const auto t0 = Clock::now();
  run.stats = cluster.run_full_gc();
  run.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  run.objects_left = cluster.total_objects();
  run.steps = cluster.now();
  return run;
}

void bench_full_gc() {
  // Warm-up run keeps one-time costs (lazy metrics, code paging) out of the
  // serial datapoint.
  run_full_gc_once(1);

  const FullGcRun serial = run_full_gc_once(1);
  const FullGcRun parallel = run_full_gc_once(4);
  const bool identical =
      serial.stats.reclaimed_objects == parallel.stats.reclaimed_objects &&
      serial.stats.cycles_found == parallel.stats.cycles_found &&
      serial.stats.rounds == parallel.stats.rounds &&
      serial.objects_left == parallel.objects_left &&
      serial.steps == parallel.steps;
  const double speedup = parallel.ms > 0 ? serial.ms / parallel.ms : 0;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("\nlgc_hotpath.full_gc  processes=16 reclaimed=%llu cycles=%llu\n",
              static_cast<unsigned long long>(serial.stats.reclaimed_objects),
              static_cast<unsigned long long>(serial.stats.cycles_found));
  std::printf("  threads=1: %.2f ms   threads=4: %.2f ms   speedup: %.2fx"
              " (host has %u hardware threads)\n",
              serial.ms, parallel.ms, speedup, hw);
  // The hard guarantee is determinism: the thread count must never change
  // what gets collected.  Wall-clock gains need actual cores — on a 1-core
  // host speedup hovers around 1.0 by construction.
  std::printf("  identical results: %s\n", identical ? "yes" : "NO — BUG");

  bench::RunRecord rec{"lgc_hotpath.full_gc"};
  rec.field("processes", 16)
      .field("reclaimed", serial.stats.reclaimed_objects)
      .field("cycles_found", serial.stats.cycles_found)
      .field("serial_ms", serial.ms)
      .field("parallel_ms", parallel.ms)
      .field("speedup", speedup)
      .field("hw_threads", hw)
      .field("identical", identical ? 1 : 0);
}

// ---- Mesh-depth scaling section ---------------------------------------------

struct DepthRun {
  double detect_us{0};
  std::uint64_t cdms{0};
  std::uint64_t detections{0};
  std::uint64_t cycles_found{0};
  std::uint64_t reclaimed{0};
};

/// run_full_gc over a bare 16-process garbage mesh of the given depth
/// (inter-process dependencies per adjacent pair; no ballast, so CDM
/// detection is nearly all the work).  Detection wall time comes from the
/// cycle.detect_us profile (every start_detection/on_cdm call).
DepthRun run_mesh_depth(std::size_t depth) {
  core::ClusterConfig cfg;
  cfg.net.seed = 42;
  core::Cluster cluster{cfg};
  workload::build_mesh(cluster, {.processes = 16,
                                 .dependencies = depth,
                                 .extra_replicas = 1});
  cluster.run_until_quiescent();
  const core::Cluster::FullGcStats stats = cluster.run_full_gc();
  DepthRun run;
  if (const util::Histogram* h =
          cluster.profile().find_histogram("cycle.detect_us")) {
    run.detect_us = static_cast<double>(h->sum());
  }
  run.cdms = cluster.network().total_sent("CDM");
  run.detections = cluster.metric_total("cycle.detections_started");
  run.cycles_found = stats.cycles_found;
  run.reclaimed = stats.reclaimed_objects;
  return run;
}

void bench_mesh_depth() {
  // Near-linear detection means detect_us tracks the CDM count as the mesh
  // deepens; a per-hop cost that grows with the state a CDM carries shows
  // up as detect_us per CDM climbing with depth.
  run_mesh_depth(3);  // warm-up
  std::printf("\nlgc_hotpath.mesh_depth  processes=16 extra_replicas=1, "
              "no ballast\n");
  std::printf("  %5s %12s %9s %10s %11s %7s %9s\n", "depth", "detect_ms",
              "cdms", "us/cdm", "detections", "cycles", "reclaimed");
  for (const std::size_t depth : {3, 6, 12, 24}) {
    // Best of three: wall-clock minima filter a shared host's noise; the
    // counts are deterministic.
    DepthRun best;
    for (int i = 0; i < 3; ++i) {
      const DepthRun r = run_mesh_depth(depth);
      if (i == 0 || r.detect_us < best.detect_us) best = r;
    }
    const double per_cdm =
        best.cdms > 0 ? best.detect_us / static_cast<double>(best.cdms) : 0;
    std::printf("  %5zu %12.2f %9llu %10.2f %11llu %7llu %9llu\n", depth,
                best.detect_us / 1000.0,
                static_cast<unsigned long long>(best.cdms), per_cdm,
                static_cast<unsigned long long>(best.detections),
                static_cast<unsigned long long>(best.cycles_found),
                static_cast<unsigned long long>(best.reclaimed));
    bench::RunRecord rec{"lgc_hotpath.mesh_depth.d" + std::to_string(depth)};
    rec.field("depth", static_cast<std::uint64_t>(depth))
        .field("detect_us", best.detect_us)
        .field("cdms", best.cdms)
        .field("us_per_cdm", per_cdm)
        .field("detections", best.detections)
        .field("cycles_found", best.cycles_found)
        .field("reclaimed", best.reclaimed);
  }
}

// ---- Summarization section -------------------------------------------------

/// One process holding a dense local mesh plus a band of scions, stubs and
/// replicas — the seed count is what made the per-seed-trace reference
/// summarizer O(seeds × graph).  Returns the process id carrying the load.
ProcessId build_summarize_workload(core::Cluster& cluster) {
  constexpr std::uint64_t kSumObjects = 20000;
  constexpr std::uint64_t kBand = 40;  // scions, stubs and replicas each
  static constexpr std::uint64_t kStrides[] = {1, 7, 31, 107};

  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();

  // The same fully-cyclic strided mesh as bench_trace — one giant SCC, so
  // the condensation path gets no free lunch from trivial components.
  std::vector<ObjectId> mesh;
  mesh.reserve(kSumObjects);
  for (std::uint64_t i = 0; i < kSumObjects; ++i) {
    mesh.push_back(cluster.new_object(p0));
  }
  for (std::uint64_t i = 0; i < kSumObjects; ++i) {
    rm::Object* obj = cluster.process(p0).heap().find(mesh[i]);
    for (std::uint64_t s : kStrides) {
      obj->refs.push_back(rm::Ref{mesh[(i + s) % kSumObjects], kNoProcess});
    }
  }
  cluster.add_root(p0, mesh[0]);

  const std::uint64_t spread = kSumObjects / kBand;
  for (std::uint64_t k = 0; k < kBand; ++k) {
    const ObjectId at = mesh[k * spread];
    // Replica: a mesh object propagated out (in/out props on p0).
    cluster.propagate(at, p0, p1);
    // Stub: a p1-owned object remote-referenced from the mesh.
    const ObjectId remote = cluster.new_object(p1);
    cluster.add_root(p1, remote);
    workload::make_remote_ref(cluster, p0, at, p1, remote);
    // Scion: a p1 holder remote-referencing into the mesh.
    workload::make_remote_ref(cluster, p1, remote, p0, mesh[k * spread + 1]);
  }
  cluster.run_until_quiescent();
  return p0;
}

void bench_summarize() {
  constexpr int kSumRuns = 5;
  core::ClusterConfig cfg;
  cfg.net.seed = 11;
  core::Cluster cluster{cfg};
  const ProcessId p0 = build_summarize_workload(cluster);
  const rm::Process& proc = cluster.process(p0);

  // Cold snapshot: one-pass SCC summarizer vs the retained per-seed
  // reference, identical output required.
  gc::ProcessSummary fast = gc::summarize(proc);        // warm-up + scratch
  gc::ProcessSummary ref = gc::summarize_reference(proc);
  const bool identical = fast == ref;

  const auto r0 = Clock::now();
  for (int i = 0; i < kSumRuns; ++i) ref = gc::summarize_reference(proc);
  const double ref_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - r0).count() /
      kSumRuns;

  const std::uint64_t allocs_before = g_allocs.load();
  std::vector<double> fast_runs;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto f0 = Clock::now();
    for (int i = 0; i < kSumRuns; ++i) fast = gc::summarize(proc);
    fast_runs.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - f0).count() /
        kSumRuns);
  }
  const std::uint64_t allocs_per =
      (g_allocs.load() - allocs_before) / (kSumRuns * kReps);
  const bench::Repeated fast_ms = bench::repeated(fast_runs);
  const double speedup = fast_ms.median > 0 ? ref_ms / fast_ms.median : 0;

  // Warm re-snapshot: nothing mutated between rounds, so the dirty-epoch
  // cache must make the second snapshot_all round practically free.
  cluster.snapshot_all();
  const auto w0 = Clock::now();
  cluster.snapshot_all();
  const double warm_us =
      std::chrono::duration<double, std::micro>(Clock::now() - w0).count();
  const std::uint64_t reused = cluster.metric_total("cycle.summarize_reused");

  std::printf("\nlgc_hotpath.summarize  scions=%zu stubs=%zu replicas=%zu\n",
              fast.scions.size(), fast.stubs.size(), fast.replicas.size());
  std::printf("  cold: reference %.2f ms, one-pass %.2f ms (median of %d,"
              " spread %.1f%%) — %.1fx (%llu allocs/run)\n",
              ref_ms, fast_ms.median, kReps, fast_ms.spread * 100, speedup,
              static_cast<unsigned long long>(allocs_per));
  std::printf("  warm re-snapshot (all clean): %.0f us, %llu summaries reused\n",
              warm_us, static_cast<unsigned long long>(reused));
  std::printf("  identical output: %s\n", identical ? "yes" : "NO — BUG");

  bench::RunRecord rec{"lgc_hotpath.summarize"};
  rec.field("scions", fast.scions.size())
      .field("stubs", fast.stubs.size())
      .field("replicas", fast.replicas.size())
      .field("reference_ms", ref_ms)
      .field("reps", kReps)
      .field("one_pass_ms_median", fast_ms.median)
      .field("one_pass_ms_spread", fast_ms.spread)
      .field("speedup", speedup)
      .field("allocs_per_run", allocs_per)
      .field("warm_resnapshot_us", warm_us)
      .field("identical", identical ? 1 : 0);
}

/// Dirty-fraction sweep: a 16-process cluster where only a fraction of the
/// processes mutate between snapshot rounds.  Cost should scale with the
/// dirty fraction, not the cluster size.
void bench_summarize_dirty_sweep() {
  constexpr std::uint64_t kBallast = 10000;
  constexpr std::size_t kProcs = 16;
  core::ClusterConfig cfg;
  cfg.net.seed = 23;
  core::Cluster cluster{cfg};
  std::vector<ObjectId> heads;
  for (std::size_t p = 0; p < kProcs; ++p) {
    const ProcessId pid = cluster.add_process();
    ObjectId prev = cluster.new_object(pid);
    cluster.add_root(pid, prev);
    heads.push_back(prev);
    for (std::uint64_t i = 1; i < kBallast; ++i) {
      const ObjectId next = cluster.new_object(pid);
      cluster.add_ref(pid, prev, next);
      prev = next;
    }
  }
  cluster.run_until_quiescent();
  cluster.snapshot_all();  // populate every cache

  std::printf("\nlgc_hotpath.summarize_dirty  processes=%zu"
              " objects_per_process=%llu\n",
              kProcs, static_cast<unsigned long long>(kBallast));
  bench::RunRecord rec{"lgc_hotpath.summarize_dirty"};
  rec.field("processes", kProcs).field("objects_per_process", kBallast);

  const std::vector<ProcessId> pids = cluster.process_ids();
  for (const std::size_t dirty : {std::size_t{0}, kProcs / 4, kProcs / 2, kProcs}) {
    // Touch a root on the first `dirty` processes: epoch bump, no
    // structural change, so snapshot work is purely re-summarization.
    for (std::size_t p = 0; p < dirty; ++p) {
      cluster.add_root(pids[p], heads[p]);
    }
    const auto t0 = Clock::now();
    cluster.snapshot_all();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const auto gauge = cluster.network().metrics().gauge_value(
        "cycle.summary_dirty_fraction");
    std::printf("  dirty %2zu/%zu: %.2f ms (gauge %llu%%)\n", dirty, kProcs,
                ms, static_cast<unsigned long long>(gauge));
    char field[32];
    std::snprintf(field, sizeof(field), "dirty_%zu_of_%zu_ms", dirty, kProcs);
    rec.field(field, ms);
  }
}

// ---- Auditor overhead section ----------------------------------------------

struct AuditedRun {
  double ms{0};
  std::uint64_t traced{0};
  std::uint64_t audits{0};
  std::uint64_t deep_audits{0};
  std::uint64_t steps{0};
};

/// Runs a fixed mesh workload — collection rounds interleaved with network
/// steps — under the given scheduled-audit cadence (0 = auditor off) and
/// returns wall time plus total objects traced by LGC.
AuditedRun run_audited(std::uint64_t audit_interval) {
  constexpr std::uint64_t kBallast = 10000;
  constexpr int kRounds = 6;
  constexpr int kStepsPerRound = 32;

  core::ClusterConfig cfg;
  cfg.net.seed = 7;
  cfg.audit_interval = audit_interval;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(
      cluster, {.processes = 8, .dependencies = 4, .extra_replicas = 1});
  (void)mesh;
  for (ProcessId pid : cluster.process_ids()) {
    ObjectId prev = cluster.new_object(pid);
    cluster.add_root(pid, prev);
    for (std::uint64_t i = 1; i < kBallast; ++i) {
      const ObjectId next = cluster.new_object(pid);
      cluster.add_ref(pid, prev, next);
      prev = next;
    }
  }
  cluster.run_until_quiescent();

  AuditedRun run;
  const auto t0 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    cluster.collect_all();
    for (int s = 0; s < kStepsPerRound; ++s) cluster.step();
  }
  run.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  for (ProcessId pid : cluster.process_ids()) {
    if (const util::Histogram* h = cluster.process(pid).metrics().find_histogram(
            "lgc.traced_per_collection")) {
      run.traced += h->sum();
    }
  }
  run.audits = cluster.auditor().metrics().get("audit.runs");
  run.deep_audits = cluster.auditor().metrics().get("audit.deep_runs");
  run.steps = cluster.now();
  return run;
}

/// Best of `n` runs — wall-clock minima are the standard noise filter on a
/// shared host; traced counts are deterministic per arm, so the fastest
/// run is representative.
AuditedRun best_of(std::uint64_t audit_interval, int n) {
  AuditedRun best;
  for (int i = 0; i < n; ++i) {
    const AuditedRun r = run_audited(audit_interval);
    if (best.ms == 0 || r.ms < best.ms) best = r;
  }
  return best;
}

void bench_audit() {
  // Warm-up covers lazy metrics registration and code paging for both arms.
  run_audited(0);

  const AuditedRun off = best_of(0, 3);
  const AuditedRun on = best_of(64, 3);  // the default scheduled cadence
  const double off_rate =
      static_cast<double>(off.traced) / (off.ms > 0 ? off.ms : 1e-9);
  const double on_rate =
      static_cast<double>(on.traced) / (on.ms > 0 ? on.ms : 1e-9);
  const double overhead_pct =
      off_rate > 0 ? (off_rate - on_rate) / off_rate * 100.0 : 0;

  std::printf("\nlgc_hotpath.audit  processes=8 traced=%llu per arm\n",
              static_cast<unsigned long long>(off.traced));
  std::printf("  auditor off: %.2f ms   on (interval 64): %.2f ms"
              " (%llu audits, %llu deep, %llu steps)\n",
              off.ms, on.ms, static_cast<unsigned long long>(on.audits),
              static_cast<unsigned long long>(on.deep_audits),
              static_cast<unsigned long long>(on.steps));
  std::printf("  trace throughput: %.0f -> %.0f objs/ms (%.2f%% overhead)\n",
              off_rate, on_rate, overhead_pct);

  bench::RunRecord rec{"lgc_hotpath.audit"};
  rec.field("audit_interval", 64)
      .field("traced", off.traced)
      .field("off_ms", off.ms)
      .field("on_ms", on.ms)
      .field("audits", on.audits)
      .field("deep_audits", on.deep_audits)
      .field("off_traced_per_ms", off_rate)
      .field("on_traced_per_ms", on_rate)
      .field("overhead_pct", overhead_pct);
}

// ---- Flight-recorder overhead section --------------------------------------

struct RecordedBench {
  double ms{0};
  std::uint64_t traced{0};
  std::uint64_t appended{0};
  std::uint64_t dropped{0};
};

/// The bench_audit workload (collection rounds interleaved with network
/// steps over an 8-process mesh) with the flight recorder at the given ring
/// capacity (0 = recorder off).  The recorder sees every send/deliver plus
/// a sweep event per collection — the always-on hot path being priced.
RecordedBench run_recorded(std::size_t record_capacity) {
  constexpr std::uint64_t kBallast = 10000;
  constexpr int kRounds = 6;
  constexpr int kStepsPerRound = 32;

  core::ClusterConfig cfg;
  cfg.net.seed = 7;
  cfg.audit_interval = 0;  // isolate the recorder: auditor off
  cfg.record_capacity = record_capacity;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(
      cluster, {.processes = 8, .dependencies = 4, .extra_replicas = 1});
  (void)mesh;
  for (ProcessId pid : cluster.process_ids()) {
    ObjectId prev = cluster.new_object(pid);
    cluster.add_root(pid, prev);
    for (std::uint64_t i = 1; i < kBallast; ++i) {
      const ObjectId next = cluster.new_object(pid);
      cluster.add_ref(pid, prev, next);
      prev = next;
    }
  }
  cluster.run_until_quiescent();

  RecordedBench run;
  const auto t0 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    cluster.collect_all();
    for (int s = 0; s < kStepsPerRound; ++s) cluster.step();
  }
  run.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  for (ProcessId pid : cluster.process_ids()) {
    if (const util::Histogram* h = cluster.process(pid).metrics().find_histogram(
            "lgc.traced_per_collection")) {
      run.traced += h->sum();
    }
  }
  if (const obs::FlightRecorder* rec = cluster.recorder()) {
    run.appended = rec->appended();
    run.dropped = rec->dropped();
  }
  return run;
}

RecordedBench best_recorded(std::size_t record_capacity, int n) {
  RecordedBench best;
  for (int i = 0; i < n; ++i) {
    const RecordedBench r = run_recorded(record_capacity);
    if (best.ms == 0 || r.ms < best.ms) best = r;
  }
  return best;
}

void bench_recorder() {
  constexpr std::size_t kCapacity = 4096;  // the always-on default
  run_recorded(kCapacity);  // warm-up

  const RecordedBench off = best_recorded(0, 3);
  const RecordedBench on = best_recorded(kCapacity, 3);
  const double off_rate =
      static_cast<double>(off.traced) / (off.ms > 0 ? off.ms : 1e-9);
  const double on_rate =
      static_cast<double>(on.traced) / (on.ms > 0 ? on.ms : 1e-9);
  const double overhead_pct =
      off_rate > 0 ? (off_rate - on_rate) / off_rate * 100.0 : 0;

  std::printf("\nlgc_hotpath.recorder  processes=8 traced=%llu per arm\n",
              static_cast<unsigned long long>(off.traced));
  std::printf("  recorder off: %.2f ms   on (capacity %zu): %.2f ms"
              " (%llu events, %llu overwritten)\n",
              off.ms, kCapacity, on.ms,
              static_cast<unsigned long long>(on.appended),
              static_cast<unsigned long long>(on.dropped));
  std::printf("  trace throughput: %.0f -> %.0f objs/ms"
              " (%.2f%% overhead, target < 5%%)\n",
              off_rate, on_rate, overhead_pct);

  bench::RunRecord rec{"lgc_hotpath.recorder"};
  rec.field("capacity", kCapacity)
      .field("traced", off.traced)
      .field("off_ms", off.ms)
      .field("on_ms", on.ms)
      .field("events_appended", on.appended)
      .field("events_overwritten", on.dropped)
      .field("off_traced_per_ms", off_rate)
      .field("on_traced_per_ms", on_rate)
      .field("overhead_pct", overhead_pct);
}

// ---- Cost-ledger overhead section ------------------------------------------

struct LedgeredBench {
  double ms{0};
  std::uint64_t reclaimed{0};
  std::uint64_t cycles{0};
  std::uint64_t completed{0};
};

/// Full cyclic GC over a 12-process garbage mesh under chaos transport
/// (drop + duplicate + jitter) with the cost ledger at the given capacity
/// (0 = ledger off).  Chaos maximizes the ledger's hot path: every CDM
/// send/deliver/drop/duplicate walks the observer, and retries multiply
/// the message count per detection.
LedgeredBench run_ledgered(std::size_t ledger_capacity) {
  core::ClusterConfig cfg;
  cfg.net.seed = 11;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 4;
  // Mild chaos: each detection crosses the strand hop by hop, so the
  // per-hop drop rate compounds — 1% already aborts a sizable fraction of
  // detections and forces retry rounds without starving the workload.
  cfg.net.drop_probability = 0.01;
  cfg.net.duplicate_probability = 0.05;
  cfg.audit_interval = 0;    // isolate the ledger: auditor off
  cfg.record_capacity = 0;   // ... and recorder off
  cfg.ledger_capacity = ledger_capacity;
  core::Cluster cluster{cfg};

  LedgeredBench run;
  const auto t0 = Clock::now();
  // Each epoch lays down a fresh garbage mesh and collects it to empty —
  // sustained CDM/Cut/ADGC traffic through the ledger's observer hot path,
  // with enough completed cycles per epoch to churn the completed ring.
  // Both arms do identical work: the ledger never alters behaviour.
  for (int epoch = 0; epoch < 6; ++epoch) {
    workload::build_mesh(
        cluster, {.processes = 8, .dependencies = 10, .extra_replicas = 1});
    cluster.run_until_quiescent();
    const auto stats = cluster.run_full_gc(4);
    run.reclaimed += stats.reclaimed_objects;
    run.cycles += stats.cycles_found;
  }
  run.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (const obs::Ledger* ledger = cluster.ledger()) {
    run.completed = ledger->completed();
  }
  return run;
}

LedgeredBench best_ledgered(std::size_t ledger_capacity, int n) {
  LedgeredBench best;
  for (int i = 0; i < n; ++i) {
    const LedgeredBench r = run_ledgered(ledger_capacity);
    if (best.ms == 0 || r.ms < best.ms) best = r;
  }
  return best;
}

void bench_ledger() {
  constexpr std::size_t kCapacity = 256;  // the always-on default
  run_ledgered(kCapacity);  // warm-up

  const LedgeredBench off = best_ledgered(0, 3);
  const LedgeredBench on = best_ledgered(kCapacity, 3);
  const double overhead_pct =
      off.ms > 0 ? (on.ms - off.ms) / off.ms * 100.0 : 0;

  std::printf("\nlgc_hotpath.ledger  6 mesh epochs, chaos drop 1%% dup 5%%"
              " reclaimed=%llu cycles=%llu per arm\n",
              static_cast<unsigned long long>(off.reclaimed),
              static_cast<unsigned long long>(off.cycles));
  std::printf("  ledger off: %.2f ms   on (capacity %zu): %.2f ms"
              " (%llu cycles costed)\n",
              off.ms, kCapacity, on.ms,
              static_cast<unsigned long long>(on.completed));
  std::printf("  full-gc overhead: %.2f%% (target < 5%%)\n", overhead_pct);

  bench::RunRecord rec{"lgc_hotpath.ledger"};
  rec.field("capacity", kCapacity)
      .field("reclaimed", off.reclaimed)
      .field("cycles_found", off.cycles)
      .field("cycles_costed", on.completed)
      .field("off_ms", off.ms)
      .field("on_ms", on.ms)
      .field("overhead_pct", overhead_pct);
}

// ---- Daemon scheduling section ---------------------------------------------

struct DaemonBench {
  double ms{0};
  std::uint64_t collections{0};
  std::uint64_t sweeps{0};
  std::uint64_t skipped{0};
  std::uint64_t leftover{0};
};

/// Background-daemon GC over garbage-mesh waves, fixed cadence vs the
/// adaptive deferred policy.  Identical workload and simulated horizon;
/// only the scheduler decides how much GC work actually runs, so the
/// wall-clock delta is the cost of the work the fixed cadence pays for and
/// the adaptive policy proves unnecessary (the oracle check keeps both
/// honest: every wave must still be fully reclaimed).
DaemonBench run_daemon_bench(bool adaptive) {
  core::ClusterConfig cfg;
  cfg.net.seed = 11;
  cfg.audit_interval = 0;   // isolate the scheduler: auditor off
  cfg.record_capacity = 0;  // ... recorder off
  cfg.ledger_capacity = 0;  // ... ledger off
  core::Cluster cluster{cfg};
  core::DaemonConfig dcfg;
  dcfg.adaptive.enabled = adaptive;
  dcfg.adaptive.max_floating_age = 0;  // no auditor, no age gauge
  core::GcDaemon daemon{cluster, dcfg};

  DaemonBench run;
  const auto t0 = Clock::now();
  for (int epoch = 0; epoch < 4; ++epoch) {
    workload::build_mesh(
        cluster, {.processes = 6, .dependencies = 8, .extra_replicas = 1});
    daemon.run(240);
  }
  // Endgame: the daemon alone finishes the job.  Long enough for several
  // sweep rounds even at the maximum deferral (no auditor here, so the
  // forced-sweep valve is off and completeness rides on the ceiling rule).
  daemon.run(1440);
  cluster.run_until_quiescent();
  run.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  run.collections = daemon.collections();
  run.sweeps = daemon.sweeps();
  run.skipped = daemon.skipped_collections() + daemon.skipped_sweeps();
  run.leftover = core::Oracle::analyze(cluster).garbage_objects().size();
  return run;
}

DaemonBench best_daemon(bool adaptive, int n) {
  DaemonBench best;
  for (int i = 0; i < n; ++i) {
    const DaemonBench r = run_daemon_bench(adaptive);
    if (best.ms == 0 || r.ms < best.ms) best = r;
  }
  return best;
}

void bench_daemon() {
  run_daemon_bench(true);  // warm-up
  const DaemonBench fixed = best_daemon(false, 3);
  const DaemonBench adaptive = best_daemon(true, 3);

  std::printf("\nlgc_hotpath.daemon  4 mesh waves, 2400 steps background GC"
              " (leftover fixed=%llu adaptive=%llu)\n",
              static_cast<unsigned long long>(fixed.leftover),
              static_cast<unsigned long long>(adaptive.leftover));
  std::printf("  fixed:    %.2f ms  %llu collections, %llu sweeps\n", fixed.ms,
              static_cast<unsigned long long>(fixed.collections),
              static_cast<unsigned long long>(fixed.sweeps));
  std::printf("  adaptive: %.2f ms  %llu collections, %llu sweeps"
              " (%llu due-points skipped)\n",
              adaptive.ms, static_cast<unsigned long long>(adaptive.collections),
              static_cast<unsigned long long>(adaptive.sweeps),
              static_cast<unsigned long long>(adaptive.skipped));
  std::printf("  background GC wall time: %.0f%% of fixed\n",
              fixed.ms > 0 ? adaptive.ms / fixed.ms * 100.0 : 0.0);

  bench::RunRecord rec{"lgc_hotpath.daemon"};
  rec.field("fixed_ms", fixed.ms)
      .field("adaptive_ms", adaptive.ms)
      .field("fixed_collections", fixed.collections)
      .field("adaptive_collections", adaptive.collections)
      .field("fixed_sweeps", fixed.sweeps)
      .field("adaptive_sweeps", adaptive.sweeps)
      .field("skipped", adaptive.skipped)
      .field("fixed_leftover", fixed.leftover)
      .field("adaptive_leftover", adaptive.leftover);
}

}  // namespace

int main() {
  std::printf("LGC hot path: trace throughput & allocation profile\n\n");
  bench_trace();
  bench_summarize();
  bench_summarize_dirty_sweep();
  bench_full_gc();
  bench_mesh_depth();
  bench_audit();
  bench_recorder();
  bench_ledger();
  bench_daemon();
  return 0;
}
