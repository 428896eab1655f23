// gcbench — the repository benchmark.  Runs one workload by name and seed
// for about --seconds, checks its outputs against the Oracle, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1).  The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// See gcbench/README.md for the workloads, the metric definitions and how to
// run it.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/daemon.h"
#include "harness.h"
#include "util/metrics.h"

#ifndef GCBENCH_COMPILER
#define GCBENCH_COMPILER "unknown"
#endif
#ifndef GCBENCH_BUILD_TYPE
#define GCBENCH_BUILD_TYPE "unknown"
#endif

namespace gcbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool smoke{false};
  std::string out_dir{"."};
  std::string rev{"unknown"};
};

/// No pass starts after this much wall time, so a run ends well within the
/// three minutes a run may take.
constexpr double kPassCutoffS = 120.0;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gcbench: %s\n"
               "usage: gcbench --workload mesh_gc|heap_gc|store_daemon --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out DIR] [--rev REV]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (flag != "--smoke") {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      value = argv[++i];
    }
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--smoke") {
        o.smoke = true;
      } else if (flag == "--out") {
        o.out_dir = value;
      } else if (flag == "--rev") {
        o.rev = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0) || o.seconds > 600) usage("--seconds must be in (0, 600]");
  return o;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

template <class T>
double sum(const std::vector<T>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Host and run facts stamped on every result.
std::string stamp(const Options& o) {
  const rgc::core::ClusterConfig cluster{};
  const rgc::core::DaemonConfig daemon{};
  std::ostringstream s;
  s << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": " << quoted(GCBENCH_COMPILER)
    << ", \"build_type\": " << quoted(GCBENCH_BUILD_TYPE) << ", \"git_rev\": " << quoted(o.rev)
    << ", \"workload\": " << quoted(o.workload) << ", \"seed\": " << o.seed
    << ", \"seconds\": " << number(o.seconds) << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"smoke\": " << (o.smoke ? "true" : "false")
    << ", \"config\": {\"threads\": " << cluster.threads
    << ", \"audit_interval\": " << cluster.audit_interval
    << ", \"record_capacity\": " << cluster.record_capacity
    << ", \"ledger_capacity\": " << cluster.ledger_capacity
    << ", \"daemon\": " << quoted(daemon.adaptive.enabled ? "adaptive" : "fixed") << "}}";
  return s.str();
}

/// The exact counts a pass produced.  Every pass of one seed and mode must
/// reproduce them bit for bit.
std::vector<double> counts(const PassResult& r) {
  std::vector<double> c(r.gc_steps.begin(), r.gc_steps.end());
  c.push_back(static_cast<double>(r.input_digest));
  c.insert(c.end(), r.floating_pct.begin(), r.floating_pct.end());
  for (Probe::Field f :
       {Probe::kGcMsgs, Probe::kGcBytes, Probe::kAdgcMsgs, Probe::kCdmMsgs, Probe::kCdmBytes,
        Probe::kPropagates, Probe::kReclaimed, Probe::kTraced, Probe::kSummariesReused,
        Probe::kWastedTracks, Probe::kReclaimLatSum, Probe::kReclaimLatCount, Probe::kE2eSum,
        Probe::kE2eCount, Probe::kCollections, Probe::kSweeps, Probe::kSkipped,
        Probe::kSnapshotBytes, Probe::kDaemonDetections, Probe::kCycles}) {
    c.push_back(r.delta[f]);
  }
  for (std::uint64_t x : {r.attempted, r.gc_calls, r.rounds, r.detections}) {
    c.push_back(static_cast<double>(x));
  }
  return c;
}

/// Which workloads report a metric: the batch GC workloads (mesh_gc,
/// heap_gc), the store workload, or all of them.
enum class Scope { kAll, kBatch, kStore };

struct Metric {
  std::string name;
  double value;
  const char* unit;
  Scope scope{Scope::kAll};
};

/// Headline wall time of a set of passes, for the overhead ratios: the
/// median GC episode (batch) or request (store).
double headline(const std::vector<PassResult>& passes) {
  std::vector<double> all;
  for (const PassResult& r : passes) {
    all.insert(all.end(), r.gc_ms.begin(), r.gc_ms.end());
    all.insert(all.end(), r.op_us.begin(), r.op_us.end());
  }
  return quantile(all, 0.5);
}

/// End-to-end metrics: wall times over every pass, exact counts over the
/// first `count_passes` passes.
std::vector<Metric> end_to_end(const std::vector<PassResult>& passes, std::size_t count_passes) {
  std::vector<double> setup, gc_ms, op_us;
  double reclaimed = 0;
  for (const PassResult& r : passes) {
    setup.push_back(r.setup_s);
    gc_ms.insert(gc_ms.end(), r.gc_ms.begin(), r.gc_ms.end());
    op_us.insert(op_us.end(), r.op_us.begin(), r.op_us.end());
    reclaimed += r.delta[Probe::kReclaimed];
  }
  Probe d;
  std::vector<double> steps, floating;
  for (std::size_t i = 0; i < count_passes && i < passes.size(); ++i) {
    d += passes[i].delta;
    steps.insert(steps.end(), passes[i].gc_steps.begin(), passes[i].gc_steps.end());
    floating.insert(floating.end(), passes[i].floating_pct.begin(), passes[i].floating_pct.end());
  }
  return {
      {"setup_s", quantile(setup, 0.5), "s"},
      {"gc_ms_p50", quantile(gc_ms, 0.5), "ms", Scope::kBatch},
      {"gc_ms_p90", quantile(gc_ms, 0.9), "ms", Scope::kBatch},
      {"reclaimed_per_s", ratio(reclaimed, sum(gc_ms) / 1000.0), "1/s", Scope::kBatch},
      {"gc_steps_p50", quantile(steps, 0.5), "steps", Scope::kBatch},
      {"gc_bytes_per_reclaimed", ratio(d[Probe::kGcBytes], d[Probe::kReclaimed]), "bytes"},
      {"reclaim_steps_mean", ratio(d[Probe::kReclaimLatSum], d[Probe::kReclaimLatCount]),
       "steps", Scope::kStore},
      {"floating_garbage_pct", ratio(sum(floating), floating.size()), "%", Scope::kStore},
      {"op_us_p50", quantile(op_us, 0.5), "us", Scope::kStore},
      {"op_us_p99", quantile(op_us, 0.99), "us", Scope::kStore},
      {"ops_per_s", ratio(op_us.size(), sum(op_us) / 1e6), "1/s", Scope::kStore},
      {"peak_rss_mb", static_cast<double>(rgc::util::peak_rss_bytes()) / (1024.0 * 1024.0),
       "MB"},
  };
}

/// Per-layer metrics of the first traced pass (its counts repeat for one
/// seed); the overhead ratios compare every pass of each mode.
std::vector<Metric> per_layer(const PassResult& r, const std::vector<PassResult>& traced,
                              const std::vector<PassResult>& measured,
                              const std::vector<PassResult>& obs_off) {
  const Probe& d = r.delta;
  const double units = static_cast<double>(r.attempted);
  const double gc_calls = static_cast<double>(r.gc_calls);
  const double rounds = static_cast<double>(r.rounds);
  const double detections = static_cast<double>(r.detections);
  const double gc_ms = r.gc_calls > 0 ? sum(r.gc_ms) : 0.0;
  const double step_ms = sum(r.step_us) / 1000.0;
  const std::vector<double>& step_us = r.step_us;
  const std::map<std::string, std::vector<double>>& call_us = r.call_us;
  const double per_unit_ms = 1.0 / (1000.0 * std::max(units, 1.0));
  const double profiled_ms = (d[Probe::kMarkUs] + d[Probe::kApplyUs] + d[Probe::kLgcSummarizeUs] +
                              d[Probe::kCycleSummarizeUs] + d[Probe::kDigestUs] +
                              d[Probe::kDetectUs] + d[Probe::kInstallUs]) /
                             1000.0;
  // Batch workloads time GC as run_full_gc episodes; the store as daemon
  // steps.  core.other_ms is that wall time minus the profiled phases.
  const double gc_wall_ms = gc_calls > 0 ? gc_ms : step_ms;
  const double gc_units = gc_calls > 0 ? gc_calls : units;
  const double cycles = d[Probe::kCycles];
  const double reclaimed = d[Probe::kReclaimed];
  const double nodes = static_cast<double>(r.nodes_per_summarize);
  const double daemon_work = d[Probe::kCollections] + d[Probe::kSweeps] + d[Probe::kSkipped];
  auto p50 = [&](const char* name) {
    auto it = call_us.find(name);
    return it == call_us.end() ? 0.0 : quantile(it->second, 0.5);
  };
  const double h_traced = headline(traced);
  const double h_measured = headline(measured);
  const double h_obs_off = headline(obs_off);
  return {
      {"core.rounds_per_gc", ratio(rounds, gc_calls), "count", Scope::kBatch},
      {"core.detections_per_cycle",
       ratio(detections + d[Probe::kDaemonDetections], cycles), "count"},
      {"core.other_ms", ratio(gc_wall_ms - profiled_ms, gc_units), "ms"},
      {"lgc.mark_ms", d[Probe::kMarkUs] * per_unit_ms, "ms"},
      {"lgc.apply_ms", d[Probe::kApplyUs] * per_unit_ms, "ms"},
      {"lgc.traced_per_reclaimed", ratio(d[Probe::kTraced], reclaimed), "count"},
      {"cycle.summarize_ms", (d[Probe::kLgcSummarizeUs] + d[Probe::kCycleSummarizeUs]) * per_unit_ms,
       "ms"},
      {"cycle.summary_reuse_pct",
       100.0 * ratio(d[Probe::kSummariesReused], d[Probe::kSummarizeCalls] * nodes), "%"},
      {"adgc.digest_ms", d[Probe::kDigestUs] * per_unit_ms, "ms"},
      {"adgc.msgs_per_reclaimed", ratio(d[Probe::kAdgcMsgs], reclaimed), "count"},
      {"cycle.detect_ms", d[Probe::kDetectUs] * per_unit_ms, "ms"},
      {"cycle.install_ms", d[Probe::kInstallUs] * per_unit_ms, "ms"},
      {"cycle.cdms_per_cycle", ratio(d[Probe::kCdmMsgs], cycles), "count"},
      {"cycle.cdm_bytes_per_cycle", ratio(d[Probe::kCdmBytes], cycles), "bytes"},
      {"cycle.wasted_tracks", ratio(d[Probe::kWastedTracks], cycles), "count"},
      {"cycle.e2e_steps_mean", ratio(d[Probe::kE2eSum], d[Probe::kE2eCount]), "steps"},
      {"net.msgs_per_reclaimed", ratio(d[Probe::kGcMsgs], reclaimed), "count"},
      {"daemon.step_us_p50", quantile(step_us, 0.5), "us", Scope::kStore},
      {"daemon.step_us_p99", quantile(step_us, 0.99), "us", Scope::kStore},
      {"daemon.collections_per_req", ratio(d[Probe::kCollections], units), "count",
       Scope::kStore},
      {"daemon.sweeps_per_req", ratio(d[Probe::kSweeps], units), "count", Scope::kStore},
      {"daemon.skipped_pct", 100.0 * ratio(d[Probe::kSkipped], daemon_work), "%", Scope::kStore},
      {"daemon.snapshot_bytes_per_req", ratio(d[Probe::kSnapshotBytes], units), "bytes",
       Scope::kStore},
      {"graphdb.add_vertex_us_p50", p50("graphdb.add_vertex"), "us", Scope::kStore},
      {"graphdb.add_edge_us_p50", p50("graphdb.add_edge"), "us", Scope::kStore},
      {"graphdb.remove_vertex_us_p50", p50("graphdb.remove_vertex"), "us", Scope::kStore},
      {"graphdb.reachable_us_p50", p50("graphdb.reachable_from"), "us", Scope::kStore},
      {"rm.propagates_per_req", ratio(d[Probe::kPropagates], units), "count"},
      {"obs.overhead_pct", 100.0 * (ratio(h_measured, h_obs_off) - 1.0), "%"},
      {"trace.overhead_pct", 100.0 * (ratio(h_traced, h_measured) - 1.0), "%"},
  };
}

void write_layer_table(const std::string& path, const Options& o, const Tracer& tracer,
                       const std::vector<Metric>& metrics) {
  std::ofstream f(path);
  f << "# gcbench per-layer table: " << o.workload << " seed " << o.seed << "\n";
  f << "# stamp " << stamp(o) << "\n\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-26s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
  f << line;
  for (const auto& [name, row] : tracer.table()) {
    std::snprintf(line, sizeof line, "%-26s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms, row.self_ms);
    f << line;
  }
  f << "\n";
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof line, "%-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
    f << line;
  }
  if (!f) throw std::runtime_error("cannot write " + path);
}

int run(const Options& o) {
  std::function<PassResult(const Params&, PassMode, Tracer&)> pass;
  if (o.workload == "mesh_gc") {
    pass = run_mesh_gc;
  } else if (o.workload == "heap_gc") {
    pass = run_heap_gc;
  } else if (o.workload == "store_daemon") {
    pass = run_store_daemon;
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  // Every pass builds its system afresh (so set-up is timed once per pass)
  // from inputs of its own: round r's seed is derived from (seed, r).  A run
  // thus measures more distinct inputs the longer it lasts, while its exact
  // counts come from the first min_rounds rounds only and repeat bit for
  // bit for one seed.  Traced runs alternate traced, untraced and
  // observability-off passes on the same inputs, so host drift falls evenly
  // on the three.
  const std::vector<PassMode> modes =
      o.trace ? std::vector<PassMode>{PassMode::kTraced, PassMode::kMeasured, PassMode::kObsOff}
              : std::vector<PassMode>{PassMode::kMeasured};
  const std::size_t min_rounds = o.trace ? 1 : (o.smoke ? 2 : 3);
  std::map<PassMode, std::vector<PassResult>> results;
  Tracer tracer;
  const auto t0 = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const double elapsed = us_between(t0, Clock::now()) / 1e6;
    if (round >= min_rounds && (elapsed >= o.seconds || elapsed >= kPassCutoffS)) break;
    const Params params{derive(o.seed, round), o.smoke};
    for (PassMode mode : modes) {
      tracer.set_enabled(mode == PassMode::kTraced);
      results[mode].push_back(pass(params, mode, tracer));
    }
  }
  tracer.set_enabled(false);

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [mode, passes] : results) {
    for (const PassResult& r : passes) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& e : r.errors) std::fprintf(stderr, "gcbench: FAIL %s\n", e.c_str());
    }
  }
  // Spans must not perturb the run: a traced pass repeats the untraced pass
  // of its round count for count.
  if (o.trace) {
    const auto& traced = results[PassMode::kTraced];
    const auto& measured = results[PassMode::kMeasured];
    for (std::size_t r = 0; r < traced.size() && r < measured.size(); ++r) {
      if (counts(traced[r]) != counts(measured[r])) {
        ++failed;
        std::fprintf(stderr, "gcbench: FAIL traced pass %zu diverged from its untraced pass\n", r);
      }
    }
  }

  const std::string stamp_json = stamp(o);
  std::printf("stamp %s\n", stamp_json.c_str());
  std::printf("inputs %016llx\n",
              static_cast<unsigned long long>(results.begin()->second.front().input_digest));
  std::vector<Metric> metrics;
  const Scope scope = o.workload == "store_daemon" ? Scope::kStore : Scope::kBatch;
  const auto out_of_scope = [&](const Metric& m) {
    return m.scope != Scope::kAll && m.scope != scope;
  };
  if (o.trace) {
    metrics = per_layer(results[PassMode::kTraced].front(), results[PassMode::kTraced],
                        results[PassMode::kMeasured], results[PassMode::kObsOff]);
    std::erase_if(metrics, out_of_scope);
    const std::string base = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
    tracer.write_chrome(base + ".trace.json", stamp_json);
    write_layer_table(base + ".layers.txt", o, tracer, metrics);
    std::printf("trace %s.trace.json\nlayers %s.layers.txt\n", base.c_str(), base.c_str());
  } else {
    metrics = end_to_end(results[PassMode::kMeasured], min_rounds);
    std::erase_if(metrics, out_of_scope);
  }
  std::printf("rounds %zu\n", results.begin()->second.size());

  std::string json = "{\"correct\": ";
  bool finite = true;
  std::string body;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      finite = false;
      std::fprintf(stderr, "gcbench: FAIL metric %s is not finite\n", m.name.c_str());
    }
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("metric %-30s %s %s\n", m.name.c_str(), number(v).c_str(), m.unit);
    if (!body.empty()) body += ", ";
    body += quoted(m.name) + ": {\"value\": " + number(v) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  if (!finite) ++failed;
  const bool correct = failed == 0 && attempted > 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1)) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gcbench

int main(int argc, char** argv) {
  try {
    return gcbench::run(gcbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcbench: error: %s\n", e.what());
    return 1;
  }
}
