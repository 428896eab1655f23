// Shared pieces of the GC benchmark: deterministic input generation, the
// in-memory span tracer, registry probes (before/after differences of the
// metrics the library already exports) and the per-pass result record.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cluster.h"

namespace gcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// splitmix64: the benchmark's only source of randomness, so one seed gives
/// one input sequence on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// A uniform choice in [0, n); every choice is folded into digest().
  std::size_t below(std::size_t n) {
    const std::uint64_t v = next() % n;
    digest_ = (digest_ ^ v) * 0x100000001b3ull;
    return static_cast<std::size_t>(v);
  }
  bool percent(unsigned pct) { return below(100) < pct; }
  /// FNV-1a style digest of the choices made so far: equal digests mean
  /// equal generated inputs.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::uint64_t state_;
  std::uint64_t digest_{0xcbf29ce484222325ull};
};

/// Seed of an independent stream derived from (seed, index).
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t index);

/// One span of the traced run: a public call the benchmark made.
struct Span {
  const char* name{""};
  std::uint64_t id{0};       // episode or request id, shared by its spans
  std::int64_t parent{-1};   // index of the enclosing span, -1 at the top
  double start_us{0};
  double end_us{0};
  std::vector<std::pair<const char*, double>> args;
};

/// Spans kept in memory and written out when the run ends.  Disabled, every
/// call is a single branch, so untraced passes pay nothing measurable.
class Tracer {
 public:
  static constexpr std::int64_t kOff = -1;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  std::int64_t open(const char* name, std::uint64_t id, std::int64_t parent);
  void close(std::int64_t span);
  void arg(std::int64_t span, const char* key, double value);

  /// Chrome trace_event JSON ("X" events; args carry id, parent and the
  /// attached registry differences).
  void write_chrome(const std::string& path, const std::string& stamp_json) const;

  /// Per-span-name totals: count, total and self milliseconds (self = own
  /// duration minus the part covered by child spans).
  struct Row {
    std::uint64_t count{0};
    double total_ms{0};
    double self_ms{0};
  };
  [[nodiscard]] std::map<std::string, Row> table() const;

 private:
  bool enabled_{false};
  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
};

/// Cluster-wide totals of the registries the library exports: the wall-clock
/// profile, the network registry (message counts and weights per kind, daemon
/// counters), every live process's registry and the cost ledger.  A probe is
/// taken before and after a unit of work; the difference is what it cost.
struct Probe {
  enum Field : std::size_t {
    kMarkUs,
    kApplyUs,
    kLgcSummarizeUs,
    kCycleSummarizeUs,
    kSummarizeCalls,
    kDigestUs,
    kDetectUs,
    kInstallUs,
    kGcMsgs,       // NewSetStubs, Unreachable, Reclaim, CDM, Cut, PropCut
    kGcBytes,      // Σ net.weight.<kind> over the same kinds
    kAdgcMsgs,     // NewSetStubs, Unreachable, Reclaim
    kCdmMsgs,
    kCdmBytes,
    kPropagates,
    kReclaimed,    // lgc.reclaimed: replicas swept
    kTraced,       // Σ lgc.traced_per_collection
    kSummariesReused,
    kWastedTracks,  // aborts + subsumed + no-snapshot drops
    kReclaimLatSum,
    kReclaimLatCount,
    kE2eSum,
    kE2eCount,
    kCollections,
    kSweeps,
    kSkipped,
    kSnapshotBytes,
    kDaemonDetections,
    kCycles,
    kCount
  };
  std::array<double, kCount> v{};

  [[nodiscard]] static Probe take(const rgc::core::Cluster& cluster);
  [[nodiscard]] double operator[](Field f) const noexcept { return v[f]; }
  [[nodiscard]] Probe operator-(const Probe& o) const;
  Probe& operator+=(const Probe& o);
};

/// Which configuration a pass runs under.
enum class PassMode {
  kMeasured,  // library defaults, untraced: the end-to-end numbers
  kTraced,    // library defaults, spans recorded: the per-layer numbers
  kObsOff,    // auditor, recorder and ledger off, untraced
};

/// Everything one pass (set-up + measured phase + checks) produced.
struct PassResult {
  double setup_s{0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;
  std::uint64_t input_digest{0};  // digest of every generated input choice

  std::vector<double> gc_ms;  // batch: wall time of each run_full_gc episode
  std::vector<double> op_us;  // store: wall time of each request

  // Exact counts: a pass's seed and mode determine them bit for bit.
  std::vector<std::uint64_t> gc_steps;
  std::vector<double> floating_pct;  // store: Oracle garbage share samples
  Probe delta;  // registry differences over the measured phase

  // Batch workloads: Cluster::run_full_gc statistics summed over episodes.
  std::uint64_t gc_calls{0};
  std::uint64_t rounds{0};
  std::uint64_t detections{0};
  /// Summarizations per profile timer record: every process for
  /// run_full_gc's rounds, one for the daemon's per-process collections.
  std::size_t nodes_per_summarize{1};

  // store_daemon: wall time of each GraphStore::step and of each store call.
  std::vector<double> step_us;
  std::map<std::string, std::vector<double>> call_us;
};

struct Params {
  std::uint64_t seed{1};
  bool smoke{false};
};

/// Cluster configuration for a pass: library defaults, with the
/// observability layers switched off in PassMode::kObsOff.
[[nodiscard]] rgc::core::ClusterConfig cluster_config(PassMode mode);

PassResult run_mesh_gc(const Params& params, PassMode mode, Tracer& tracer);
PassResult run_heap_gc(const Params& params, PassMode mode, Tracer& tracer);
PassResult run_store_daemon(const Params& params, PassMode mode, Tracer& tracer);

[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace gcbench
