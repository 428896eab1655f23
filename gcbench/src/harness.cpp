#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace gcbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  Rng r(seed ^ (index * 0xd1b54a32d192ed03ull + 0x2545f4914f6cdd1dull));
  return r.next();
}

std::int64_t Tracer::open(const char* name, std::uint64_t id, std::int64_t parent) {
  if (!enabled_) return kOff;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_us = us_between(origin_, Clock::now());
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t span) {
  if (span == kOff) return;
  spans_[static_cast<std::size_t>(span)].end_us = us_between(origin_, Clock::now());
}

void Tracer::arg(std::int64_t span, const char* key, double value) {
  if (span == kOff) return;
  spans_[static_cast<std::size_t>(span)].args.emplace_back(key, value);
}

void Tracer::write_chrome(const std::string& path, const std::string& stamp_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [\n", stamp_json.c_str());
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
               "\"args\": {\"name\": \"gcbench\"}}");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"id\": %llu, "
                 "\"parent\": %lld",
                 s.name, s.start_us, s.end_us - s.start_us, i,
                 static_cast<unsigned long long>(s.id), static_cast<long long>(s.parent));
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ", \"%s\": %.17g", key, std::isfinite(value) ? value : 0.0);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, Tracer::Row> Tracer::table() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_us - spans_[i].start_us;
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total_ms += dur / 1000.0;
    r.self_ms += (dur - child_us[i]) / 1000.0;
  }
  return rows;
}

namespace {

constexpr const char* kGcKinds[] = {"NewSetStubs", "Unreachable", "Reclaim",
                                    "CDM",         "Cut",         "PropCut"};
constexpr const char* kAdgcKinds[] = {"NewSetStubs", "Unreachable", "Reclaim"};

double hist_sum(const rgc::util::Metrics& m, const char* name) {
  const rgc::util::Histogram* h = m.find_histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum());
}

double hist_count(const rgc::util::Metrics& m, const char* name) {
  const rgc::util::Histogram* h = m.find_histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->count());
}

}  // namespace

Probe Probe::take(const rgc::core::Cluster& cluster) {
  Probe p;
  const rgc::util::Metrics& prof = cluster.profile();
  p.v[kMarkUs] = hist_sum(prof, "lgc.mark_us");
  p.v[kApplyUs] = hist_sum(prof, "lgc.apply_us");
  p.v[kLgcSummarizeUs] = hist_sum(prof, "lgc.summarize_us");
  p.v[kCycleSummarizeUs] = hist_sum(prof, "cycle.summarize_us");
  p.v[kSummarizeCalls] =
      hist_count(prof, "lgc.summarize_us") + hist_count(prof, "cycle.summarize_us");
  p.v[kDigestUs] = hist_sum(prof, "adgc.digest_us");
  p.v[kDetectUs] = hist_sum(prof, "cycle.detect_us");
  p.v[kInstallUs] = hist_sum(prof, "cycle.install_us");

  const rgc::util::Metrics& net = cluster.network().metrics();
  const std::string sent = "net.sent.";
  const std::string weight = "net.weight.";
  for (const char* kind : kGcKinds) {
    p.v[kGcMsgs] += static_cast<double>(net.get(sent + kind));
    p.v[kGcBytes] += static_cast<double>(net.get(weight + kind));
  }
  for (const char* kind : kAdgcKinds) {
    p.v[kAdgcMsgs] += static_cast<double>(net.get(sent + kind));
  }
  p.v[kCdmMsgs] = static_cast<double>(net.get("net.sent.CDM"));
  p.v[kCdmBytes] = static_cast<double>(net.get("net.weight.CDM"));
  p.v[kPropagates] = static_cast<double>(net.get("net.sent.Propagate"));
  p.v[kCollections] = static_cast<double>(net.get("daemon.collections"));
  p.v[kSweeps] = static_cast<double>(net.get("daemon.sweeps"));
  p.v[kSkipped] = static_cast<double>(net.get("daemon.skipped_sweeps") +
                                      net.get("daemon.skipped_collections"));
  p.v[kSnapshotBytes] = static_cast<double>(net.get("daemon.snapshot_bytes"));
  p.v[kDaemonDetections] = static_cast<double>(net.get("daemon.detections_started"));

  for (rgc::ProcessId pid : cluster.process_ids()) {
    const rgc::util::Metrics& m = cluster.process(pid).metrics();
    p.v[kReclaimed] += static_cast<double>(m.get("lgc.reclaimed"));
    p.v[kTraced] += hist_sum(m, "lgc.traced_per_collection");
    p.v[kSummariesReused] += static_cast<double>(m.get("cycle.summarize_reused"));
    p.v[kWastedTracks] += static_cast<double>(
        m.get("cycle.aborts_live") + m.get("cycle.aborts_race") +
        m.get("cycle.drops_subsumed") + m.get("cycle.drops_no_snapshot"));
    p.v[kReclaimLatSum] += hist_sum(m, "gc.reclaim_latency_steps");
    p.v[kReclaimLatCount] += hist_count(m, "gc.reclaim_latency_steps");
  }
  if (const rgc::obs::Ledger* ledger = cluster.ledger()) {
    p.v[kE2eSum] = hist_sum(ledger->metrics(), "ledger.e2e_steps");
    p.v[kE2eCount] = hist_count(ledger->metrics(), "ledger.e2e_steps");
  }
  p.v[kCycles] = static_cast<double>(cluster.cycles_found().size());
  return p;
}

Probe Probe::operator-(const Probe& o) const {
  Probe d;
  for (std::size_t i = 0; i < kCount; ++i) d.v[i] = v[i] - o.v[i];
  return d;
}

Probe& Probe::operator+=(const Probe& o) {
  for (std::size_t i = 0; i < kCount; ++i) v[i] += o.v[i];
  return *this;
}

rgc::core::ClusterConfig cluster_config(PassMode mode) {
  rgc::core::ClusterConfig config{};
  if (mode == PassMode::kObsOff) {
    config.audit_interval = 0;
    config.record_capacity = 0;
    config.ledger_capacity = 0;
  }
  return config;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace gcbench
