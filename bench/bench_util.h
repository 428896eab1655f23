// Machine-readable bench output: one JSONL record per datapoint.
//
// Every bench binary keeps printing its human-readable table on stdout;
// when the environment variable RGC_BENCH_JSONL names a file, each
// datapoint is *additionally* appended there as one JSON object per line:
//
//   $ RGC_BENCH_JSONL=bench.jsonl ./bench_fig9_cdm_totals
//   $ jq 'select(.bench=="fig9") | [.R, .deps, .ours_cdms]' bench.jsonl
//
// Append semantics let one file collect a whole harness run across
// binaries.  With the variable unset this header costs one getenv per
// record and writes nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/trace.h"  // json_escape

namespace rgc::bench {

/// Median and spread of repeated measurements of one quantity.  `spread`
/// is the interquartile range over the median (0.1 = the middle half of
/// the runs lies within 10% of the median); quartiles interpolate linearly
/// between order statistics.
struct Repeated {
  double median{0};
  double spread{0};
};

inline Repeated repeated(std::vector<double> runs) {
  if (runs.empty()) return {};
  std::sort(runs.begin(), runs.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(runs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, runs.size() - 1);
    return runs[lo] + (runs[hi] - runs[lo]) * (pos - static_cast<double>(lo));
  };
  const double median = quantile(0.5);
  return {median, median != 0 ? (quantile(0.75) - quantile(0.25)) / median : 0};
}

/// Builder for one JSONL record; emits on destruction (or emit()).
class RunRecord {
 public:
  explicit RunRecord(const std::string& bench) {
    const char* path = std::getenv("RGC_BENCH_JSONL");
    if (path == nullptr || path[0] == '\0') return;
    path_ = path;
    line_ = "{\"bench\":\"" + util::json_escape(bench) + "\"";
  }

  RunRecord(const RunRecord&) = delete;
  RunRecord& operator=(const RunRecord&) = delete;
  ~RunRecord() { emit(); }

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  RunRecord& field(const std::string& key, T value) {
    return raw(key, std::to_string(value));
  }
  RunRecord& field(const std::string& key, double value) {
    return raw(key, std::to_string(value));
  }
  RunRecord& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  RunRecord& field(const std::string& key, const std::string& value) {
    return raw(key, "\"" + util::json_escape(value) + "\"");
  }
  RunRecord& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }

  /// Appends the record to $RGC_BENCH_JSONL; no-op when disabled or
  /// already emitted.
  void emit() {
    if (path_.empty()) return;
    std::ofstream os(path_, std::ios::app);
    if (os) os << line_ << "}\n";
    path_.clear();
  }

 private:
  RunRecord& raw(const std::string& key, const std::string& rendered) {
    if (!path_.empty()) {
      line_ += ",\"" + util::json_escape(key) + "\":" + rendered;
    }
    return *this;
  }

  std::string path_;
  std::string line_;
};

}  // namespace rgc::bench
