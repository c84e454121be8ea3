#ifndef FARMER_PERFBENCH_REPORT_H_
#define FARMER_PERFBENCH_REPORT_H_

// Metric bookkeeping shared by the benchmark's phases: summary
// statistics, the per-run metric table, the pass/fail ledger and the
// JSON rendering of all of it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace farmer {
namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty set.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

/// Median with the usual midpoint for even counts.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A number with all its digits (round-trips through a double parse).
inline std::string FullNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON string literal of `s`. obs::JsonEscape emits \u00XX for every
/// control character, so arbitrary bytes below 0x20 stay valid JSON.
inline std::string JsonString(const std::string& s) {
  return '"' + obs::JsonEscape(s) + '"';
}

struct MetricValue {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::vector<double> raw;  // The samples themselves, when kept.
};

/// Everything one run reports: metrics by name, the attempted/failed
/// ledger, and the messages of failed checks.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics_[name] = MetricValue{value, unit, samples, {}};
  }

  /// The median of `raw`, keeping the samples for the results file.
  void SetMedian(const std::string& name, std::vector<double> raw,
                 const std::string& unit) {
    metrics_[name] = MetricValue{Median(raw), unit, raw.size(), std::move(raw)};
  }

  void Attempt(std::size_t n = 1) { attempted_ += n; }

  /// Records one failed operation or check (it must also be attempted).
  void Fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::map<std::string, MetricValue>& metrics() const {
    return metrics_;
  }

  /// {"attempted":..,"failed":..,"failures":[..],"metrics":{name:
  /// {"value":..,"unit":..,"samples":..[,"raw":[..]]}}} plus the
  /// caller's `context` fields (already-rendered "key": value pairs).
  std::string ToJson(const std::vector<std::pair<std::string, std::string>>&
                         context) const {
    std::string out = "{";
    for (const auto& [key, value] : context) {
      out += JsonString(key) + ": " + value + ", ";
    }
    out += "\"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) + ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(failures_[i]);
    }
    out += "], \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      if (!first) out += ", ";
      first = false;
      out += "\n  " + JsonString(name) + ": {\"value\": " +
             FullNumber(m.value) + ", \"unit\": " + JsonString(m.unit) +
             ", \"samples\": " + std::to_string(m.samples);
      if (!m.raw.empty()) {
        out += ", \"raw\": [";
        for (std::size_t i = 0; i < m.raw.size(); ++i) {
          if (i > 0) out += ", ";
          out += FullNumber(m.raw[i]);
        }
        out += "]";
      }
      out += "}";
    }
    out += "}}\n";
    return out;
  }

 private:
  std::map<std::string, MetricValue> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
}  // namespace farmer

#endif  // FARMER_PERFBENCH_REPORT_H_
