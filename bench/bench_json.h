#ifndef FARMER_BENCH_BENCH_JSON_H_
#define FARMER_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define FARMER_BENCH_HAS_RUSAGE 1
#endif

#include "obs/metrics.h"
#include "util/simd/simd.h"

namespace farmer {
namespace bench {

/// One benchmark measurement: a flat bag of string/number fields rendered
/// as a JSON object. Shared by all bench binaries so their outputs have a
/// uniform machine-readable shape.
class JsonRecord {
 public:
  JsonRecord& Str(const std::string& key, const std::string& value) {
    fields_.push_back('"' + obs::JsonEscape(key) + "\": \"" +
                      obs::JsonEscape(value) + '"');
    return *this;
  }

  JsonRecord& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.push_back('"' + obs::JsonEscape(key) + "\": " + buf);
    return *this;
  }

  JsonRecord& Int(const std::string& key, long long value) {
    fields_.push_back('"' + obs::JsonEscape(key) + "\": " +
                      std::to_string(value));
    return *this;
  }

  JsonRecord& Bool(const std::string& key, bool value) {
    fields_.push_back('"' + obs::JsonEscape(key) + "\": " +
                      (value ? "true" : "false"));
    return *this;
  }

  /// Embeds `json` verbatim as the value of `key` — for pre-rendered
  /// sub-objects such as MinerStats::ToJson(). The caller guarantees
  /// `json` is well-formed.
  JsonRecord& Raw(const std::string& key, const std::string& json) {
    fields_.push_back('"' + obs::JsonEscape(key) + "\": " + json);
    return *this;
  }

  std::string Render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += fields_[i];
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::string> fields_;
};

/// Collects JsonRecords and writes them as a JSON array to
/// `BENCH_<name>.json` in the working directory when the writer goes out
/// of scope (or on an explicit Flush).
class JsonWriter {
 public:
  /// `name` is the bench name, e.g. "fig10_minsup" -> BENCH_fig10_minsup.json.
  explicit JsonWriter(const std::string& name)
      : path_("BENCH_" + name + ".json") {}

  ~JsonWriter() { Flush(); }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Appends the record plus process resource telemetry (peak RSS and
  /// cumulative user/system CPU time from getrusage) and the active
  /// SIMD kernel tier, so every entry of a BENCH_*.json file carries
  /// memory and ISA context for free.
  void Add(const JsonRecord& record) {
    JsonRecord r = record;
    AppendResourceTelemetry(&r);
    records_.push_back(r.Render());
  }

  const std::string& path() const { return path_; }

  /// Writes all records collected so far; safe to call repeatedly (each
  /// call rewrites the whole file, so a crashed run still leaves valid
  /// JSON from the last flush).
  void Flush() {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
  }

 private:
  static void AppendResourceTelemetry(JsonRecord* r) {
    r->Str("simd_level", simd::LevelName(simd::ActiveLevel()));
#ifdef FARMER_BENCH_HAS_RUSAGE
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0) return;
#if defined(__APPLE__)
    const long long peak_kb = ru.ru_maxrss / 1024;  // Reported in bytes.
#else
    const long long peak_kb = ru.ru_maxrss;  // Reported in KiB.
#endif
    const auto tv_seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    r->Int("peak_rss_kb", peak_kb);
    r->Num("cpu_user_s", tv_seconds(ru.ru_utime));
    r->Num("cpu_sys_s", tv_seconds(ru.ru_stime));
#else
    (void)r;
#endif
  }

  std::string path_;
  std::vector<std::string> records_;
};

}  // namespace bench
}  // namespace farmer

#endif  // FARMER_BENCH_BENCH_JSON_H_
