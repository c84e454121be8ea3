#include "obs/exposition.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "util/net.h"

namespace farmer {
namespace obs {

namespace {

bool LegalFirst(char c, bool allow_colon) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         (allow_colon && c == ':');
}

bool LegalRest(char c, bool allow_colon) {
  return LegalFirst(c, allow_colon) || (c >= '0' && c <= '9');
}

std::string Sanitize(std::string_view name, bool allow_colon) {
  std::string out;
  out.reserve(name.size() + 1);
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (i == 0) {
      if (c >= '0' && c <= '9') out.push_back('_');
      out.push_back(LegalRest(c, allow_colon) ? c : '_');
    } else {
      out.push_back(LegalRest(c, allow_colon) ? c : '_');
    }
  }
  if (out.empty()) out = "_";
  return out;
}

/// Sample values. The format spells non-finite doubles out (unlike the
/// JSON exporters, which have no representation for them).
std::string Number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// HELP text: backslash and newline get escaped; the text is the raw
/// registry name, which documents where the sample came from.
std::string EscapeHelp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// One series of a family: its raw label block plus an index into the
/// snapshot's per-kind vector.
struct Series {
  std::string labels;
  std::size_t index = 0;
};

/// Family key -> (raw base name of the first series seen, series list).
struct Family {
  std::string raw_base;
  std::vector<Series> series;
};

using FamilyMap = std::map<std::string, Family>;

template <typename Vec>
FamilyMap GroupFamilies(const Vec& entries) {
  FamilyMap families;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::string base;
    std::string labels;
    SplitLabeledName(entries[i].name, &base, &labels);
    Family& fam = families[SanitizeMetricName(base)];
    if (fam.series.empty()) fam.raw_base = base;
    fam.series.push_back(Series{std::move(labels), i});
  }
  return families;
}

void AppendHeader(const std::string& name, const Family& fam,
                  const char* type, std::string* out) {
  *out += "# HELP " + name + " " + EscapeHelp(fam.raw_base) + "\n";
  *out += "# TYPE " + name + " ";
  *out += type;
  *out += "\n";
}

/// `name{labels} value` (or `name value` when unlabeled).
void AppendSample(const std::string& name, const std::string& labels,
                  const std::string& value, std::string* out) {
  *out += name;
  if (!labels.empty()) *out += "{" + labels + "}";
  *out += " " + value + "\n";
}

/// Joins a series' label block with one extra label (`le` for
/// histogram buckets).
std::string WithLabel(const std::string& labels, const std::string& extra) {
  return labels.empty() ? extra : labels + "," + extra;
}

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  return Sanitize(name, /*allow_colon=*/true);
}

std::string SanitizeLabelName(std::string_view name) {
  return Sanitize(name, /*allow_colon=*/false);
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string LabeledName(std::string_view base,
                        std::initializer_list<LabelView> labels) {
  std::string out(base);
  if (labels.size() == 0) return out;
  out.push_back('{');
  bool first = true;
  for (const LabelView& label : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += SanitizeLabelName(label.first);
    out += "=\"";
    out += EscapeLabelValue(label.second);
    out += "\"";
  }
  out.push_back('}');
  return out;
}

void SplitLabeledName(std::string_view name, std::string* base,
                      std::string* labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    base->assign(name);
    labels->clear();
    return;
  }
  base->assign(name.substr(0, brace));
  labels->assign(name.substr(brace + 1, name.size() - brace - 2));
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  // A family name may only carry one TYPE; collisions across kinds
  // (a counter and a gauge sanitizing to the same family) are a
  // registry bug, flagged as a comment rather than emitted as a
  // format violation.
  std::map<std::string, char> seen;
  const auto claim = [&seen, &out](const std::string& name) {
    if (seen.emplace(name, 'x').second) return true;
    out += "# farmer: skipped family '" + name + "' (type collision)\n";
    return false;
  };

  for (const auto& [name, fam] : GroupFamilies(snapshot.counters)) {
    if (!claim(name)) continue;
    AppendHeader(name, fam, "counter", &out);
    for (const Series& s : fam.series) {
      AppendSample(name, s.labels,
                   std::to_string(snapshot.counters[s.index].value), &out);
    }
  }
  for (const auto& [name, fam] : GroupFamilies(snapshot.gauges)) {
    if (!claim(name)) continue;
    AppendHeader(name, fam, "gauge", &out);
    for (const Series& s : fam.series) {
      AppendSample(name, s.labels, Number(snapshot.gauges[s.index].value),
                   &out);
    }
  }
  for (const auto& [name, fam] : GroupFamilies(snapshot.histograms)) {
    if (!claim(name)) continue;
    AppendHeader(name, fam, "histogram", &out);
    for (const Series& s : fam.series) {
      const MetricsSnapshot::HistogramValue& h =
          snapshot.histograms[s.index];
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.bounds.size(); ++b) {
        cumulative += b < h.buckets.size() ? h.buckets[b] : 0;
        AppendSample(
            name + "_bucket",
            WithLabel(s.labels, "le=\"" + Number(h.bounds[b]) + "\""),
            std::to_string(cumulative), &out);
      }
      if (h.buckets.size() > h.bounds.size()) {
        cumulative += h.buckets[h.bounds.size()];
      }
      // +Inf and _count render the same bucket total: the format
      // requires them equal, and the histogram's own count field can
      // lag the buckets when the snapshot races an Observe().
      AppendSample(name + "_bucket", WithLabel(s.labels, "le=\"+Inf\""),
                   std::to_string(cumulative), &out);
      AppendSample(name + "_sum", s.labels, Number(h.sum), &out);
      AppendSample(name + "_count", s.labels, std::to_string(cumulative),
                   &out);
    }
  }
  return out;
}

std::string ScrapeReply(std::string_view path,
                        const MetricsRegistry* registry) {
  if (path != "/metrics") {
    return net::HttpResponse("404 Not Found", "text/plain",
                             "try GET /metrics\n");
  }
  if (registry == nullptr) {
    return net::HttpResponse("503 Service Unavailable", "text/plain",
                             "no metrics registry attached\n");
  }
  return net::HttpResponse("200 OK",
                           "text/plain; version=0.0.4; charset=utf-8",
                           RenderPrometheus(registry->Snapshot()));
}

}  // namespace obs
}  // namespace farmer
