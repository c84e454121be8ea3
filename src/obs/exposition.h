#ifndef FARMER_OBS_EXPOSITION_H_
#define FARMER_OBS_EXPOSITION_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.h"

namespace farmer {
namespace obs {

/// Prometheus text exposition (format version 0.0.4) rendered from a
/// MetricsSnapshot, so a registry can be scraped live: the snapshot is
/// safe to take while every producer keeps updating, and rendering is
/// pure string work on the copy.
///
/// The registry keys metrics by a single flat name. Labeled series use
/// the composed form produced by LabeledName():
///
///   serve.op_latency_seconds{op="topk_confidence"}
///
/// The renderer splits that back into the metric family and its label
/// block, sanitizes both names into the Prometheus charset, groups all
/// series of one family under a single # HELP / # TYPE pair, and emits
/// histograms with cumulative `_bucket` lines, an `le="+Inf"` bucket,
/// and `_sum` / `_count` samples. The `+Inf` bucket and `_count` are
/// rendered from the same bucket total, so the invariant the format
/// requires holds even when the snapshot raced concurrent observers.

/// Maps `name` into [a-zA-Z_:][a-zA-Z0-9_:]*: every illegal byte
/// becomes '_', and a leading digit gets a '_' prefix.
std::string SanitizeMetricName(std::string_view name);

/// Like SanitizeMetricName but for label names, where ':' is illegal
/// too (it is reserved for recording rules).
std::string SanitizeLabelName(std::string_view name);

/// Escapes a label value for the text format: backslash, double quote
/// and newline become \\, \" and \n.
std::string EscapeLabelValue(std::string_view value);

/// One label as (name, value) string views.
using LabelView = std::pair<std::string_view, std::string_view>;

/// Composes the registry name for a labeled series:
///   LabeledName("serve.bytes_in", {{"shard", "0"}})
///     == "serve.bytes_in{shard=\"0\"}"
/// Label names are sanitized and values escaped here, so the renderer
/// can pass the block through verbatim.
std::string LabeledName(std::string_view base,
                        std::initializer_list<LabelView> labels);

/// Splits a registry name back into its family and raw label block
/// (the text between the braces; empty when the name is unlabeled).
void SplitLabeledName(std::string_view name, std::string* base,
                      std::string* labels);

/// Renders the whole snapshot as Prometheus text exposition. Counters
/// and gauges map to their native types; histograms emit cumulative
/// buckets. The output always ends with a newline.
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// The complete HTTP reply to a plain-HTTP scrape of `path`: 200 with
/// `registry`'s exposition for /metrics, 503 when no registry is
/// attached, 404 for any other path. The serve and farm listeners both
/// answer with it.
std::string ScrapeReply(std::string_view path,
                        const MetricsRegistry* registry);

}  // namespace obs
}  // namespace farmer

#endif  // FARMER_OBS_EXPOSITION_H_
