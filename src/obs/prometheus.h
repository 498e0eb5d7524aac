// Prometheus text exposition (format 0.0.4) over the obs metrics registry.
//
// One exporter, two consumers: render_prometheus() formats a vector of
// MetricSample rows, which can come either straight from a live Registry
// (the admin plane's GET /metrics) or from a drained Registry::to_json()
// snapshot via samples_from_metrics_json() (`jsr_stats --prom`, STATS-frame
// consumers). Both paths produce byte-identical text for the same values —
// the round-trip unit test pins this.
//
// Mapping rules (documented in DESIGN.md §16):
//  * names: "jsr_" + the registry name with every character outside
//    [a-zA-Z0-9_] replaced by '_' (so "serve.latency_ms" →
//    "jsr_serve_latency_ms")
//  * Unit::kMillis metrics convert to Prometheus base seconds: a trailing
//    "_ms" is stripped, "_seconds" appended, and every value (sum, bounds)
//    scaled by 1e-3
//  * Unit::kBytes metrics get a "_bytes" suffix when not already present
//  * counters get the conventional "_total" suffix
//  * summaries render as <name>_sum / <name>_count; histograms as cumulative
//    <name>_bucket{le="..."} rows (inclusive upper bounds, final le="+Inf"
//    equal to _count) plus _sum / _count
//  * label values escape \, ", and newline per the exposition spec
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace jsrev::obs {

/// Prometheus-legal metric family name for a registry metric ("jsr_" prefix,
/// sanitized, unit suffix applied; no kind suffix like _total/_bucket).
std::string prometheus_name(std::string_view registry_name, Unit unit);

/// Renders sample rows as Prometheus text exposition. Rows must be sorted
/// by (name, labels) — Registry::samples() and samples_from_metrics_json()
/// both guarantee this.
std::string render_prometheus(const std::vector<MetricSample>& samples);

/// Convenience: snapshot + render in one call (GET /metrics).
std::string render_prometheus(const Registry& registry);

/// Rebuilds sample rows from a Registry::to_json() document (the drained
/// snapshot a STATS frame or `jsr_stats --metrics` produces). Returns false
/// and fills `error` when the document does not carry the expected shape,
/// or when a count or bucket is not an integer in [0, 2^64).
bool samples_from_metrics_json(std::string_view json,
                               std::vector<MetricSample>* out,
                               std::string* error = nullptr);

/// Structural validator for Prometheus text exposition: legal metric names,
/// every sample line parses, HELP/TYPE lines well-formed, histogram le
/// bucket counts cumulative and capped by _count, summary/histogram _sum and
/// _count present. Used by the admin tests and `jsr_stats --validate`.
bool validate_prometheus_text(std::string_view text,
                              std::string* error = nullptr);

}  // namespace jsrev::obs
