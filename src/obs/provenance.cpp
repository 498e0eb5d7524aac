#include "obs/provenance.h"

#include "obs/json.h"
#include "obs/metrics.h"

namespace jsrev::obs {

Summary* stage_summary(const char* stage) {
  return metrics().summary("stage_ms", {{"stage", stage}});
}

std::string VerdictProvenance::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("detector", detector);
  if (request_id != 0) {
    w.kv("request_id", static_cast<std::uint64_t>(request_id));
  }
  w.kv("verdict", verdict);
  w.kv("verdict_label", verdict == 1   ? "malicious"
                        : verdict == 0 ? "benign"
                                       : "unclassified");
  w.kv("source_bytes", source_bytes);
  w.kv("parse_failed", parse_failed);
  if (parse_failed) {
    w.kv("parse_error", parse_error);
    w.kv("parse_limit_trip", parse_limit_trip);
  }
  w.kv("path_count", path_count);
  w.kv("known_path_count", known_path_count);
  w.kv("paths_outside_clusters", paths_outside_clusters);
  w.kv("train_clusters_removed", train_clusters_removed);
  w.key("cluster_attention");
  w.begin_array();
  for (const ClusterAttention& c : cluster_attention) {
    w.begin_object();
    w.kv("feature_index", c.feature_index);
    w.kv("from_benign", c.from_benign);
    w.kv("mass", c.mass);
    w.end_object();
  }
  w.end_array();
  w.kv("lint_malice_diags", lint_malice_diags);
  w.kv("lint_hygiene_diags", lint_hygiene_diags);
  w.key("lint_rules_fired");
  w.begin_array();
  for (const std::string& r : lint_rules_fired) w.value(r);
  w.end_array();
  w.key("stage_ms");
  w.begin_object();
  w.kv("parse", stage_ms.parse);
  w.kv("enhanced_ast", stage_ms.enhanced_ast);
  w.kv("path_traversal", stage_ms.path_traversal);
  w.kv("embedding", stage_ms.embedding);
  w.kv("lint", stage_ms.lint);
  w.kv("classify", stage_ms.classify);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace jsrev::obs
