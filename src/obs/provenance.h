// Per-verdict provenance: an opt-in record explaining how one script's
// verdict came about.
//
// A detector that supports provenance (JsRevealer::explain, or any classify
// over a ScriptAnalysis whose provenance capture is enabled) fills one of
// these as the pipeline runs: what the frontend saw, how many path contexts
// were extracted and recognized, where the attention mass landed among the
// trained clusters, which lint rules fired, and how long each stage took.
// The record is plain data — dump it with to_json() and attach it to an
// incident, a regression report, or a `jsr_stats --explain` invocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace jsrev::obs {

class Summary;

/// Per-stage durations of one script's classification (milliseconds).
struct StageDurationsMs {
  double parse = 0.0;
  double enhanced_ast = 0.0;    // scope + data-flow augmentation
  double path_traversal = 0.0;  // path-context enumeration
  double embedding = 0.0;
  double lint = 0.0;
  double classify = 0.0;        // classifier predict
};

/// The registry summary `stage_ms{stage=<stage>}` (kMillis): the one
/// per-stage timing series. Each stage books one sample where its work runs:
/// `parse` in ScriptAnalysis, `enhanced_ast`, `path_traversal`, `embedding`,
/// `lint` and `classify` in ModelView's inference body, and the training
/// stages (`pretraining`, `outlier`, `clustering`, `classifier_train`) in
/// JsRevealer::train. Table VIII, `jsr_stats --metrics/--prom`, the STATS
/// frame and `/metrics` all read it. Takes the registry mutex: hot call
/// sites cache the pointer.
Summary* stage_summary(const char* stage);

/// Attention mass a script deposited on one surviving cluster feature.
struct ClusterAttention {
  int feature_index = 0;
  bool from_benign = false;  // cluster learned from the benign path set
  double mass = 0.0;         // accumulated attention weight (paper Eq. 2)
};

struct VerdictProvenance {
  std::string detector;
  int verdict = -1;  // 1 = malicious, 0 = benign, -1 = not classified yet

  /// Wire correlation handle: the serving layer stamps the kClassify frame's
  /// id here, so a provenance record joins against the daemon's structured
  /// logs and trace spans for the same request. 0 = not serving a frame.
  std::uint32_t request_id = 0;

  // Frontend.
  std::size_t source_bytes = 0;
  bool parse_failed = false;
  std::string parse_error;       // populated when parse_failed
  bool parse_limit_trip = false; // failure came from a ParseLimits bound

  // Path extraction / embedding.
  std::size_t path_count = 0;        // extracted path contexts
  std::size_t known_path_count = 0;  // of those, in the trained vocabulary
  /// Embedded paths farther than the 4-radius cutoff from every cluster —
  /// the per-script analogue of training-time outlier removal.
  std::size_t paths_outside_clusters = 0;

  // Feature extraction: nonzero attention mass per surviving cluster.
  std::vector<ClusterAttention> cluster_attention;
  /// Clusters the training stage dropped as benign/malicious overlap
  /// (model-level context, identical for every script of one detector).
  std::size_t train_clusters_removed = 0;

  // Lint (only populated when the detector runs with lint features).
  std::size_t lint_malice_diags = 0;
  std::size_t lint_hygiene_diags = 0;
  std::vector<std::string> lint_rules_fired;  // distinct ids, sorted

  StageDurationsMs stage_ms;

  /// Deterministic JSON rendering of the record.
  std::string to_json() const;
};

}  // namespace jsrev::obs
