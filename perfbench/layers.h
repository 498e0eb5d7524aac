// The traced per-layer pass: times calls into each module's public
// functions, one script at a time on one thread, in the order the detector
// itself runs them. Nothing inside src/ is instrumented.
#pragma once

#include <string>
#include <vector>

#include "core/model_view.h"
#include "workloads.h"

namespace perfbench {

/// One per-request stage: its per-script samples in ms, and whether the
/// served model runs it (stages it does not run — deob and lint when the
/// model was trained without them — are measured but left out of the sum).
struct Stage {
  std::string name;  // metric name, e.g. "js.parse_ms"
  bool in_model = true;
  std::vector<double> ms;
};

struct LayerReport {
  std::vector<Stage> stages;
  double deob_iterations = 0.0;  // means per script
  double paths_count = 0.0;
  double cap_hit_ratio = 0.0;    // share of scripts at PathConfig::max_paths
  double vocab_hit_ratio = 0.0;  // known paths / extracted paths
  double lint_diags = 0.0;
  double stage_sum_ms = 0.0;     // sum of in-model stage means
};

/// Traces the first `limit` requests through the stages of `view`'s
/// pipeline, `repeats` times each; per request and stage the fastest
/// repetition counts, as the fastest pass does for detect_ms.
LayerReport trace_layers(const jsrev::core::ModelView& view,
                         const std::vector<Request>& requests,
                         std::size_t limit, int repeats);

double mean(const std::vector<double>& v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
