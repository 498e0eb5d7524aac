// The lint driver: executes every registered rule over one script's shared
// LintContext (AST + scope/data-flow/CFG analyses).
//
// Lint reads a ScriptAnalysis, the parse-once layer every detector reads:
// it reuses whatever the caller (e.g. the detector's featurizer) already
// computed, so a script is never parsed twice on lint's account. A caller
// with raw text builds the analysis with the frontend it wants linted
// (jsr_lint, the featurizer's model frontend).
//
// lint() is const and thread-safe (rules are stateless), so lint_all() fans
// scripts out across the shared ThreadPool with the repository's determinism
// discipline: per-script results land in index slots, and within one script
// rules run in registration order — output is bit-identical at any width.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "analysis/script_analysis.h"
#include "lint/registry.h"
#include "lint/rule.h"
#include "obs/metrics.h"

namespace jsrev::lint {

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // rule order, then source order
  bool parse_failed = false;
  std::string parse_error;  // populated when parse_failed
};

class Linter {
 public:
  /// Default-constructs with the full built-in rule set.
  Linter() : Linter(make_default_rules()) {}
  explicit Linter(std::vector<std::unique_ptr<Rule>> rules);

  const std::vector<std::unique_ptr<Rule>>& rules() const { return rules_; }

  /// Lints one analyzed script, sharing its memoized scope/data-flow/CFG
  /// artifacts with every other consumer of the same ScriptAnalysis. Parse
  /// failures are reported in the result, not thrown; rules run only on
  /// parseable input.
  LintResult lint(const analysis::ScriptAnalysis& analysis) const;

  /// Lints many analyzed scripts, fanning out per script at the given width
  /// (0 = hardware concurrency, 1 = serial). Deterministic at any width.
  std::vector<LintResult> lint_all(
      const std::vector<std::unique_ptr<analysis::ScriptAnalysis>>& scripts,
      std::size_t threads = 0) const;

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
  // Registry handles resolved once at construction (the registry lookup is
  // mutex-guarded; lint() runs on the hot fan-out path). hits_[i] counts the
  // diagnostics rules_[i] produced, labelled {rule=<id>}.
  std::vector<obs::Counter*> hits_;
  obs::Counter* scripts_ = nullptr;
  obs::Counter* parse_failures_ = nullptr;
};

/// Width of the per-script lint summary vector appended to the detector's
/// features when Config::lint_features is on:
///   [malice count, hygiene count, severity-weighted score, distinct rules].
inline constexpr std::size_t kLintFeatureDim =
    static_cast<std::size_t>(kCategoryCount) + 2;

/// Summary vector for one lint result (all zeros on parse failure).
std::vector<double> lint_feature_vector(const LintResult& result);

/// Human-readable names of the summary vector's components.
const std::vector<std::string>& lint_feature_names();

}  // namespace jsrev::lint
