#include "lint/linter.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace jsrev::lint {

Linter::Linter(std::vector<std::unique_ptr<Rule>> rules)
    : rules_(std::move(rules)) {
  auto& reg = obs::metrics();
  hits_.reserve(rules_.size());
  for (const auto& rule : rules_) {
    hits_.push_back(
        reg.counter("lint.rule_hits", {{"rule", std::string(rule->id())}}));
  }
  scripts_ = reg.counter("lint.scripts");
  parse_failures_ = reg.counter("lint.parse_failures");
}

LintResult Linter::lint(const analysis::ScriptAnalysis& analysis) const {
  obs::Span span("lint.script", "lint");
  scripts_->add();
  LintResult result;
  if (analysis.parse_failed()) {
    parse_failures_->add();
    result.parse_failed = true;
    result.parse_error = analysis.parse_error();
    return result;
  }

  LintContext ctx;
  ctx.program = analysis.root();
  ctx.scopes = &analysis.scopes();
  ctx.dataflow = &analysis.dataflow();
  ctx.cfgs = &analysis.cfgs();

  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const std::size_t before = result.diagnostics.size();
    rules_[i]->run(ctx, &result.diagnostics);
    hits_[i]->add(result.diagnostics.size() - before);
  }
  return result;
}

std::vector<LintResult> Linter::lint_all(
    const std::vector<std::unique_ptr<analysis::ScriptAnalysis>>& scripts,
    std::size_t threads) const {
  std::vector<LintResult> results(scripts.size());
  parallel_for_threads(threads, scripts.size(), [&](std::size_t i) {
    results[i] = lint(*scripts[i]);
  });
  return results;
}

std::vector<double> lint_feature_vector(const LintResult& result) {
  std::vector<double> f(kLintFeatureDim, 0.0);
  std::vector<std::string_view> fired;
  for (const Diagnostic& d : result.diagnostics) {
    f[static_cast<std::size_t>(d.category)] += 1.0;
    f[kCategoryCount] += severity_weight(d.severity);
    fired.push_back(d.rule_id);
  }
  std::sort(fired.begin(), fired.end());
  f[kCategoryCount + 1] = static_cast<double>(
      std::unique(fired.begin(), fired.end()) - fired.begin());
  return f;
}

const std::vector<std::string>& lint_feature_names() {
  static const std::vector<std::string> names = {
      "malice_diags", "hygiene_diags", "weighted_score", "rules_fired"};
  return names;
}

}  // namespace jsrev::lint
