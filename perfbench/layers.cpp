#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "analysis/script_analysis.h"
#include "deob/deob.h"
#include "js/parser.h"
#include "js/printer.h"
#include "lint/linter.h"
#include "paths/path_extraction.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

LayerReport trace_layers(const jsrev::core::ModelView& view,
                         const std::vector<Request>& requests,
                         std::size_t limit, int repeats) {
  namespace js = jsrev::js;
  const auto hdr = view.info().header;
  jsrev::paths::PathConfig cfg;
  cfg.max_length = static_cast<int>(hdr.path_max_length);
  cfg.max_width = static_cast<int>(hdr.path_max_width);
  cfg.use_dataflow = (hdr.flags & jsrev::core::fmt::kFlagUseDataflow) != 0;
  const bool model_deob = view.deobfuscate();
  const bool model_lint = hdr.lint_dim != 0;
  const js::ParseLimits limits = view.parse_limits();
  const jsrev::lint::Linter linter;

  enum { kParse, kDeob, kReparse, kScope, kDataflow, kExtract, kVocab,
         kFeatures, kLint, kForest, kStages };
  LayerReport rep;
  rep.stages = {{"js.parse_ms", true, {}},
                {"deob.ms", model_deob, {}},
                {"deob.reparse_ms", model_deob, {}},
                {"analysis.scope_ms", true, {}},
                {"analysis.dataflow_ms", cfg.use_dataflow || model_lint, {}},
                {"paths.extract_ms", true, {}},
                {"paths.vocab_ms", true, {}},
                {"core.features_ms", true, {}},
                {"lint.ms", model_lint, {}},
                {"ml.forest_ms", true, {}}};

  const std::size_t n = std::min(limit, requests.size());
  double iterations = 0.0, paths = 0.0, cap_hits = 0.0, lint_diags = 0.0;
  std::size_t extracted = 0, known = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& src = requests[i].source;
    // Stages that are differences of timings (features, forest) and lint's
    // rules part are derived from the fastest of each timing, not the
    // fastest difference.
    double best[kStages];
    std::fill(best, best + kStages, HUGE_VAL);
    double rules = HUGE_VAL, feat = HUGE_VAL, warm = HUGE_VAL, cls = HUGE_VAL;
    for (int r = 0; r < repeats; ++r) {
      // Counts come from the first repetition only.
      const double count = r == 0 ? 1.0 : 0.0;
      double t[kStages] = {};

      bool parsed = true;
      t[kParse] = time_ms([&] {
        try {
          (void)js::parse(src, limits);
        } catch (const std::exception&) {
          parsed = false;
        }
      });
      if (parsed) {
        js::Ast ast = js::parse(src, limits);
        t[kDeob] = time_ms([&] {
          iterations += count * jsrev::deob::deobfuscate_ast(ast).iterations;
        });
        t[kReparse] = time_ms([&] {
          try {
            (void)js::parse(js::print(ast.root, js::PrintStyle::kPretty),
                            limits);
          } catch (const std::exception&) {
          }
        });
      }

      // The served pipeline proper, on one analysis as the daemon builds it.
      jsrev::analysis::ScriptAnalysis a(src, limits, model_deob);
      (void)a.parse_failed();
      if (!a.parse_failed()) {
        t[kScope] = time_ms([&] { (void)a.scopes(); });
        t[kDataflow] = time_ms([&] { (void)a.dataflow(); });
        // Lint pays the CFGs here, so the featurizer's own lint call below
        // runs warm and `rules_ms` is what it costs inside featurize.
        t[kLint] = time_ms([&] { (void)a.cfgs(); });
        const double rules_ms = time_ms([&] {
          lint_diags +=
              count * static_cast<double>(linter.lint(a).diagnostics.size());
        });
        std::vector<jsrev::paths::PathContext> pcs;
        t[kExtract] = time_ms([&] {
          pcs = jsrev::paths::extract_paths(
              a.root(), cfg.use_dataflow ? &a.dataflow() : nullptr, cfg);
        });
        paths += count * static_cast<double>(pcs.size());
        if (pcs.size() >= cfg.max_paths) cap_hits += count;
        std::size_t hits = 0;
        t[kVocab] = time_ms([&] {
          for (const auto& pc : pcs) {
            hits += view.vocab().lookup(pc) >= 0 ? 1 : 0;
          }
        });
        if (r == 0) {
          known += hits;
          extracted += pcs.size();
        }
        const auto featurize = [&] {
          return time_ms([&] {
            try {
              (void)view.featurize(a);
            } catch (const std::exception&) {
            }
          });
        };
        feat = std::min(feat, featurize());
        // classify = featurize + forest; both timed warm, back to back, since
        // the first featurize runs measurably slower than a repeat.
        warm = std::min(warm, featurize());
        cls = std::min(cls, time_ms([&] { (void)view.classify(a); }));
        rules = std::min(rules, rules_ms);
      }
      for (int s = 0; s < kStages; ++s) best[s] = std::min(best[s], t[s]);
    }
    if (cls < HUGE_VAL) {
      best[kLint] += rules;
      best[kFeatures] =
          feat - best[kExtract] - best[kVocab] - (model_lint ? rules : 0.0);
      best[kForest] = cls - warm;
    }
    for (int s = 0; s < kStages; ++s) rep.stages[s].ms.push_back(best[s]);
  }

  const double dn = n == 0 ? 1.0 : static_cast<double>(n);
  rep.deob_iterations = iterations / dn;
  rep.paths_count = paths / dn;
  rep.cap_hit_ratio = cap_hits / dn;
  rep.lint_diags = lint_diags / dn;
  rep.vocab_hit_ratio =
      extracted == 0 ? 0.0
                     : static_cast<double>(known) /
                           static_cast<double>(extracted);
  for (const Stage& s : rep.stages) {
    if (s.in_model) rep.stage_sum_ms += mean(s.ms);
  }
  return rep;
}

}  // namespace perfbench
