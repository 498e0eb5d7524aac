// ZOZZLE baseline: hierarchical AST-context + text features with naive
// Bayes classification.
//
// Curtsinger et al.'s ZOZZLE records, for expression and variable-declaration
// nodes, the pair (context, text) — the context is the kind of the nearest
// enclosing "interesting" AST node (function / loop / conditional / try),
// and the text is the node's flattened source text. Features are binary
// (present/absent) and classified with naive Bayes.
#pragma once

#include "baselines/detector.h"
#include "baselines/ngram.h"
#include "ml/naive_bayes.h"

namespace jsrev::detect {

struct ZozzleConfig {
  std::size_t dims = 4096;
};

class Zozzle final : public Detector {
 public:
  explicit Zozzle(ZozzleConfig cfg = {});

  void train(const dataset::Corpus& corpus) override;
  using Detector::classify;
  int classify(const analysis::ScriptAnalysis& analysis) const override;
  std::string name() const override { return "ZOZZLE"; }

  /// (context:text) feature strings for one script (exposed for tests).
  /// The string form parses internally and throws on malformed input.
  static std::vector<std::string> context_features(const std::string& source);
  static std::vector<std::string> context_features(
      const analysis::ScriptAnalysis& analysis);

 private:
  std::vector<double> featurize(const analysis::ScriptAnalysis& analysis) const;

  ZozzleConfig cfg_;
  ml::BernoulliNaiveBayes nb_;
};

}  // namespace jsrev::detect
