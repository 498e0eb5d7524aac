// JSTAP baseline (pdg / n-grams variant): n-grams over PDG walks + random
// forest.
//
// Fass et al.'s JSTAP extends AST pipelines with control and data flow; the
// paper compares against its PDG code abstraction with n-gram features. We
// extract node-kind n-grams along PDG edges (control and data successor
// walks) and classify with a random forest.
#pragma once

#include "baselines/detector.h"
#include "baselines/ngram.h"
#include "ml/decision_tree.h"

namespace jsrev::detect {

struct JstapConfig {
  int n = 8;
  std::size_t dims = 4096;
  std::uint64_t seed = 19;
};

class Jstap final : public Detector {
 public:
  explicit Jstap(JstapConfig cfg = {});

  using Detector::train;
  void train(const analysis::AnalyzedCorpus& corpus) override;
  using Detector::classify;
  int classify(const analysis::ScriptAnalysis& analysis) const override;
  std::string name() const override { return "JSTAP"; }

  /// PDG walk token sequences for one parsed script (exposed for tests);
  /// shares the analysis' memoized scope/data-flow/PDG artifacts.
  static std::vector<std::vector<std::string>> pdg_walks(
      const analysis::ScriptAnalysis& analysis);

 private:
  std::vector<double> featurize(const analysis::ScriptAnalysis& analysis) const;

  JstapConfig cfg_;
  // Explicit training-time n-gram vocabulary (unknown n-grams dropped at
  // inference), matching the original tool's featurization protocol.
  NgramVocab vocab_;
  ml::RandomForest forest_;
};

}  // namespace jsrev::detect
