// JAST baseline: n-grams of AST syntactic units + random forest.
//
// Fass et al.'s JAST traverses the AST in depth-first order and learns
// frequencies of fixed-length n-grams of node kinds with a random forest.
#pragma once

#include "baselines/detector.h"
#include "baselines/ngram.h"
#include "ml/decision_tree.h"

namespace jsrev::detect {

struct JastConfig {
  int n = 8;                 // n-gram length over node kinds
  std::size_t dims = 4096;   // max n-gram features kept from training
  std::uint64_t seed = 13;
};

class Jast final : public Detector {
 public:
  explicit Jast(JastConfig cfg = {});

  using Detector::train;
  void train(const analysis::AnalyzedCorpus& corpus) override;
  using Detector::classify;
  int classify(const analysis::ScriptAnalysis& analysis) const override;
  std::string name() const override { return "JAST"; }

  /// Preorder node-kind sequence for one parsed script (exposed for tests).
  static std::vector<std::string> unit_sequence(
      const analysis::ScriptAnalysis& analysis);

 private:
  std::vector<double> featurize(const analysis::ScriptAnalysis& analysis) const;

  JastConfig cfg_;
  // Explicit training-time n-gram vocabulary: n-grams never seen during
  // training are ignored at inference, as in the original tool.
  NgramVocab vocab_;
  ml::RandomForest forest_;
};

}  // namespace jsrev::detect
