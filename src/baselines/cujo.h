// CUJO baseline (static part): lexical token q-grams + linear SVM.
//
// Rieck et al.'s CUJO normalizes the lexical token stream (identifiers →
// ID, numeric literals → NUM, strings abstracted by length bucket) and
// learns an SVM over q-grams of the normalized tokens. We reproduce the
// static half, as the paper's comparison does.
#pragma once

#include <memory>

#include "baselines/detector.h"
#include "baselines/ngram.h"
#include "js/token.h"
#include "ml/linear_models.h"

namespace jsrev::detect {

struct CujoConfig {
  int q = 3;                 // q-gram length over normalized tokens
  std::size_t dims = 4096;   // hashed feature dimensions
  std::uint64_t seed = 11;
};

class Cujo final : public Detector {
 public:
  explicit Cujo(CujoConfig cfg = {});

  void train(const dataset::Corpus& corpus) override;
  using Detector::classify;
  /// CUJO is token-level: it consumes the analysis' memoized token stream
  /// and never forces a parse, so a script that lexes but does
  /// not parse is still classified by the model (as the real tool would).
  int classify(const analysis::ScriptAnalysis& analysis) const override;
  std::string name() const override { return "CUJO"; }

  /// Normalized lexical token stream (exposed for tests).
  static std::vector<std::string> normalize_tokens(const std::string& source);
  static std::vector<std::string> normalize_tokens(
      const std::vector<js::Token>& tokens);

 private:
  std::vector<double> featurize(const std::vector<js::Token>& tokens) const;

  CujoConfig cfg_;
  NgramHasher hasher_;
  ml::LinearSvm svm_;
};

}  // namespace jsrev::detect
