// Malware family classification — the paper's stated future-work extension
// ("our future work will add a JavaScript malware family component").
//
// Reuses a trained model's cluster-feature space (a trained JsRevealer or a
// mapped artifact, both ModelViews): a K-class random forest is trained
// over the feature vectors of the MALICIOUS training samples with their
// family labels. At inference the binary detector decides malicious/benign;
// this component names the family.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/model_view.h"
#include "dataset/corpus.h"
#include "ml/decision_tree.h"

namespace jsrev::core {

class FamilyClassifier {
 public:
  /// `threads` sets the parallel width for featurization and per-tree
  /// forest training (0 = hardware concurrency, 1 = serial); the trained
  /// model is bit-identical at any width.
  explicit FamilyClassifier(std::size_t threads = 1);

  /// Trains on the malicious subset of `corpus` using the feature space of
  /// a trained model. Samples with empty family tags are
  /// skipped. Returns the number of training samples used.
  std::size_t train(const ModelView& detector, const dataset::Corpus& corpus);

  /// Predicts the family name of a (presumed malicious) script. Returns an
  /// empty string if the classifier was never trained.
  std::string classify(const ModelView& detector,
                       const std::string& source) const;

  /// Family names in label order.
  const std::vector<std::string>& families() const { return families_; }

  /// Top-1 accuracy over the malicious samples of a labeled corpus.
  double evaluate(const ModelView& detector,
                  const dataset::Corpus& corpus) const;

  /// Row-normalized confusion matrix (families x families) over the
  /// malicious samples of `corpus`.
  std::vector<std::vector<double>> confusion(
      const ModelView& detector, const dataset::Corpus& corpus) const;

 private:
  int label_of(const std::string& family) const {
    const auto it = label_.find(family);
    return it == label_.end() ? -1 : it->second;
  }

  std::map<std::string, int> label_;
  std::vector<std::string> families_;
  std::size_t threads_ = 1;
  ml::MulticlassRandomForest forest_;
  bool trained_ = false;
};

}  // namespace jsrev::core
