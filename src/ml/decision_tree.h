// CART decision trees (gini impurity) and bagged random forests: the binary
// forest with mean-decrease-impurity feature importances (the detector,
// Table VII) and the K-class forest of the malware family classifier (the
// paper's future-work extension).
//
// One builder grows every tree straight into the JSRM artifact's node
// records (ForestNodeRec), and every prediction finds its leaves through
// ForestView, the walk a mapped model runs, so a trainer and every process
// mapping its artifact share one forest walk.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/classifier.h"
#include "ml/model_view_ops.h"

namespace jsrev::ml {

struct TreeConfig {
  int max_depth = 16;
  int min_samples_split = 2;
  int max_features = 0;  // 0 = all; otherwise random subset per split
  std::uint64_t seed = 5;
};

/// A grown forest in the artifact's layout: every tree's preorder nodes
/// (tree-relative child indices) concatenated in tree order, and a
/// prefix-offset table (tree t owns nodes [offsets[t], offsets[t+1])). An
/// unfitted forest has no nodes and offsets {0}.
struct ForestPool {
  std::vector<ForestNodeRec> nodes;
  std::vector<std::uint32_t> offsets{0};
  /// K-class forests only: one row of n_classes class shares per node.
  std::vector<double> distributions;
  /// Impurity decrease per feature (unnormalized), summed in tree order.
  std::vector<double> importance;
  std::uint32_t n_features = 0;

  ForestView view() const {
    return {nodes.data(), offsets.data(),
            static_cast<std::uint32_t>(offsets.size() - 1), n_features};
  }
};

class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(TreeConfig cfg = {});

  /// Labels must be 0 or 1, one per row (std::invalid_argument otherwise).
  void fit(const Matrix& x, const std::vector<int>& y) override;
  int predict(const double* row) const override;
  std::string name() const override { return "DecisionTree"; }

  /// Probability of the malicious class at the reached leaf.
  double predict_proba(const double* row) const;

  /// Accumulated impurity decrease per feature (unnormalized).
  const std::vector<double>& impurity_decrease() const {
    return pool_.importance;
  }

  /// The tree's nodes in build order (preorder, tree-relative child
  /// indices): one tree of the artifact's node pool.
  const std::vector<ForestNodeRec>& nodes() const { return pool_.nodes; }

 private:
  TreeConfig cfg_;
  ForestPool pool_;
};

struct ForestConfig {
  int n_trees = 60;
  int max_depth = 16;
  int min_samples_split = 2;
  std::uint64_t seed = 5;
  // Parallel width for per-tree training (0 = hardware concurrency,
  // 1 = serial). Tree t's RNG is derived from (seed, t), never from a shared
  // sequential stream, so the fitted forest is bit-identical at any width.
  std::size_t threads = 1;
};

class RandomForest : public Classifier {
 public:
  explicit RandomForest(ForestConfig cfg = {});

  /// Labels must be 0 or 1, one per row (std::invalid_argument otherwise).
  void fit(const Matrix& x, const std::vector<int>& y) override;
  int predict(const double* row) const override;
  std::string name() const override { return "RandomForest"; }

  double predict_proba(const double* row) const;

  /// Normalized mean-decrease-impurity importances (sums to 1).
  std::vector<double> feature_importances() const;

  /// The forest in the artifact's layout (see ForestPool).
  const std::vector<ForestNodeRec>& nodes() const { return pool_.nodes; }
  const std::vector<std::uint32_t>& offsets() const { return pool_.offsets; }

 private:
  ForestConfig cfg_;
  ForestPool pool_;
};

/// K-class random forest over labels 0..K-1, where K = max label + 1.
class MulticlassRandomForest {
 public:
  explicit MulticlassRandomForest(ForestConfig cfg = {});

  /// Labels must be non-negative, one per row (std::invalid_argument
  /// otherwise).
  void fit(const Matrix& x, const std::vector<int>& y);
  int predict(const double* row) const;

  /// The reached leaves' class distributions, averaged in tree order (size
  /// n_classes).
  std::vector<double> predict_distribution(const double* row) const;

  int n_classes() const { return n_classes_; }

 private:
  ForestConfig cfg_;
  ForestPool pool_;
  int n_classes_ = 0;
};

}  // namespace jsrev::ml
