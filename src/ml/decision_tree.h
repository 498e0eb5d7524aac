// CART decision tree (gini impurity) and bagged random forest with
// mean-decrease-impurity feature importances (used for Table VII).
//
// Both build straight into the JSRM artifact's node records (ForestNodeRec)
// and predict through ForestView, the walk a mapped model runs, so a trainer
// and every process mapping its artifact share one forest walk.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/classifier.h"
#include "ml/model_view_ops.h"
#include "util/rng.h"

namespace jsrev::ml {

struct TreeConfig {
  int max_depth = 16;
  int min_samples_split = 2;
  int max_features = 0;  // 0 = all; otherwise random subset per split
  std::uint64_t seed = 5;
};

class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(TreeConfig cfg = {});

  void fit(const Matrix& x, const std::vector<int>& y) override;
  int predict(const double* row) const override;
  std::string name() const override { return "DecisionTree"; }

  /// Probability of the malicious class at the reached leaf.
  double predict_proba(const double* row) const;

  /// Accumulated impurity decrease per feature (unnormalized).
  const std::vector<double>& impurity_decrease() const { return importance_; }

  /// Fits on a row subset (bootstrap support for the forest).
  void fit_subset(const Matrix& x, const std::vector<int>& y,
                  const std::vector<std::size_t>& rows);

  /// The tree's nodes in build order (preorder, tree-relative child
  /// indices): one tree of the artifact's node pool.
  const std::vector<ForestNodeRec>& nodes() const { return nodes_; }

 private:
  int build(const Matrix& x, const std::vector<int>& y,
            std::vector<std::size_t>& rows, std::size_t begin,
            std::size_t end, int depth, Rng& rng);

  TreeConfig cfg_;
  std::vector<ForestNodeRec> nodes_;
  std::vector<double> importance_;
  std::size_t n_features_ = 0;
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

  void fit(const Matrix& x, const std::vector<int>& y) override;
  int predict(const double* row) const override;
  std::string name() const override { return "RandomForest"; }

  double predict_proba(const double* row) const;

  /// Normalized mean-decrease-impurity importances (sums to 1).
  std::vector<double> feature_importances() const;

  /// The forest in the artifact's layout: every tree's nodes() concatenated
  /// in tree order, and a prefix-offset table (tree t owns nodes
  /// [offsets[t], offsets[t+1])). An unfitted forest has no nodes and
  /// offsets {0}.
  const std::vector<ForestNodeRec>& nodes() const { return nodes_; }
  const std::vector<std::uint32_t>& offsets() const { return offsets_; }

 private:
  ForestConfig cfg_;
  std::vector<ForestNodeRec> nodes_;
  std::vector<std::uint32_t> offsets_{0};
  std::vector<double> importance_;  // per-tree decreases, summed in tree order
  std::size_t n_features_ = 0;
};

}  // namespace jsrev::ml
