#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/hash.h"
#include "util/thread_pool.h"

namespace jsrev::ml {
namespace {

double gini(std::size_t pos, std::size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(pos) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

DecisionTree::DecisionTree(TreeConfig cfg) : cfg_(cfg) {}

void DecisionTree::fit(const Matrix& x, const std::vector<int>& y) {
  std::vector<std::size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  fit_subset(x, y, rows);
}

void DecisionTree::fit_subset(const Matrix& x, const std::vector<int>& y,
                              const std::vector<std::size_t>& rows) {
  nodes_.clear();
  n_features_ = x.cols();
  importance_.assign(n_features_, 0.0);
  Rng rng(cfg_.seed);
  std::vector<std::size_t> work = rows;
  if (work.empty()) {
    nodes_.push_back({});  // a single leaf with p_malicious 0
    return;
  }
  build(x, y, work, 0, work.size(), 0, rng);
}

int DecisionTree::build(const Matrix& x, const std::vector<int>& y,
                        std::vector<std::size_t>& rows, std::size_t begin,
                        std::size_t end, int depth, Rng& rng) {
  const std::size_t n = end - begin;
  std::size_t pos = 0;
  for (std::size_t i = begin; i < end; ++i) pos += y[rows[i]] == 1;

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back({});
  nodes_[static_cast<std::size_t>(node_id)].p_malicious =
      n > 0 ? static_cast<double>(pos) / static_cast<double>(n) : 0.0;

  const double node_gini = gini(pos, n);
  if (depth >= cfg_.max_depth || n < static_cast<std::size_t>(cfg_.min_samples_split) ||
      pos == 0 || pos == n || node_gini <= 1e-12) {
    return node_id;  // leaf
  }

  // Candidate features: all, or a random subset of size max_features.
  std::vector<std::size_t> features;
  if (cfg_.max_features > 0 &&
      static_cast<std::size_t>(cfg_.max_features) < n_features_) {
    // Sample without replacement via partial Fisher-Yates.
    std::vector<std::size_t> all(n_features_);
    std::iota(all.begin(), all.end(), 0);
    for (int i = 0; i < cfg_.max_features; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) +
          rng.below(n_features_ - static_cast<std::size_t>(i));
      std::swap(all[static_cast<std::size_t>(i)], all[j]);
      features.push_back(all[static_cast<std::size_t>(i)]);
    }
  } else {
    features.resize(n_features_);
    std::iota(features.begin(), features.end(), 0);
  }

  // Best split by gini impurity decrease; thresholds from sorted values.
  // Zero-gain splits are allowed (strictly-below the epsilon-padded parent
  // impurity): XOR-like patterns need them, recursion still terminates
  // because child node sizes strictly shrink and depth is capped.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_impurity = node_gini + 1e-9;

  std::vector<std::pair<double, int>> vals;
  vals.reserve(n);
  for (const std::size_t f : features) {
    vals.clear();
    for (std::size_t i = begin; i < end; ++i) {
      vals.emplace_back(x(rows[i], f), y[rows[i]]);
    }
    std::sort(vals.begin(), vals.end());
    std::size_t left_n = 0, left_pos = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      ++left_n;
      left_pos += vals[i].second == 1;
      if (vals[i].first == vals[i + 1].first) continue;  // no split point
      const std::size_t right_n = n - left_n;
      const std::size_t right_pos = pos - left_pos;
      const double impurity =
          (static_cast<double>(left_n) * gini(left_pos, left_n) +
           static_cast<double>(right_n) * gini(right_pos, right_n)) /
          static_cast<double>(n);
      if (impurity < best_impurity) {
        best_impurity = impurity;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_id;  // no useful split

  // Partition rows in place.
  const auto bf = static_cast<std::size_t>(best_feature);
  std::size_t mid = begin;
  for (std::size_t i = begin; i < end; ++i) {
    if (x(rows[i], bf) <= best_threshold) {
      std::swap(rows[i], rows[mid]);
      ++mid;
    }
  }
  if (mid == begin || mid == end) return node_id;  // degenerate

  importance_[bf] +=
      static_cast<double>(n) * std::max(0.0, node_gini - best_impurity);

  nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
  const int left = build(x, y, rows, begin, mid, depth + 1, rng);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  const int right = build(x, y, rows, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

double DecisionTree::predict_proba(const double* row) const {
  const std::uint32_t offsets[2] = {0,
                                    static_cast<std::uint32_t>(nodes_.size())};
  return ForestView{nodes_.data(), offsets, 1,
                    static_cast<std::uint32_t>(n_features_)}
      .predict_proba(row);
}

int DecisionTree::predict(const double* row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

RandomForest::RandomForest(ForestConfig cfg) : cfg_(cfg) {}

void RandomForest::fit(const Matrix& x, const std::vector<int>& y) {
  n_features_ = x.cols();
  const std::size_t n = x.rows();
  const int mtry = std::max(
      1, static_cast<int>(std::sqrt(static_cast<double>(n_features_))));

  // Trees train independently: tree t's RNG is derived from (seed, t) rather
  // than a shared sequential stream, so tree t is identical no matter how
  // many threads fit the forest (or in what order trees complete).
  std::vector<DecisionTree> trees(static_cast<std::size_t>(cfg_.n_trees));
  parallel_for_threads(
      cfg_.threads, static_cast<std::size_t>(cfg_.n_trees),
      [&](std::size_t t) {
        Rng tree_rng(hash_combine(cfg_.seed, 0x7265656eULL + t));
        TreeConfig tc;
        tc.max_depth = cfg_.max_depth;
        tc.min_samples_split = cfg_.min_samples_split;
        tc.max_features = mtry;
        tc.seed = tree_rng();
        DecisionTree tree(tc);
        // Bootstrap sample.
        std::vector<std::size_t> rows(n);
        for (std::size_t i = 0; i < n; ++i) rows[i] = tree_rng.below(n);
        tree.fit_subset(x, y, rows);
        trees[t] = std::move(tree);
      });

  // Concatenate the trees in tree order into the artifact's layout, and sum
  // their importances in that same order.
  nodes_.clear();
  offsets_.assign(1, 0);
  importance_.assign(n_features_, 0.0);
  for (const DecisionTree& tree : trees) {
    nodes_.insert(nodes_.end(), tree.nodes().begin(), tree.nodes().end());
    offsets_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    const std::vector<double>& ti = tree.impurity_decrease();
    for (std::size_t f = 0; f < n_features_; ++f) importance_[f] += ti[f];
  }
}

double RandomForest::predict_proba(const double* row) const {
  return ForestView{nodes_.data(), offsets_.data(),
                    static_cast<std::uint32_t>(offsets_.size() - 1),
                    static_cast<std::uint32_t>(n_features_)}
      .predict_proba(row);
}

int RandomForest::predict(const double* row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

std::vector<double> RandomForest::feature_importances() const {
  std::vector<double> imp = importance_;
  double total = 0.0;
  for (const double v : imp) total += v;
  if (total > 0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

}  // namespace jsrev::ml
