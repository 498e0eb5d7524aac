#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace jsrev::ml {
namespace {

// Rejects labels the builder cannot count: one label per row, each in
// [0, n_classes).
void check_labels(const Matrix& x, const std::vector<int>& y, int n_classes) {
  if (y.size() != x.rows()) {
    throw std::invalid_argument("tree fit: " + std::to_string(y.size()) +
                                " labels for " + std::to_string(x.rows()) +
                                " rows");
  }
  for (const int label : y) {
    if (label < 0 || label >= n_classes) {
      throw std::invalid_argument("tree fit: label " + std::to_string(label) +
                                  " outside [0, " +
                                  std::to_string(n_classes) + ")");
    }
  }
}

double share(std::size_t count, std::size_t n) {
  return n > 0 ? static_cast<double>(count) / static_cast<double>(n) : 0.0;
}

// The one CART builder. The binary and K-class forests differ only in the
// impurity formula and the leaf payload: binary scores a node 2p(1-p) and
// stores p_malicious; K-class scores it 1-Σp² and stores a row of class
// shares per node. The two formulas agree in exact arithmetic but not in
// the last bit, so each forest keeps the one its outputs were pinned with.
class TreeBuilder {
 public:
  TreeBuilder(const Matrix& x, const std::vector<int>& y, int n_classes,
              bool binary, const TreeConfig& cfg)
      : x_(x), y_(y), k_(static_cast<std::size_t>(n_classes)),
        binary_(binary), cfg_(cfg), rng_(cfg.seed), counts_(k_), left_(k_),
        right_(k_) {}

  /// Grows one tree over `rows` (a bootstrap sample may repeat rows).
  ForestPool grow(std::vector<std::size_t> rows) {
    rows_ = std::move(rows);
    tree_.n_features = static_cast<std::uint32_t>(x_.cols());
    tree_.importance.assign(x_.cols(), 0.0);
    build(0, rows_.size(), 0);
    tree_.offsets.push_back(static_cast<std::uint32_t>(tree_.nodes.size()));
    return std::move(tree_);
  }

 private:
  double gini(const std::size_t* counts, std::size_t n) const {
    if (n == 0) return 0.0;
    if (binary_) {
      const double p = share(counts[1], n);
      return 2.0 * p * (1.0 - p);
    }
    double s = 0.0;
    for (std::size_t c = 0; c < k_; ++c) {
      const double p = share(counts[c], n);
      s += p * p;
    }
    return 1.0 - s;
  }

  // Grows the subtree over rows_[begin, end) and returns its root's index.
  // counts_, left_, right_, features_ and vals_ are scratch: a node is done
  // with them once it has chosen its split, before its children reuse them.
  std::int32_t build(std::size_t begin, std::size_t end, int depth) {
    const std::size_t n = end - begin;
    std::fill(counts_.begin(), counts_.end(), 0);
    for (std::size_t i = begin; i < end; ++i) {
      ++counts_[static_cast<std::size_t>(y_[rows_[i]])];
    }

    const auto node_id = static_cast<std::int32_t>(tree_.nodes.size());
    tree_.nodes.push_back({});
    if (binary_) {
      tree_.nodes.back().p_malicious = share(counts_[1], n);
    } else {
      for (const std::size_t c : counts_) {
        tree_.distributions.push_back(share(c, n));
      }
    }

    const bool pure = *std::max_element(counts_.begin(), counts_.end()) == n;
    if (depth >= cfg_.max_depth || pure ||
        n < static_cast<std::size_t>(cfg_.min_samples_split)) {
      return node_id;  // leaf
    }

    // Candidate features: all, or max_features of them drawn without
    // replacement (partial Fisher-Yates).
    const std::size_t d = x_.cols();
    std::size_t m = d;
    features_.resize(d);
    std::iota(features_.begin(), features_.end(), 0);
    if (cfg_.max_features > 0 &&
        static_cast<std::size_t>(cfg_.max_features) < d) {
      m = static_cast<std::size_t>(cfg_.max_features);
      for (std::size_t i = 0; i < m; ++i) {
        std::swap(features_[i], features_[i + rng_.below(d - i)]);
      }
    }

    // Best split by gini impurity decrease; thresholds from sorted values.
    // Zero-gain splits are allowed (strictly-below the epsilon-padded parent
    // impurity): XOR-like patterns need them, recursion still terminates
    // because child node sizes strictly shrink and depth is capped.
    const double node_gini = gini(counts_.data(), n);
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_impurity = node_gini + 1e-9;
    for (std::size_t fi = 0; fi < m; ++fi) {
      const std::size_t f = features_[fi];
      vals_.clear();
      for (std::size_t i = begin; i < end; ++i) {
        vals_.emplace_back(x_(rows_[i], f), y_[rows_[i]]);
      }
      std::sort(vals_.begin(), vals_.end());
      std::fill(left_.begin(), left_.end(), 0);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        ++left_[static_cast<std::size_t>(vals_[i].second)];
        if (vals_[i].first == vals_[i + 1].first) continue;  // no split point
        const std::size_t left_n = i + 1;
        const std::size_t right_n = n - left_n;
        for (std::size_t c = 0; c < k_; ++c) right_[c] = counts_[c] - left_[c];
        const double impurity =
            (static_cast<double>(left_n) * gini(left_.data(), left_n) +
             static_cast<double>(right_n) * gini(right_.data(), right_n)) /
            static_cast<double>(n);
        if (impurity < best_impurity) {
          best_impurity = impurity;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (vals_[i].first + vals_[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return node_id;  // no useful split

    // Partition rows in place.
    const auto bf = static_cast<std::size_t>(best_feature);
    std::size_t mid = begin;
    for (std::size_t i = begin; i < end; ++i) {
      if (x_(rows_[i], bf) <= best_threshold) std::swap(rows_[i], rows_[mid++]);
    }
    if (mid == begin || mid == end) return node_id;  // degenerate

    tree_.importance[bf] +=
        static_cast<double>(n) * std::max(0.0, node_gini - best_impurity);

    const auto at = static_cast<std::size_t>(node_id);
    tree_.nodes[at].feature = best_feature;
    tree_.nodes[at].threshold = best_threshold;
    const std::int32_t left = build(begin, mid, depth + 1);
    tree_.nodes[at].left = left;
    const std::int32_t right = build(mid, end, depth + 1);
    tree_.nodes[at].right = right;
    return node_id;
  }

  const Matrix& x_;
  const std::vector<int>& y_;
  const std::size_t k_;
  const bool binary_;
  const TreeConfig cfg_;
  Rng rng_;
  std::vector<std::size_t> rows_;
  ForestPool tree_;
  std::vector<std::size_t> counts_, left_, right_, features_;
  std::vector<std::pair<double, int>> vals_;
};

// Grows cfg.n_trees trees on bootstrap samples. Tree t's RNG is derived from
// (seed, salt + t) rather than a shared sequential stream, so tree t is
// identical no matter how many threads fit the forest (or in what order
// trees complete); each forest type keeps its own salt.
ForestPool grow_forest(const ForestConfig& cfg, std::uint64_t salt,
                       const Matrix& x, const std::vector<int>& y,
                       int n_classes, bool binary) {
  check_labels(x, y, n_classes);
  obs::Span span("ml.forest.fit", "ml");
  static obs::Counter* trees_trained =
      obs::metrics().counter("ml.forest.trees_trained");
  trees_trained->add(static_cast<std::uint64_t>(cfg.n_trees));

  const std::size_t n = x.rows();
  const int mtry =
      std::max(1, static_cast<int>(std::sqrt(static_cast<double>(x.cols()))));
  std::vector<ForestPool> trees(static_cast<std::size_t>(cfg.n_trees));
  parallel_for_threads(cfg.threads, trees.size(), [&](std::size_t t) {
    Rng tree_rng(hash_combine(cfg.seed, salt + t));
    const TreeConfig tc{cfg.max_depth, cfg.min_samples_split, mtry,
                        tree_rng()};
    std::vector<std::size_t> rows(n);
    for (std::size_t& row : rows) row = tree_rng.below(n);
    trees[t] = TreeBuilder(x, y, n_classes, binary, tc).grow(std::move(rows));
  });

  // Concatenate the trees in tree order into the artifact's layout, and sum
  // their importances in that same order.
  ForestPool forest;
  forest.n_features = static_cast<std::uint32_t>(x.cols());
  forest.importance.assign(x.cols(), 0.0);
  for (const ForestPool& tree : trees) {
    forest.nodes.insert(forest.nodes.end(), tree.nodes.begin(),
                        tree.nodes.end());
    forest.offsets.push_back(static_cast<std::uint32_t>(forest.nodes.size()));
    forest.distributions.insert(forest.distributions.end(),
                                tree.distributions.begin(),
                                tree.distributions.end());
    for (std::size_t f = 0; f < x.cols(); ++f) {
      forest.importance[f] += tree.importance[f];
    }
  }
  return forest;
}

}  // namespace

DecisionTree::DecisionTree(TreeConfig cfg) : cfg_(cfg) {}

void DecisionTree::fit(const Matrix& x, const std::vector<int>& y) {
  check_labels(x, y, 2);
  std::vector<std::size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  pool_ = TreeBuilder(x, y, 2, /*binary=*/true, cfg_).grow(std::move(rows));
}

double DecisionTree::predict_proba(const double* row) const {
  return pool_.view().predict_proba(row);
}

int DecisionTree::predict(const double* row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

RandomForest::RandomForest(ForestConfig cfg) : cfg_(cfg) {}

void RandomForest::fit(const Matrix& x, const std::vector<int>& y) {
  pool_ = grow_forest(cfg_, 0x7265656eULL, x, y, 2, /*binary=*/true);
}

double RandomForest::predict_proba(const double* row) const {
  return pool_.view().predict_proba(row);
}

int RandomForest::predict(const double* row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

std::vector<double> RandomForest::feature_importances() const {
  std::vector<double> imp = pool_.importance;
  double total = 0.0;
  for (const double v : imp) total += v;
  if (total > 0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

MulticlassRandomForest::MulticlassRandomForest(ForestConfig cfg) : cfg_(cfg) {}

void MulticlassRandomForest::fit(const Matrix& x, const std::vector<int>& y) {
  int k = 1;
  for (const int label : y) k = std::max(k, label + 1);
  pool_ = grow_forest(cfg_, 0x6d756c7469ULL, x, y, k, /*binary=*/false);
  n_classes_ = k;  // only once the pool holds rows of k shares
}

std::vector<double> MulticlassRandomForest::predict_distribution(
    const double* row) const {
  const auto k = static_cast<std::size_t>(n_classes_);
  std::vector<double> dist(k, 0.0);
  const ForestView view = pool_.view();
  if (view.n_trees == 0) return dist;
  for (std::uint32_t t = 0; t < view.n_trees; ++t) {
    const double* leaf = &pool_.distributions[view.leaf(t, row) * k];
    for (std::size_t c = 0; c < k; ++c) dist[c] += leaf[c];
  }
  for (double& v : dist) v /= static_cast<double>(view.n_trees);
  return dist;
}

int MulticlassRandomForest::predict(const double* row) const {
  const auto dist = predict_distribution(row);
  return static_cast<int>(
      std::max_element(dist.begin(), dist.end()) - dist.begin());
}

}  // namespace jsrev::ml
