// Raw-pointer inference kernels shared by the training-time models and
// core::ModelView.
//
// Every parameter block here is a borrowed view over flat little-endian
// arrays — either the training-time std::vector storage or the bytes of a
// JSRM model artifact. The trainer featurizes through a PathTableView over
// the table it built, and RandomForest and MinMaxScaler delegate to these
// kernels over their own storage, so the feature rows a model is trained on
// and the rows its artifact computes at inference run the same
// floating-point operations in the same order on the same values.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/attention_model.h"
#include "ml/matrix.h"

namespace jsrev::ml {

/// Numerically-stable softmax, in place. Exposed so the attention trainer
/// and the cluster-feature kernel share one implementation.
void softmax_inplace(std::vector<double>& v);

/// Index of the nearest centroid among `n` rows of `d` doubles (strictly
/// closer wins; ties keep the lower index — the Matrix overload in kmeans.h
/// delegates here).
int nearest_centroid_raw(const double* centroids, std::size_t n,
                         std::size_t d, const double* point);

/// One record of a model's per-path table (16 bytes, padding-free): all
/// that inference needs about vocabulary id i. Paper Eq. 1-2 embed a path
/// as e = tanh(W[i]) and score it e·a; Section III-D assigns it to its
/// nearest surviving centroid, or to none beyond four RMS radii. All of it
/// depends on the id alone, so the trainer computes it once per id.
struct PathTableRec {
  double score = 0.0;         // tanh(W[i]) · a
  std::int32_t cluster = -1;  // nearest surviving centroid; -1 = outside all
  std::uint32_t pad = 0;      // always zero on disk
};
static_assert(sizeof(PathTableRec) == 16, "path record must be packed");

/// The table for every id of `model`'s vocabulary against the surviving
/// `centroids` (one row each) and their RMS `radius`, fanned out at
/// `threads` width into disjoint slots. With no centroid every id is
/// outside (-1).
std::vector<PathTableRec> build_path_table(const AttentionModel& model,
                                           const Matrix& centroids,
                                           const std::vector<double>& radius,
                                           std::size_t threads);

/// Borrowed view of a per-path table: the one cluster-feature kernel, run
/// by the trainer over its own table and by ModelView over the artifact's.
struct PathTableView {
  const PathTableRec* recs = nullptr;  // one per vocabulary id
  std::uint32_t size = 0;              // vocabulary size
  std::uint32_t n_clusters = 0;        // surviving clusters
  bool binary = false;  // ablation: occurrence instead of attention mass

  /// Cluster-membership features of one script before scaling: softmax over
  /// its known paths' scores, then each path's weight added to its cluster,
  /// both in path order. Ids outside [0, size) are skipped; the count of
  /// known paths outside every cluster lands in `*outside` when non-null.
  std::vector<double> cluster_features(const std::vector<std::int32_t>& ids,
                                       std::size_t* outside = nullptr) const;
};

/// One random-forest node as a fixed-width 32-byte record — the on-disk and
/// in-memory unit of the artifact's preorder node pool. Child indices are
/// 32-bit and tree-relative (an index into the same tree's node range).
struct ForestNodeRec {
  std::int32_t feature = -1;  // -1 = leaf
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t pad = 0;  // keeps doubles 8-aligned; always zero on disk
  double threshold = 0.0;
  double p_malicious = 0.0;
};
static_assert(sizeof(ForestNodeRec) == 32, "node record must be packed");

/// Borrowed view of a flattened forest: one preorder node pool plus a
/// prefix-offset table (tree t owns nodes [offsets[t], offsets[t+1])).
struct ForestView {
  const ForestNodeRec* nodes = nullptr;
  const std::uint32_t* offsets = nullptr;  // n_trees + 1 entries
  std::uint32_t n_trees = 0;
  std::uint32_t n_features = 0;

  /// Index into `nodes` of the leaf `row` reaches in tree t, which must own
  /// at least one node. The one forest walk: DecisionTree and the binary
  /// and K-class forests all predict through it.
  std::uint32_t leaf(std::uint32_t t, const double* row) const;

  /// Mean leaf probability across trees, summed in tree order.
  double predict_proba(const double* row) const;
  int predict(const double* row) const {
    return predict_proba(row) >= 0.5 ? 1 : 0;
  }
};

/// Min-max scaling of one feature row (paper Eq. 6) against raw min/max
/// arrays — the exact arithmetic of MinMaxScaler::transform_row.
void scale_row(double* row, const double* min, const double* max,
               std::size_t n);

}  // namespace jsrev::ml
