// Raw-pointer inference kernels shared by the training-time models and
// core::ModelView.
//
// Every parameter block here is a borrowed view over flat little-endian
// arrays — either the training-time std::vector storage or the bytes of a
// JSRM model artifact. The training classes (AttentionModel, RandomForest,
// MinMaxScaler) delegate to these kernels over their own storage, so the
// feature rows a model is trained on and the rows its artifact computes at
// inference run the same floating-point operations in the same order on the
// same values.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/attention_model.h"
#include "ml/matrix.h"

namespace jsrev::ml {

/// Numerically-stable softmax, in place. Exposed so the attention trainer
/// and the embed kernel share one implementation.
void softmax_inplace(std::vector<double>& v);

/// Index of the nearest centroid among `n` rows of `d` doubles (strictly
/// closer wins; ties keep the lower index — the Matrix overload in kmeans.h
/// delegates here).
int nearest_centroid_raw(const double* centroids, std::size_t n,
                         std::size_t d, const double* point);

/// Attention-model inference parameters (paper Eq. 1-3) as raw arrays.
struct AttentionParams {
  const double* w = nullptr;     // vocab_size x dim embedding matrix
  const double* attn = nullptr;  // attention vector a, length dim
  const double* u = nullptr;     // 2 x dim classifier head (unused by embed)
  const double* bias = nullptr;  // length 2 (unused by embed)
  std::uint32_t vocab_size = 0;
  std::uint32_t dim = 0;
};

/// Embeds one script's path ids: e_i = tanh(W[id_i]), alpha = softmax(e·a).
/// Ids outside [0, vocab_size) are skipped. AttentionModel::embed routes
/// through this kernel.
EmbeddedScript embed_paths(const AttentionParams& p,
                           const std::vector<std::int32_t>& path_ids);

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

  /// Mean leaf probability across trees, summed in tree order. The one
  /// forest walk: RandomForest and DecisionTree predict through it too.
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
