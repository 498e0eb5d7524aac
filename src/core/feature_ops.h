// Cluster-membership featurization shared by JsRevealer's training stage and
// ModelView's inference.
//
// ClusterParams is a borrowed view over the trained cluster geometry as flat
// arrays (centroid matrix, RMS radii, and the per-centroid benign-origin
// bitset in its packed u64 form). cluster_features() is the single
// implementation of paper Section III-D's attention-mass accumulation: the
// trainer calls it over its own storage to build the training matrix, the
// view over the artifact's bytes, so training and inference rows are
// computed identically.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/attention_model.h"
#include "obs/provenance.h"

namespace jsrev::core {

/// Words needed to hold one bit per centroid.
inline std::size_t benign_word_count(std::size_t n_centroids) {
  return (n_centroids + 63) / 64;
}

/// Reads centroid `i`'s benign-origin bit from the packed word array.
inline bool benign_bit(const std::uint64_t* words, std::size_t i) {
  return ((words[i >> 6] >> (i & 63)) & 1ULL) != 0;
}

/// Sets centroid `i`'s benign-origin bit.
inline void set_benign_bit(std::uint64_t* words, std::size_t i, bool v) {
  if (v) {
    words[i >> 6] |= 1ULL << (i & 63);
  } else {
    words[i >> 6] &= ~(1ULL << (i & 63));
  }
}

/// Borrowed view of the trained cluster geometry.
struct ClusterParams {
  const double* centroids = nullptr;      // feature_dim x dim, row-major
  const double* radius = nullptr;         // feature_dim RMS radii
  const std::uint64_t* benign = nullptr;  // packed benign-origin bits
  std::uint32_t feature_dim = 0;
  std::uint32_t dim = 0;
  bool binary_features = false;  // ablation: occurrence instead of mass
};

/// Cluster-membership features (attention weight accumulated per surviving
/// cluster) for an embedded script, before scaling. Paths farther than four
/// RMS radii from every centroid count as outside all clusters. When `prov`
/// is non-null the per-cluster mass and the outside-path count land in it.
std::vector<double> cluster_features(const ClusterParams& p,
                                     const ml::EmbeddedScript& emb,
                                     obs::VerdictProvenance* prov = nullptr);

}  // namespace jsrev::core
