#include "ml/model_view_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/thread_pool.h"

namespace jsrev::ml {

void softmax_inplace(std::vector<double>& v) {
  if (v.empty()) return;
  double mx = v[0];
  for (const double x : v) mx = std::max(mx, x);
  double sum = 0.0;
  for (double& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : v) x /= sum;
}

int nearest_centroid_raw(const double* centroids, std::size_t n,
                         std::size_t d, const double* point) {
  int best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < n; ++c) {
    const double d2 = squared_distance(centroids + c * d, point, d);
    if (d2 < best_d) {
      best_d = d2;
      best = static_cast<int>(c);
    }
  }
  return best;
}

std::vector<PathTableRec> build_path_table(const AttentionModel& model,
                                           const Matrix& centroids,
                                           const std::vector<double>& radius,
                                           std::size_t threads) {
  const auto d = static_cast<std::size_t>(model.embedding_dim());
  const std::size_t n_clusters = centroids.rows();
  std::vector<PathTableRec> table(model.vocab_size());
  parallel_for_threads(threads, table.size(), [&](std::size_t id) {
    const std::vector<double> e =
        model.path_embedding(static_cast<std::int32_t>(id));
    PathTableRec& rec = table[id];
    rec.score = dot(e.data(), model.attention_vector().data(), d);
    if (n_clusters == 0) return;
    const int c = nearest_centroid_raw(centroids.data().data(), n_clusters, d,
                                       e.data());
    const auto cu = static_cast<std::size_t>(c);
    // Paths far from every cluster belong to none of them.
    const double dist =
        std::sqrt(squared_distance(e.data(), centroids.row(cu), d));
    if (!(radius[cu] > 0 && dist > 4.0 * radius[cu])) rec.cluster = c;
  });
  return table;
}

std::vector<double> PathTableView::cluster_features(
    const std::vector<std::int32_t>& ids, std::size_t* outside) const {
  std::vector<double> weights;
  std::vector<std::int32_t> clusters;
  weights.reserve(ids.size());
  clusters.reserve(ids.size());
  for (const std::int32_t id : ids) {
    if (id < 0 || static_cast<std::uint32_t>(id) >= size) continue;
    weights.push_back(recs[id].score);
    clusters.push_back(recs[id].cluster);
  }
  softmax_inplace(weights);
  std::vector<double> f(n_clusters, 0.0);
  std::size_t out = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (clusters[i] < 0) {
      ++out;
      continue;
    }
    const auto c = static_cast<std::size_t>(clusters[i]);
    if (binary) {
      f[c] = 1.0;  // ablation: occurrence only
    } else {
      f[c] += weights[i];
    }
  }
  if (outside != nullptr) *outside = out;
  return f;
}

std::uint32_t ForestView::leaf(std::uint32_t t, const double* row) const {
  const ForestNodeRec* base = nodes + offsets[t];
  const ForestNodeRec* cur = base;
  while (cur->feature >= 0) {
    cur = base + (row[static_cast<std::size_t>(cur->feature)] <= cur->threshold
                      ? cur->left
                      : cur->right);
  }
  return static_cast<std::uint32_t>(cur - nodes);
}

double ForestView::predict_proba(const double* row) const {
  if (n_trees == 0) return 0.0;
  double s = 0.0;
  for (std::uint32_t t = 0; t < n_trees; ++t) {
    if (offsets[t + 1] == offsets[t]) continue;  // empty tree contributes 0
    s += nodes[leaf(t, row)].p_malicious;
  }
  return s / static_cast<double>(n_trees);
}

void scale_row(double* row, const double* min, const double* max,
               std::size_t n) {
  for (std::size_t f = 0; f < n; ++f) {
    const double range = max[f] - min[f];
    row[f] = range > 0 ? (row[f] - min[f]) / range : 0.0;
    row[f] = std::clamp(row[f], 0.0, 1.0);
  }
}

}  // namespace jsrev::ml
