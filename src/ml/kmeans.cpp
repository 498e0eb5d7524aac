#include "ml/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "ml/model_view_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace jsrev::ml {
namespace {

obs::Counter* kmeans_iterations() {
  static obs::Counter* c = obs::metrics().counter("ml.kmeans.iterations");
  return c;
}

/// Runs Lloyd iterations on the subset `rows` of `points` with `k` clusters.
/// Returns centroids (k x d), assignment per subset element, and SSE.
struct SubResult {
  Matrix centroids;
  std::vector<int> assignment;
  double sse = 0.0;
};

SubResult lloyd(const Matrix& points, const std::vector<std::size_t>& rows,
                int k, int max_iters, Rng& rng, std::size_t threads) {
  const std::size_t d = points.cols();
  const std::size_t n = rows.size();
  SubResult res;
  res.centroids = Matrix(static_cast<std::size_t>(k), d);
  res.assignment.assign(n, 0);
  if (n == 0) return res;

  // k-means++ seeding.
  std::vector<std::size_t> seeds;
  seeds.push_back(rows[rng.below(n)]);
  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  while (seeds.size() < static_cast<std::size_t>(k)) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d2 = squared_distance(points.row(rows[i]),
                                         points.row(seeds.back()), d);
      dist2[i] = std::min(dist2[i], d2);
      total += dist2[i];
    }
    if (total <= 0.0) {
      seeds.push_back(rows[rng.below(n)]);  // all duplicates
      continue;
    }
    double target = rng.uniform() * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= dist2[i];
      if (target <= 0) {
        chosen = i;
        break;
      }
    }
    seeds.push_back(rows[chosen]);
  }
  for (int c = 0; c < k; ++c) {
    const double* src = points.row(seeds[static_cast<std::size_t>(c)]);
    std::copy(src, src + d, res.centroids.row(static_cast<std::size_t>(c)));
  }

  std::vector<double> sums(static_cast<std::size_t>(k) * d);
  std::vector<std::size_t> counts(static_cast<std::size_t>(k));
  for (int iter = 0; iter < max_iters; ++iter) {
    kmeans_iterations()->add();
    // Assignment: O(n k d), the hot step. Each point writes only its own
    // slot; the centroid update below stays serial in row order so the
    // floating-point sums are identical at any thread count.
    std::atomic<bool> changed{false};
    parallel_for_threads(threads, n, [&](std::size_t i) {
      const int c = nearest_centroid(res.centroids, points.row(rows[i]));
      if (c != res.assignment[i]) {
        res.assignment[i] = c;
        changed.store(true, std::memory_order_relaxed);
      }
    });
    if (!changed.load() && iter > 0) break;

    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(res.assignment[i]);
      const double* p = points.row(rows[i]);
      for (std::size_t j = 0; j < d; ++j) sums[c * d + j] += p[j];
      ++counts[c];
    }
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        const double* p = points.row(rows[rng.below(n)]);
        std::copy(p, p + d, res.centroids.row(c));
        continue;
      }
      double* cent = res.centroids.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        cent[j] = sums[c * d + j] / static_cast<double>(counts[c]);
      }
    }
  }

  // Per-point distances computed in parallel; summed serially in row order.
  std::vector<double> d2(n, 0.0);
  parallel_for_threads(threads, n, [&](std::size_t i) {
    d2[i] = squared_distance(
        points.row(rows[i]),
        res.centroids.row(static_cast<std::size_t>(res.assignment[i])), d);
  });
  res.sse = 0.0;
  for (std::size_t i = 0; i < n; ++i) res.sse += d2[i];
  return res;
}

Clustering finalize(const Matrix& points, const Matrix& centroids,
                    std::size_t threads) {
  const std::size_t k = centroids.rows();
  const std::size_t d = points.cols();
  const std::size_t n = points.rows();
  Clustering out;
  out.centroids = centroids;
  out.assignment.resize(n);
  out.cluster_sse.assign(k, 0.0);
  out.sizes.assign(k, 0);
  std::vector<double> d2(n, 0.0);
  parallel_for_threads(threads, n, [&](std::size_t i) {
    const int c = nearest_centroid(centroids, points.row(i));
    out.assignment[i] = c;
    d2[i] = squared_distance(points.row(i),
                             centroids.row(static_cast<std::size_t>(c)), d);
  });
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(out.assignment[i]);
    out.cluster_sse[c] += d2[i];
    out.sse += d2[i];
    ++out.sizes[c];
  }
  return out;
}

}  // namespace

int nearest_centroid(const Matrix& centroids, const double* point) {
  // Shared with ModelView so training and artifact inference run the
  // identical scan.
  return nearest_centroid_raw(centroids.data().data(), centroids.rows(),
                              centroids.cols(), point);
}

double nearest_centroid_distance(const Matrix& centroids,
                                 const double* point) {
  double best = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    best = std::min(best, squared_distance(centroids.row(c), point,
                                           centroids.cols()));
  }
  return std::sqrt(best);
}

Clustering kmeans(const Matrix& points, const KMeansConfig& cfg) {
  obs::Span span("ml.kmeans", "ml");
  Rng rng(cfg.seed);
  const std::size_t n = points.rows();
  const int k = std::max(1, std::min<int>(cfg.k, static_cast<int>(n)));
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  const SubResult res = lloyd(points, all, k, cfg.max_iters, rng, cfg.threads);
  return finalize(points, res.centroids, cfg.threads);
}

Clustering bisecting_kmeans(const Matrix& points, const KMeansConfig& cfg) {
  obs::Span span("ml.bisecting_kmeans", "ml");
  Rng rng(cfg.seed);
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const int k = std::max(1, std::min<int>(cfg.k, static_cast<int>(n)));

  struct Cluster {
    std::vector<std::size_t> rows;
    std::vector<double> centroid;
    double sse = 0.0;
  };

  auto measure = [&](Cluster& c) {
    c.centroid.assign(d, 0.0);
    for (const std::size_t r : c.rows) {
      const double* p = points.row(r);
      for (std::size_t j = 0; j < d; ++j) c.centroid[j] += p[j];
    }
    for (double& x : c.centroid) x /= static_cast<double>(c.rows.size());
    // Distances in parallel, summed serially in row order.
    std::vector<double> d2(c.rows.size(), 0.0);
    parallel_for_threads(cfg.threads, c.rows.size(), [&](std::size_t i) {
      d2[i] = squared_distance(points.row(c.rows[i]), c.centroid.data(), d);
    });
    c.sse = 0.0;
    for (const double v : d2) c.sse += v;
  };

  std::vector<Cluster> clusters(1);
  clusters[0].rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) clusters[0].rows[i] = i;
  measure(clusters[0]);

  while (clusters.size() < static_cast<std::size_t>(k)) {
    // Split the cluster with the largest SSE that has ≥2 points.
    std::size_t worst = clusters.size();
    double worst_sse = -1.0;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].rows.size() >= 2 && clusters[i].sse > worst_sse) {
        worst_sse = clusters[i].sse;
        worst = i;
      }
    }
    if (worst == clusters.size()) break;  // nothing splittable

    SubResult best;
    best.sse = std::numeric_limits<double>::max();
    for (int trial = 0; trial < std::max(1, cfg.bisect_trials); ++trial) {
      SubResult r = lloyd(points, clusters[worst].rows, 2, cfg.max_iters, rng,
                          cfg.threads);
      if (r.sse < best.sse) best = std::move(r);
    }

    Cluster left, right;
    for (std::size_t i = 0; i < clusters[worst].rows.size(); ++i) {
      (best.assignment[i] == 0 ? left : right)
          .rows.push_back(clusters[worst].rows[i]);
    }
    if (left.rows.empty() || right.rows.empty()) break;  // degenerate data
    measure(left);
    measure(right);
    clusters[worst] = std::move(left);
    clusters.push_back(std::move(right));
  }

  Matrix centroids(clusters.size(), d);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    std::copy(clusters[c].centroid.begin(), clusters[c].centroid.end(),
              centroids.row(c));
  }
  return finalize(points, centroids, cfg.threads);
}

}  // namespace jsrev::ml
