// Regression tests for the parallel pipeline's core invariant: any stage run
// at threads=N must produce results bit-identical to threads=1 (the exact
// legacy serial path). Per-item randomness is index-derived and every
// floating-point accumulation stays in index order, so this is exact
// equality, not tolerance-based comparison.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/family_classifier.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/outlier.h"
#include "util/rng.h"

namespace jsrev {
namespace {

ml::Matrix random_points(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  ml::Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) m(i, j) = rng.normal();
  }
  // A few duplicated rows exercise the degenerate-distance branches.
  if (n > 4) {
    std::copy(m.row(0), m.row(0) + d, m.row(n - 1));
    std::copy(m.row(1), m.row(1) + d, m.row(n - 2));
  }
  return m;
}

TEST(ParallelDeterminism, OutlierScoresAndMasksBitIdentical) {
  const ml::Matrix pts = random_points(300, 16, 99);
  for (const ml::OutlierMethod m :
       {ml::OutlierMethod::kFastAbod, ml::OutlierMethod::kKnn,
        ml::OutlierMethod::kLof}) {
    ml::OutlierConfig serial;
    serial.threads = 1;
    ml::OutlierConfig parallel = serial;
    parallel.threads = 4;
    const ml::OutlierResult a = ml::run_outlier(m, pts, serial);
    const ml::OutlierResult b = ml::run_outlier(m, pts, parallel);
    EXPECT_EQ(a.scores, b.scores) << ml::outlier_method_name(m);
    EXPECT_EQ(a.is_outlier, b.is_outlier) << ml::outlier_method_name(m);
    EXPECT_EQ(a.outlier_count, b.outlier_count) << ml::outlier_method_name(m);
  }
}

TEST(ParallelDeterminism, KMeansClusteringBitIdentical) {
  const ml::Matrix pts = random_points(500, 12, 123);
  ml::KMeansConfig serial;
  serial.k = 9;
  serial.seed = 31;
  serial.threads = 1;
  ml::KMeansConfig parallel = serial;
  parallel.threads = 4;

  const ml::Clustering a = ml::bisecting_kmeans(pts, serial);
  const ml::Clustering b = ml::bisecting_kmeans(pts, parallel);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids.data(), b.centroids.data());
  EXPECT_EQ(a.cluster_sse, b.cluster_sse);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.sse, b.sse);

  const ml::Clustering pa = ml::kmeans(pts, serial);
  const ml::Clustering pb = ml::kmeans(pts, parallel);
  EXPECT_EQ(pa.assignment, pb.assignment);
  EXPECT_EQ(pa.centroids.data(), pb.centroids.data());
}

TEST(ParallelDeterminism, RandomForestBitIdentical) {
  const std::size_t n = 240, d = 8;
  const ml::Matrix x = random_points(n, d, 7);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = x(i, 0) + x(i, 3) > 0 ? 1 : 0;

  ml::ForestConfig serial;
  serial.n_trees = 24;
  serial.seed = 42;
  serial.threads = 1;
  ml::ForestConfig parallel = serial;
  parallel.threads = 4;

  ml::RandomForest fa(serial), fb(parallel);
  fa.fit(x, y);
  fb.fit(x, y);

  // Strongest check: the flattened forests must match byte for byte.
  std::vector<ml::ForestNodeRec> nodes_a, nodes_b;
  std::vector<std::uint32_t> offsets_a, offsets_b;
  fa.export_flat(&nodes_a, &offsets_a);
  fb.export_flat(&nodes_b, &offsets_b);
  EXPECT_EQ(offsets_a, offsets_b);
  ASSERT_EQ(nodes_a.size(), nodes_b.size());
  EXPECT_EQ(std::memcmp(nodes_a.data(), nodes_b.data(),
                        nodes_a.size() * sizeof(ml::ForestNodeRec)),
            0);
  EXPECT_EQ(fa.feature_importances(), fb.feature_importances());
  EXPECT_EQ(fa.predict_all(x, 1), fb.predict_all(x, 4));
}

// Train the full pipeline on a small synthetic corpus at threads=1 and
// threads=4: the persisted models (vocabulary, embedding, centroids, scaler,
// forest — everything downstream of the outlier masks and cluster
// assignments) must match byte for byte, and so must every prediction and
// feature vector.
TEST(ParallelDeterminism, FullPipelineBitIdentical) {
  dataset::GeneratorConfig gc;
  gc.seed = 21;
  gc.benign_count = 60;
  gc.malicious_count = 60;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  Rng rng(22);
  const dataset::Split split = dataset::split_corpus(corpus, 42, 42, rng);

  core::Config cfg;
  cfg.embed_epochs = 5;
  cfg.cluster_sample_per_class = 400;
  cfg.threads = 1;
  core::JsRevealer serial(cfg);
  serial.train(split.train);

  cfg.threads = 4;
  core::JsRevealer parallel(cfg);
  parallel.train(split.train);

  EXPECT_EQ(serial.feature_count(), parallel.feature_count());
  EXPECT_EQ(serial.clusters_removed(), parallel.clusters_removed());

  EXPECT_EQ(serial.save_artifact(), parallel.save_artifact())
      << "trained models differ across widths";

  std::vector<std::string> sources;
  for (const auto& s : split.test.samples) sources.push_back(s.source);
  EXPECT_EQ(serial.classify_all(sources), parallel.classify_all(sources));
  for (std::size_t i = 0; i < 5 && i < sources.size(); ++i) {
    EXPECT_EQ(serial.featurize(sources[i]), parallel.featurize(sources[i]));
  }
}

TEST(ParallelDeterminism, ClassifyAllMatchesPerItemClassify) {
  dataset::GeneratorConfig gc;
  gc.seed = 33;
  gc.benign_count = 40;
  gc.malicious_count = 40;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);

  core::Config cfg;
  cfg.embed_epochs = 4;
  cfg.cluster_sample_per_class = 300;
  cfg.threads = 4;
  core::JsRevealer det(cfg);
  det.train(corpus);

  std::vector<std::string> sources;
  for (std::size_t i = 0; i < 20; ++i) {
    sources.push_back(corpus.samples[i].source);
  }
  sources.push_back("function ( { nope");  // unparseable → 1 by convention
  const std::vector<int> batch = det.classify_all(sources);
  ASSERT_EQ(batch.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(batch[i], det.classify(sources[i])) << "source " << i;
  }
  EXPECT_EQ(batch.back(), 1);
}

TEST(ParallelDeterminism, FamilyClassifierWidthInvariant) {
  dataset::GeneratorConfig gc;
  gc.seed = 44;
  gc.benign_count = 40;
  gc.malicious_count = 80;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);

  core::Config cfg;
  cfg.embed_epochs = 4;
  cfg.cluster_sample_per_class = 300;
  cfg.threads = 1;
  core::JsRevealer det(cfg);
  det.train(corpus);

  core::FamilyClassifier serial(1), parallel(4);
  ASSERT_GT(serial.train(det.view(), corpus), 0u);
  ASSERT_GT(parallel.train(det.view(), corpus), 0u);
  ASSERT_EQ(serial.families(), parallel.families());
  for (std::size_t i = 0; i < 25; ++i) {
    const auto& s = corpus.samples[i];
    if (s.label != 1) continue;
    EXPECT_EQ(serial.classify(det.view(), s.source),
              parallel.classify(det.view(), s.source));
  }
}

}  // namespace
}  // namespace jsrev
