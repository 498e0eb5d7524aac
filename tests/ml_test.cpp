#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "ml/attention_model.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/linear_models.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/model_view_ops.h"
#include "ml/naive_bayes.h"
#include "ml/outlier.h"
#include "ml/scaler.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/rng.h"

namespace jsrev::ml {
namespace {

// Two well-separated Gaussian blobs in d dimensions.
struct Blobs {
  Matrix x;
  std::vector<int> y;
};

Blobs make_blobs(std::size_t per_class, std::size_t d, double separation,
                 std::uint64_t seed) {
  Rng rng(seed);
  Blobs b;
  b.x = Matrix(per_class * 2, d);
  b.y.resize(per_class * 2);
  for (std::size_t i = 0; i < per_class * 2; ++i) {
    const int label = i < per_class ? 0 : 1;
    b.y[i] = label;
    for (std::size_t j = 0; j < d; ++j) {
      b.x(i, j) = rng.normal() + (label == 1 ? separation : 0.0);
    }
  }
  return b;
}

// Two classes over small-integer features, so every split scan meets tied
// values; a noisy rule over features 0 and 2 sets the label.
Blobs make_tied(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Blobs b;
  b.x = Matrix(n, 5);
  b.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      b.x(i, j) = static_cast<double>(rng.below(6));
    }
    const bool rule = b.x(i, 0) + b.x(i, 2) > 5.0;
    b.y[i] = rule != (rng.below(8) == 0) ? 1 : 0;
  }
  return b;
}

template <typename T>
std::uint64_t fold(std::uint64_t h, const T& v) {
  return fnv1a64_step(
      h, std::string_view(reinterpret_cast<const char*>(&v), sizeof(T)));
}

// FNV-1a digests over make_tied(160, 31) of the trees behind Table II and
// Table VII, which kPinnedArtifactDigest (model_artifact_test) does not
// cover: a Table II DecisionTree's nodes() then impurity_decrease(), and a
// default RandomForest's nodes() then feature_importances().
constexpr std::uint64_t kPinnedTreeDigest = 0x572b3584ba8323fbULL;
constexpr std::uint64_t kPinnedForestDigest = 0x16aa9bbb15a47e9bULL;

TEST(Metrics, PerfectPrediction) {
  const Metrics m = compute_metrics({1, 0, 1, 0}, {1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  EXPECT_DOUBLE_EQ(m.fpr, 0.0);
  EXPECT_DOUBLE_EQ(m.fnr, 0.0);
}

TEST(Metrics, AllWrong) {
  const Metrics m = compute_metrics({1, 0}, {0, 1});
  EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(m.fpr, 1.0);
  EXPECT_DOUBLE_EQ(m.fnr, 1.0);
}

TEST(Metrics, KnownConfusion) {
  // truth: 4 pos, 4 neg. predictions: 3 TP 1 FN, 1 FP 3 TN.
  const Metrics m = compute_metrics({1, 1, 1, 1, 0, 0, 0, 0},
                                    {1, 1, 1, 0, 1, 0, 0, 0});
  EXPECT_EQ(m.cm.tp, 3u);
  EXPECT_EQ(m.cm.fn, 1u);
  EXPECT_EQ(m.cm.fp, 1u);
  EXPECT_EQ(m.cm.tn, 3u);
  EXPECT_DOUBLE_EQ(m.precision, 0.75);
  EXPECT_DOUBLE_EQ(m.recall, 0.75);
  EXPECT_DOUBLE_EQ(m.f1, 0.75);
  EXPECT_DOUBLE_EQ(m.fpr, 0.25);
  EXPECT_DOUBLE_EQ(m.fnr, 0.25);
}

TEST(Metrics, FprFnrIndependentOfClassRatio) {
  // Duplicate the negative class 3x: FPR/FNR must not change.
  const Metrics a = compute_metrics({1, 1, 0, 0}, {1, 0, 1, 0});
  const Metrics b = compute_metrics({1, 1, 0, 0, 0, 0, 0, 0},
                                    {1, 0, 1, 0, 1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(a.fnr, b.fnr);
  EXPECT_DOUBLE_EQ(a.fpr, b.fpr);
}

TEST(Metrics, AverageMetrics) {
  Metrics m1, m2;
  m1.accuracy = 0.8;
  m2.accuracy = 1.0;
  const Metrics avg = average_metrics({m1, m2});
  EXPECT_DOUBLE_EQ(avg.accuracy, 0.9);
}

TEST(Scaler, MapsToUnitInterval) {
  Matrix x(3, 2);
  x(0, 0) = 0; x(0, 1) = 10;
  x(1, 0) = 5; x(1, 1) = 20;
  x(2, 0) = 10; x(2, 1) = 30;
  MinMaxScaler scaler;
  const Matrix t = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(t(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(t(2, 1), 1.0);
}

TEST(Scaler, ClampsUnseenValues) {
  Matrix x(2, 1);
  x(0, 0) = 0;
  x(1, 0) = 1;
  MinMaxScaler scaler;
  scaler.fit(x);
  double row[1] = {5.0};
  scaler.transform_row(row);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
}

TEST(Scaler, ConstantFeatureYieldsZero) {
  Matrix x(2, 1);
  x(0, 0) = 7;
  x(1, 0) = 7;
  MinMaxScaler scaler;
  scaler.fit(x);
  double row[1] = {7.0};
  scaler.transform_row(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(KMeans, RecoversSeparatedClusters) {
  const Blobs b = make_blobs(50, 4, 10.0, 1);
  KMeansConfig cfg;
  cfg.k = 2;
  const Clustering c = kmeans(b.x, cfg);
  // Each true class must map to one cluster homogeneously.
  int first_cluster = c.assignment[0];
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(c.assignment[i], first_cluster);
  }
  for (std::size_t i = 50; i < 100; ++i) {
    EXPECT_NE(c.assignment[i], first_cluster);
  }
}

TEST(KMeans, SseDecreasesWithK) {
  const Blobs b = make_blobs(60, 3, 3.0, 2);
  double prev = 1e300;
  for (int k = 1; k <= 6; ++k) {
    KMeansConfig cfg;
    cfg.k = k;
    const Clustering c = bisecting_kmeans(b.x, cfg);
    EXPECT_LE(c.sse, prev + 1e-9) << "k=" << k;
    prev = c.sse;
  }
}

TEST(BisectingKMeans, ProducesKClusters) {
  const Blobs b = make_blobs(40, 5, 6.0, 3);
  KMeansConfig cfg;
  cfg.k = 5;
  const Clustering c = bisecting_kmeans(b.x, cfg);
  EXPECT_EQ(c.centroids.rows(), 5u);
  EXPECT_EQ(c.sizes.size(), 5u);
  std::size_t total = 0;
  for (const std::size_t s : c.sizes) total += s;
  EXPECT_EQ(total, b.x.rows());
}

TEST(BisectingKMeans, KLargerThanPointsClamped) {
  Matrix x(3, 2);
  x(0, 0) = 0; x(1, 0) = 5; x(2, 0) = 10;
  KMeansConfig cfg;
  cfg.k = 10;
  const Clustering c = bisecting_kmeans(x, cfg);
  EXPECT_LE(c.centroids.rows(), 3u);
}

TEST(BisectingKMeans, DeterministicForSeed) {
  const Blobs b = make_blobs(30, 4, 4.0, 4);
  KMeansConfig cfg;
  cfg.k = 4;
  const Clustering c1 = bisecting_kmeans(b.x, cfg);
  const Clustering c2 = bisecting_kmeans(b.x, cfg);
  EXPECT_EQ(c1.assignment, c2.assignment);
  EXPECT_DOUBLE_EQ(c1.sse, c2.sse);
}

TEST(NearestCentroid, PicksClosest) {
  Matrix centroids(2, 2);
  centroids(0, 0) = 0; centroids(0, 1) = 0;
  centroids(1, 0) = 10; centroids(1, 1) = 10;
  const double p1[2] = {1, 1};
  const double p2[2] = {9, 9};
  EXPECT_EQ(nearest_centroid(centroids, p1), 0);
  EXPECT_EQ(nearest_centroid(centroids, p2), 1);
  EXPECT_NEAR(nearest_centroid_distance(centroids, p1), std::sqrt(2.0), 1e-9);
}

TEST(Outlier, FastAbodFlagsInjectedOutlier) {
  Rng rng(5);
  Matrix x(51, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.normal();
  }
  // A far-away point.
  x(50, 0) = 60;
  x(50, 1) = -55;
  x(50, 2) = 70;
  OutlierConfig cfg;
  cfg.contamination = 0.05;
  const OutlierResult r = fastabod(x, cfg);
  EXPECT_TRUE(r.is_outlier[50]);
}

TEST(Outlier, KnnFlagsInjectedOutlier) {
  Rng rng(6);
  Matrix x(41, 2);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
  }
  x(40, 0) = 100;
  x(40, 1) = 100;
  OutlierConfig cfg;
  cfg.contamination = 0.05;
  const OutlierResult r = knn_outlier(x, cfg);
  EXPECT_TRUE(r.is_outlier[40]);
}

TEST(Outlier, LofFlagsInjectedOutlier) {
  Rng rng(7);
  Matrix x(41, 2);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
  }
  x(40, 0) = 50;
  x(40, 1) = 50;
  OutlierConfig cfg;
  cfg.contamination = 0.05;
  const OutlierResult r = lof(x, cfg);
  EXPECT_TRUE(r.is_outlier[40]);
}

TEST(Outlier, ContaminationControlsCount) {
  const Blobs b = make_blobs(50, 3, 0.0, 8);
  OutlierConfig cfg;
  cfg.contamination = 0.2;
  const OutlierResult r = fastabod(b.x, cfg);
  EXPECT_EQ(r.outlier_count, static_cast<std::size_t>(0.2 * 100));
}

TEST(Outlier, TinyInputsSafe)  {
  Matrix x(2, 2);
  const OutlierResult r = fastabod(x, {});
  EXPECT_EQ(r.scores.size(), 2u);
  EXPECT_FALSE(r.is_outlier[0]);
}

TEST(Outlier, SelectorReturnsValidMethod) {
  const Blobs b = make_blobs(40, 3, 1.0, 9);
  const OutlierMethod m = select_outlier_method(b.x, {});
  EXPECT_FALSE(outlier_method_name(m).empty());
  // Running the selected method must work.
  const OutlierResult r = run_outlier(m, b.x, {});
  EXPECT_EQ(r.scores.size(), b.x.rows());
}

// ---- classifiers: parameterized over all kinds --------------------------

class ClassifierSweep : public ::testing::TestWithParam<ClassifierKind> {};

TEST_P(ClassifierSweep, LearnsSeparableBlobs) {
  const Blobs train = make_blobs(80, 6, 4.0, 11);
  const Blobs test = make_blobs(40, 6, 4.0, 12);
  auto clf = make_classifier(GetParam(), 1);
  clf->fit(train.x, train.y);
  const Metrics m = clf->evaluate(test.x, test.y);
  EXPECT_GE(m.accuracy, 0.9) << clf->name();
}

TEST_P(ClassifierSweep, HandlesSingleClassGracefully) {
  Matrix x(10, 3);
  std::vector<int> y(10, 0);
  Rng rng(13);
  for (auto& v : x.data()) v = rng.normal();
  auto clf = make_classifier(GetParam(), 1);
  clf->fit(x, y);
  EXPECT_EQ(clf->predict(x.row(0)), 0) << clf->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ClassifierSweep,
    ::testing::Values(ClassifierKind::kSvm,
                      ClassifierKind::kLogisticRegression,
                      ClassifierKind::kDecisionTree,
                      ClassifierKind::kGaussianNaiveBayes,
                      ClassifierKind::kBernoulliNaiveBayes,
                      ClassifierKind::kRandomForest),
    [](const ::testing::TestParamInfo<ClassifierKind>& info) {
      return classifier_kind_name(info.param);
    });

TEST(DecisionTree, AxisAlignedSplit) {
  // 1-D threshold problem: x < 0 -> 0, x > 0 -> 1.
  Matrix x(20, 1);
  std::vector<int> y(20);
  for (int i = 0; i < 20; ++i) {
    x(static_cast<std::size_t>(i), 0) = i < 10 ? -1.0 - i : 1.0 + i;
    y[static_cast<std::size_t>(i)] = i < 10 ? 0 : 1;
  }
  DecisionTree tree;
  tree.fit(x, y);
  // The split threshold lies midway between -1 and 11; probe clear of it.
  const double neg[1] = {-3.0};
  const double pos[1] = {8.0};
  EXPECT_EQ(tree.predict(neg), 0);
  EXPECT_EQ(tree.predict(pos), 1);
}

TEST(DecisionTree, XorNeedsDepth) {
  // XOR is not linearly separable; a depth-2 tree handles it.
  Matrix x(4, 2);
  x(0, 0) = 0; x(0, 1) = 0;
  x(1, 0) = 0; x(1, 1) = 1;
  x(2, 0) = 1; x(2, 1) = 0;
  x(3, 0) = 1; x(3, 1) = 1;
  const std::vector<int> y = {0, 1, 1, 0};
  TreeConfig cfg;
  cfg.min_samples_split = 2;
  DecisionTree tree(cfg);
  tree.fit(x, y);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tree.predict(x.row(i)), y[i]);
  }
}

TEST(RandomForest, FeatureImportancesSumToOne) {
  const Blobs b = make_blobs(60, 5, 3.0, 14);
  RandomForest forest;
  forest.fit(b.x, b.y);
  const auto imp = forest.feature_importances();
  ASSERT_EQ(imp.size(), 5u);
  double sum = 0;
  for (const double v : imp) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForest, ImportanceConcentratesOnInformativeFeature) {
  // Only feature 0 carries signal.
  Rng rng(15);
  Matrix x(200, 4);
  std::vector<int> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    y[i] = i % 2 == 0 ? 0 : 1;
    x(i, 0) = (y[i] == 1 ? 5.0 : -5.0) + rng.normal() * 0.1;
    for (std::size_t j = 1; j < 4; ++j) x(i, j) = rng.normal();
  }
  RandomForest forest;
  forest.fit(x, y);
  const auto imp = forest.feature_importances();
  EXPECT_GT(imp[0], 0.8);
}

TEST(DecisionTree, NodesAndImpurityDecreasePinned) {
  const Blobs b = make_tied(160, 31);
  auto tree = make_classifier(ClassifierKind::kDecisionTree, 1);
  tree->fit(b.x, b.y);
  const auto& dt = dynamic_cast<const DecisionTree&>(*tree);
  std::uint64_t h = fnv1a64_begin();
  for (const ForestNodeRec& node : dt.nodes()) h = fold(h, node);
  for (const double v : dt.impurity_decrease()) h = fold(h, v);
  EXPECT_EQ(h, kPinnedTreeDigest) << std::hex << h;
}

TEST(RandomForest, NodesAndImportancesPinnedAtEveryWidth) {
  const Blobs b = make_tied(160, 31);
  for (const std::size_t threads : {1, 3}) {
    ForestConfig cfg;
    cfg.threads = threads;
    RandomForest forest(cfg);
    forest.fit(b.x, b.y);
    std::uint64_t h = fnv1a64_begin();
    for (const ForestNodeRec& node : forest.nodes()) h = fold(h, node);
    for (const double v : forest.feature_importances()) h = fold(h, v);
    EXPECT_EQ(h, kPinnedForestDigest) << "threads=" << threads << std::hex
                                      << " digest=" << h;
  }
}

// The builder counts labels by index, so a label it cannot count, or a
// label vector that does not cover every row, must stop the fit.
TEST(DecisionTree, RejectsLabelsItCannotCount) {
  const Matrix x(4, 2);
  DecisionTree tree;
  EXPECT_THROW(tree.fit(x, {0, 1, 0}), std::invalid_argument);
  EXPECT_THROW(tree.fit(x, {0, 1, 0, 1, 0}), std::invalid_argument);
  EXPECT_THROW(tree.fit(x, {0, 1, 2, 0}), std::invalid_argument);
  EXPECT_THROW(tree.fit(x, {0, -1, 1, 0}), std::invalid_argument);
}

TEST(RandomForest, RejectsLabelsItCannotCount) {
  const Matrix x(4, 2);
  RandomForest forest;
  EXPECT_THROW(forest.fit(x, {0, 1, 0}), std::invalid_argument);
  EXPECT_THROW(forest.fit(x, {0, 1, 2, 0}), std::invalid_argument);
  EXPECT_THROW(forest.fit(x, {0, -1, 1, 0}), std::invalid_argument);
}

TEST(MulticlassRandomForest, RejectsLabelsItCannotCount) {
  const Matrix x(4, 2);
  MulticlassRandomForest forest;
  EXPECT_THROW(forest.fit(x, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(forest.fit(x, {0, 1, 2, 3, 4}), std::invalid_argument);
  EXPECT_THROW(forest.fit(x, {0, 5, -1, 2}), std::invalid_argument);
  forest.fit(x, {0, 5, 1, 2});  // K = 6: labels need not all occur
  EXPECT_EQ(forest.n_classes(), 6);
  // A rejected fit keeps the fitted forest whole.
  EXPECT_THROW(forest.fit(x, {0, 9, -1, 2}), std::invalid_argument);
  EXPECT_EQ(forest.n_classes(), 6);
  EXPECT_EQ(forest.predict_distribution(x.row(0)).size(), 6u);
}

TEST(RandomForest, FitBooksItsTreesOnTheForestCounter) {
  obs::Counter* trees = obs::metrics().counter("ml.forest.trees_trained");
  const std::uint64_t before = trees->value();
  ForestConfig cfg;
  cfg.n_trees = 7;
  RandomForest forest(cfg);
  const Blobs b = make_blobs(20, 3, 3.0, 17);
  forest.fit(b.x, b.y);
  EXPECT_EQ(trees->value() - before, 7u);
}

TEST(LinearSvm, DecisionFunctionSign) {
  const Blobs b = make_blobs(100, 2, 6.0, 16);
  LinearSvm svm;
  svm.fit(b.x, b.y);
  EXPECT_LT(svm.decision_function(b.x.row(0)), 0.0);
  EXPECT_GT(svm.decision_function(b.x.row(150)), 0.0);
}

TEST(LogisticRegression, ProbabilitiesCalibratedDirection) {
  const Blobs b = make_blobs(100, 2, 6.0, 17);
  LogisticRegression lr;
  lr.fit(b.x, b.y);
  EXPECT_LT(lr.predict_proba(b.x.row(0)), 0.5);
  EXPECT_GT(lr.predict_proba(b.x.row(150)), 0.5);
}

TEST(AttentionModel, LearnsToSeparateByPathIds) {
  // Scripts of class 1 contain paths {0..4}; class 0 contain {5..9}.
  AttentionModelConfig cfg;
  cfg.embedding_dim = 8;
  cfg.epochs = 40;
  AttentionModel model(cfg);
  std::vector<ScriptPaths> scripts;
  Rng rng(18);
  for (int i = 0; i < 60; ++i) {
    ScriptPaths s;
    s.label = i % 2;
    for (int j = 0; j < 6; ++j) {
      s.path_ids.push_back(static_cast<std::int32_t>(
          (s.label == 1 ? 0 : 5) + rng.below(5)));
    }
    scripts.push_back(std::move(s));
  }
  const double loss = model.train(scripts, 10);
  EXPECT_LT(loss, 0.2);
  EXPECT_GT(model.predict_malicious({0, 1, 2}), 0.5);
  EXPECT_LT(model.predict_malicious({5, 6, 7}), 0.5);
}

/// A small trained model's per-path table against one centroid at the
/// origin; `radius` decides which paths fall outside it.
std::vector<PathTableRec> one_cluster_table(const AttentionModel& model,
                                            double radius) {
  const Matrix origin(1, static_cast<std::size_t>(model.embedding_dim()));
  return build_path_table(model, origin, {radius}, 1);
}

PathTableView view_of(const std::vector<PathTableRec>& table,
                      std::uint32_t n_clusters) {
  PathTableView v;
  v.recs = table.data();
  v.size = static_cast<std::uint32_t>(table.size());
  v.n_clusters = n_clusters;
  return v;
}

TEST(PathTable, SkipsUnknownIds) {
  AttentionModelConfig cfg;
  cfg.embedding_dim = 4;
  cfg.epochs = 1;
  AttentionModel model(cfg);
  model.train({{{0, 1}, 0}, {{2, 3}, 1}}, 4);
  const std::vector<PathTableRec> table = one_cluster_table(model, 1e-6);
  std::size_t outside = 0, outside_known = 0;
  const PathTableView v = view_of(table, 1);
  EXPECT_EQ(v.cluster_features({0, -1, 99, 2}, &outside),
            v.cluster_features({0, 2}, &outside_known));
  // Every tanh embedding lies beyond four radii of 1e-6 from the origin.
  EXPECT_EQ(outside, 2u);
  EXPECT_EQ(outside_known, 2u);
}

TEST(PathTable, WeightsSumToOne) {
  AttentionModelConfig cfg;
  cfg.embedding_dim = 4;
  cfg.epochs = 2;
  AttentionModel model(cfg);
  model.train({{{0, 1, 2}, 0}, {{3, 4}, 1}}, 5);
  // Radius 0 marks no path as outside: all attention lands in cluster 0.
  const std::vector<PathTableRec> table = one_cluster_table(model, 0.0);
  std::size_t outside = 1;
  const std::vector<double> f =
      view_of(table, 1).cluster_features({0, 1, 2, 3}, &outside);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NEAR(f[0], 1.0, 1e-9);
  EXPECT_EQ(outside, 0u);
}

TEST(PathTable, EmptyScriptSafe) {
  AttentionModelConfig cfg;
  cfg.embedding_dim = 4;
  cfg.epochs = 1;
  AttentionModel model(cfg);
  model.train({{{0}, 0}, {{1}, 1}}, 2);
  const std::vector<PathTableRec> table = one_cluster_table(model, 0.0);
  std::size_t outside = 1;
  EXPECT_EQ(view_of(table, 1).cluster_features({}, &outside),
            std::vector<double>(1, 0.0));
  EXPECT_EQ(outside, 0u);
  EXPECT_EQ(model.predict_malicious({}), 0.5);
}

TEST(PathTable, RecordsComeFromTheEmbeddingKernels) {
  AttentionModelConfig cfg;
  cfg.embedding_dim = 6;
  cfg.epochs = 3;
  AttentionModel model(cfg);
  model.train({{{0, 1, 2}, 0}, {{3, 4, 5}, 1}}, 6);
  const auto d = static_cast<std::size_t>(cfg.embedding_dim);
  Matrix centroids(3, d);
  Rng rng(5);
  for (double& x : centroids.data()) x = rng.normal() * 0.5;
  const std::vector<double> radius = {0.0, 0.0, 0.0};
  const std::vector<PathTableRec> table =
      build_path_table(model, centroids, radius, 4);
  ASSERT_EQ(table.size(), 6u);
  for (std::int32_t id = 0; id < 6; ++id) {
    const std::vector<double> e = model.path_embedding(id);
    const PathTableRec& rec = table[static_cast<std::size_t>(id)];
    EXPECT_EQ(rec.score, dot(e.data(), model.attention_vector().data(), d));
    EXPECT_EQ(rec.cluster,
              nearest_centroid_raw(centroids.data().data(), 3, d, e.data()));
    EXPECT_EQ(rec.pad, 0u);
  }
}

TEST(PathTable, NoSurvivingClusterMapsEveryIdOutside) {
  AttentionModelConfig cfg;
  cfg.embedding_dim = 4;
  cfg.epochs = 1;
  AttentionModel model(cfg);
  model.train({{{0, 1}, 0}, {{2, 3}, 1}}, 4);
  const std::vector<PathTableRec> table = build_path_table(
      model, Matrix(0, static_cast<std::size_t>(cfg.embedding_dim)), {}, 2);
  for (const PathTableRec& rec : table) EXPECT_EQ(rec.cluster, -1);
  std::size_t outside = 0;
  EXPECT_TRUE(view_of(table, 0).cluster_features({0, 1, 3}, &outside).empty());
  EXPECT_EQ(outside, 3u);
}

TEST(AttentionModel, EmbeddingsBoundedByTanh) {
  AttentionModelConfig cfg;
  cfg.embedding_dim = 6;
  cfg.epochs = 5;
  AttentionModel model(cfg);
  model.train({{{0, 1}, 0}, {{2, 3}, 1}}, 4);
  for (std::int32_t id = 0; id < 4; ++id) {
    for (const double v : model.path_embedding(id)) {
      EXPECT_LE(std::fabs(v), 1.0);
    }
  }
}

TEST(AttentionModel, DeterministicForSeed) {
  AttentionModelConfig cfg;
  cfg.embedding_dim = 4;
  cfg.epochs = 3;
  cfg.seed = 77;
  std::vector<ScriptPaths> scripts = {{{0, 1}, 0}, {{2, 3}, 1}};
  AttentionModel m1(cfg), m2(cfg);
  m1.train(scripts, 4);
  m2.train(scripts, 4);
  EXPECT_EQ(m1.path_embedding(0), m2.path_embedding(0));
}

}  // namespace
}  // namespace jsrev::ml
