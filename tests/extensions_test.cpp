// Tests for the extension components: K-class forest, cluster-quality
// criteria (silhouette / gap statistic), the malware family classifier
// (the paper's future-work item), and the feature-design ablation flags.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string_view>

#include "core/family_classifier.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "ml/cluster_quality.h"
#include "ml/decision_tree.h"
#include "util/hash.h"
#include "util/rng.h"

namespace jsrev {
namespace {

// Three well-separated blobs for multiclass tests.
struct MultiBlobs {
  ml::Matrix x;
  std::vector<int> y;
};

MultiBlobs make_blobs3(std::size_t per_class, std::uint64_t seed) {
  Rng rng(seed);
  MultiBlobs b;
  const std::size_t d = 4;
  b.x = ml::Matrix(per_class * 3, d);
  b.y.resize(per_class * 3);
  for (std::size_t i = 0; i < per_class * 3; ++i) {
    const int label = static_cast<int>(i / per_class);
    b.y[i] = label;
    for (std::size_t j = 0; j < d; ++j) {
      b.x(i, j) = rng.normal() + label * 8.0;
    }
  }
  return b;
}

// K classes over small-integer features, so every split scan meets tied
// values; the label follows features 0 and 1, and one row in six takes a
// random class instead.
MultiBlobs make_tied_classes(std::size_t n, int k, std::uint64_t seed) {
  Rng rng(seed);
  MultiBlobs b;
  b.x = ml::Matrix(n, 4);
  b.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      b.x(i, j) = static_cast<double>(rng.below(5));
    }
    const int rule =
        (static_cast<int>(b.x(i, 0)) + static_cast<int>(b.x(i, 1)) / 2) % k;
    b.y[i] = rng.below(6) == 0
                 ? static_cast<int>(rng.below(static_cast<std::uint64_t>(k)))
                 : rule;
  }
  return b;
}

template <typename T>
std::uint64_t fold(std::uint64_t h, const T& v) {
  return fnv1a64_step(
      h, std::string_view(reinterpret_cast<const char*>(&v), sizeof(T)));
}

// FNV-1a digests of a 12-tree K-class forest fitted on
// make_tied_classes(90, K, 40 + K): every predict_distribution() value and
// then predict() of each training row, then of each row of
// make_tied_classes(40, K, 80 + K). One digest per K in kPinnedK.
constexpr int kPinnedK[] = {1, 2, 3, 6};
constexpr std::uint64_t kPinnedClassForestDigests[] = {
    0x346a5e3c3e1ea715ULL, 0x29157b721a05021fULL, 0xe07366da8175e08bULL,
    0x0382a299ce51eeeeULL};

TEST(MulticlassForest, DistributionsPinnedAtEveryWidth) {
  for (std::size_t i = 0; i < std::size(kPinnedK); ++i) {
    const int k = kPinnedK[i];
    const MultiBlobs train = make_tied_classes(90, k, 40 + k);
    const MultiBlobs fresh = make_tied_classes(40, k, 80 + k);
    for (const std::size_t threads : {1, 3}) {
      ml::ForestConfig cfg;
      cfg.n_trees = 12;
      cfg.threads = threads;
      ml::MulticlassRandomForest forest(cfg);
      forest.fit(train.x, train.y);
      std::uint64_t h = fnv1a64_begin();
      for (const ml::Matrix* x : {&train.x, &fresh.x}) {
        for (std::size_t r = 0; r < x->rows(); ++r) {
          for (const double v : forest.predict_distribution(x->row(r))) {
            h = fold(h, v);
          }
          h = fold(h, forest.predict(x->row(r)));
        }
      }
      EXPECT_EQ(h, kPinnedClassForestDigests[i])
          << "K=" << k << " threads=" << threads << std::hex
          << " digest=" << h;
    }
  }
}

TEST(MulticlassForest, DistributionSumsToOne) {
  const MultiBlobs b = make_blobs3(30, 2);
  ml::MulticlassRandomForest forest;
  forest.fit(b.x, b.y);
  const std::vector<double> dist = forest.predict_distribution(b.x.row(0));
  ASSERT_EQ(dist.size(), 3u);
  double sum = 0;
  for (const double v : dist) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MulticlassForest, SeparatesThreeBlobs) {
  const MultiBlobs train = make_blobs3(50, 3);
  const MultiBlobs test = make_blobs3(20, 4);
  ml::MulticlassRandomForest forest;
  forest.fit(train.x, train.y);
  EXPECT_EQ(forest.n_classes(), 3);
  int correct = 0;
  for (std::size_t i = 0; i < test.x.rows(); ++i) {
    correct += forest.predict(test.x.row(i)) == test.y[i];
  }
  EXPECT_GE(static_cast<double>(correct) / test.x.rows(), 0.95);
}

TEST(MulticlassForest, SingleClassDegenerates) {
  ml::Matrix x(8, 2);
  std::vector<int> y(8, 0);
  Rng rng(5);
  for (auto& v : x.data()) v = rng.normal();
  ml::MulticlassRandomForest forest;
  forest.fit(x, y);
  EXPECT_EQ(forest.predict(x.row(0)), 0);
}

TEST(ClusterQuality, SilhouetteHighForSeparatedClusters) {
  const MultiBlobs b = make_blobs3(30, 6);
  ml::KMeansConfig cfg;
  cfg.k = 3;
  const ml::Clustering c = ml::bisecting_kmeans(b.x, cfg);
  EXPECT_GT(ml::silhouette_score(b.x, c), 0.6);
}

TEST(ClusterQuality, SilhouetteLowForOverclustered) {
  const MultiBlobs b = make_blobs3(30, 7);
  ml::KMeansConfig good, bad;
  good.k = 3;
  bad.k = 12;
  const double s_good =
      ml::silhouette_score(b.x, ml::bisecting_kmeans(b.x, good));
  const double s_bad =
      ml::silhouette_score(b.x, ml::bisecting_kmeans(b.x, bad));
  EXPECT_GT(s_good, s_bad);
}

TEST(ClusterQuality, GapStatisticPositiveForStructuredData) {
  const MultiBlobs b = make_blobs3(30, 8);
  ml::KMeansConfig cfg;
  cfg.k = 3;
  const ml::Clustering c = ml::bisecting_kmeans(b.x, cfg);
  const ml::GapResult g = ml::gap_statistic(b.x, c);
  // Clustered data should have a clearly positive gap vs uniform noise.
  EXPECT_GT(g.gap, 0.0);
  EXPECT_GT(g.sigma, 0.0);
}

TEST(ClusterQuality, SelectKFindsTrueKBySilhouette) {
  const MultiBlobs b = make_blobs3(40, 9);
  EXPECT_EQ(ml::select_k(b.x, 2, 8, /*criterion=*/1), 3);
}

TEST(ClusterQuality, SelectKElbowAndGapInRange) {
  const MultiBlobs b = make_blobs3(40, 10);
  for (const int criterion : {0, 2}) {
    const int k = ml::select_k(b.x, 2, 8, criterion);
    EXPECT_GE(k, 2);
    EXPECT_LE(k, 8);
  }
}

// --- pipeline-level extensions --------------------------------------------

class FamilyFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset::GeneratorConfig gc;
    gc.seed = 21;
    gc.benign_count = 100;
    gc.malicious_count = 160;
    corpus_ = new dataset::Corpus(dataset::generate_corpus(gc));

    core::Config cfg;
    cfg.embed_epochs = 10;
    cfg.cluster_sample_per_class = 800;
    detector_ = new core::JsRevealer(cfg);
    detector_->train(*corpus_);

    classifier_ = new core::FamilyClassifier();
    trained_on_ = classifier_->train(*detector_, *corpus_);
  }

  static void TearDownTestSuite() {
    delete classifier_;
    delete detector_;
    delete corpus_;
    classifier_ = nullptr;
    detector_ = nullptr;
    corpus_ = nullptr;
  }

  static dataset::Corpus* corpus_;
  static core::JsRevealer* detector_;
  static core::FamilyClassifier* classifier_;
  static std::size_t trained_on_;
};

dataset::Corpus* FamilyFixture::corpus_ = nullptr;
core::JsRevealer* FamilyFixture::detector_ = nullptr;
core::FamilyClassifier* FamilyFixture::classifier_ = nullptr;
std::size_t FamilyFixture::trained_on_ = 0;

TEST_F(FamilyFixture, TrainsOnAllMaliciousSamples) {
  EXPECT_GT(trained_on_, 100u);
  EXPECT_EQ(classifier_->families().size(), 6u);
}

TEST_F(FamilyFixture, BetterThanChanceOnTrainingDistribution) {
  // 6 families -> chance is ~17%; the cluster features must carry family
  // signal well beyond that.
  EXPECT_GT(classifier_->evaluate(*detector_, *corpus_), 0.5);
}

TEST_F(FamilyFixture, ConfusionRowsNormalized) {
  const auto m = classifier_->confusion(*detector_, *corpus_);
  ASSERT_EQ(m.size(), classifier_->families().size());
  for (const auto& row : m) {
    double sum = 0.0;
    for (const double v : row) sum += v;
    EXPECT_TRUE(sum == 0.0 || std::abs(sum - 1.0) < 1e-9);
  }
}

// FNV-1a digests of the family classifier's outputs: the predicted family
// of every sample of the fixture's corpus and then of a fresh corpus (seed
// 27), each name followed by a NUL; and the confusion matrices over the
// same two corpora, row by row.
constexpr std::uint64_t kPinnedFamilyPredictions = 0x5cd8701f9608e66fULL;
constexpr std::uint64_t kPinnedFamilyConfusion = 0x782f919d3d337d1dULL;

TEST_F(FamilyFixture, PredictionsAndConfusionPinned) {
  dataset::GeneratorConfig gc;
  gc.seed = 27;
  gc.benign_count = 20;
  gc.malicious_count = 60;
  const dataset::Corpus fresh = dataset::generate_corpus(gc);
  std::uint64_t predictions = fnv1a64_begin();
  std::uint64_t confusion = fnv1a64_begin();
  const dataset::Corpus* corpora[] = {corpus_, &fresh};
  for (const dataset::Corpus* corpus : corpora) {
    for (const auto& s : corpus->samples) {
      predictions = fnv1a64_step(predictions,
                                 classifier_->classify(*detector_, s.source));
      predictions = fnv1a64_step(predictions, std::string_view("", 1));
    }
    for (const auto& row : classifier_->confusion(*detector_, *corpus)) {
      for (const double v : row) confusion = fold(confusion, v);
    }
  }
  EXPECT_EQ(predictions, kPinnedFamilyPredictions) << std::hex << predictions;
  EXPECT_EQ(confusion, kPinnedFamilyConfusion) << std::hex << confusion;
}

TEST_F(FamilyFixture, ClassifyReturnsKnownFamily) {
  Rng rng(22);
  std::string family;
  const std::string src = dataset::generate_malicious(rng, &family);
  const std::string predicted = classifier_->classify(*detector_, src);
  const auto& fams = classifier_->families();
  EXPECT_NE(std::find(fams.begin(), fams.end(), predicted), fams.end());
}

TEST(FamilyClassifier, UntrainedReturnsEmpty) {
  core::FamilyClassifier fc;
  core::Config cfg;
  cfg.embed_epochs = 2;
  core::JsRevealer det(cfg);
  EXPECT_TRUE(fc.classify(det, "var x = 1;").empty());
}

TEST(AblationFlags, BinaryFeaturesAndNoOutlierTrain) {
  dataset::GeneratorConfig gc;
  gc.seed = 23;
  gc.benign_count = 60;
  gc.malicious_count = 60;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  Rng rng(24);
  const dataset::Split split = dataset::split_corpus(corpus, 42, 42, rng);

  for (const bool binary : {true, false}) {
    core::Config cfg;
    cfg.binary_cluster_features = binary;
    cfg.skip_outlier_removal = binary;  // exercise both flags together
    cfg.embed_epochs = 6;
    cfg.cluster_sample_per_class = 500;
    core::JsRevealer det(cfg);
    det.train(split.train);
    const ml::Metrics m = det.evaluate(split.test);
    EXPECT_GT(m.accuracy, 0.6) << "binary=" << binary;
  }
}

}  // namespace
}  // namespace jsrev
