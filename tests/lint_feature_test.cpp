// Tests for the lint-feature detector integration (Config::lint_features):
// the flag off must reproduce the legacy pipeline bit-for-bit (features,
// predictions, and artifact bytes), the flag on must change only the
// appended feature tail, and both variants must round-trip through a mapped
// artifact.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "lint/linter.h"
#include "util/rng.h"

namespace jsrev {
namespace {

class LintFeatureFixture : public ::testing::Test {
 protected:
  static core::Config base_config(bool lint_features) {
    core::Config cfg;
    cfg.embed_epochs = 6;
    cfg.cluster_sample_per_class = 400;
    cfg.lint_features = lint_features;
    return cfg;
  }

  static void SetUpTestSuite() {
    dataset::GeneratorConfig gc;
    gc.seed = 55;
    gc.benign_count = 60;
    gc.malicious_count = 60;
    corpus_ = new dataset::Corpus(dataset::generate_corpus(gc));
    Rng rng(56);
    split_ = new dataset::Split(dataset::split_corpus(*corpus_, 42, 42, rng));

    plain_ = new core::JsRevealer(base_config(false));
    plain_->train(split_->train);
    linted_ = new core::JsRevealer(base_config(true));
    linted_->train(split_->train);
  }

  static void TearDownTestSuite() {
    delete linted_;
    delete plain_;
    delete split_;
    delete corpus_;
    linted_ = nullptr;
    plain_ = nullptr;
    split_ = nullptr;
    corpus_ = nullptr;
  }

  static dataset::Corpus* corpus_;
  static dataset::Split* split_;
  static core::JsRevealer* plain_;
  static core::JsRevealer* linted_;
};

dataset::Corpus* LintFeatureFixture::corpus_ = nullptr;
dataset::Split* LintFeatureFixture::split_ = nullptr;
core::JsRevealer* LintFeatureFixture::plain_ = nullptr;
core::JsRevealer* LintFeatureFixture::linted_ = nullptr;

TEST_F(LintFeatureFixture, FlagWidensFeatureVectorByLintDim) {
  EXPECT_EQ(plain_->lint_feature_count(), 0u);
  EXPECT_EQ(linted_->lint_feature_count(), lint::kLintFeatureDim);
  EXPECT_EQ(linted_->feature_count(),
            plain_->feature_count() + lint::kLintFeatureDim);
  const std::string& src = split_->test.samples[0].source;
  EXPECT_EQ(plain_->featurize(src).size(), plain_->feature_count());
  EXPECT_EQ(linted_->featurize(src).size(), linted_->feature_count());
}

TEST_F(LintFeatureFixture, FlagOffReproducesLegacyModelBytes) {
  // A second train with the identical flag-off config is bit-identical —
  // the lint subsystem being compiled in must not perturb the default
  // pipeline in any way.
  core::JsRevealer again(base_config(false));
  again.train(split_->train);
  EXPECT_EQ(plain_->save_artifact(), again.save_artifact());
}

TEST_F(LintFeatureFixture, FlagOnChangesOnlyTheFeatureTail) {
  // The cluster pipeline (vocab, embedding, centroids, scaler head) is
  // untouched by the flag, so the leading feature_dim entries of the raw
  // (pre-scaling differences aside) vectors must coincide. Compare through
  // the public featurize(): scaling is per-column min-max fitted on the
  // same training matrix columns, so the shared head columns match exactly.
  const std::size_t head = plain_->feature_count();
  for (std::size_t i = 0; i < split_->test.samples.size(); i += 9) {
    const std::string& src = split_->test.samples[i].source;
    const std::vector<double> fp = plain_->featurize(src);
    const std::vector<double> fl = linted_->featurize(src);
    ASSERT_EQ(fl.size(), head + lint::kLintFeatureDim);
    for (std::size_t c = 0; c < head; ++c) {
      EXPECT_DOUBLE_EQ(fp[c], fl[c]) << "head column " << c << " diverged";
    }
  }
}

TEST_F(LintFeatureFixture, LintTailReactsToMaliceMarkers) {
  // A script dense in malice indicators must produce a nonzero lint tail.
  const std::string hot =
      "var p = unescape(\"%61%6c\"); eval(p); "
      "setTimeout(\"go()\", 9); q = new ActiveXObject(\"Sh\");";
  const std::vector<double> f = linted_->featurize(hot);
  double tail = 0.0;
  for (std::size_t c = plain_->feature_count(); c < f.size(); ++c) {
    tail += f[c];
  }
  EXPECT_GT(tail, 0.0);
}

TEST_F(LintFeatureFixture, LintModelRoundTripsSerialization) {
  core::ModelView restored;  // lint width restored from the artifact header
  restored.from_buffer(linted_->save_artifact());
  EXPECT_EQ(restored.info().header.lint_dim, lint::kLintFeatureDim);
  EXPECT_EQ(restored.feature_count(), linted_->feature_count());
  for (std::size_t i = 0; i < split_->test.samples.size(); i += 5) {
    const std::string& src = split_->test.samples[i].source;
    EXPECT_EQ(restored.featurize(src), linted_->featurize(src));
    EXPECT_EQ(restored.classify(src), linted_->classify(src));
  }
}

TEST_F(LintFeatureFixture, CentralPathRejectsLintTailFeatures) {
  // Lint-tail features have no centroid, hence no central path: indexing
  // one throws instead of reading past the central-path offsets table.
  const std::size_t feature_dim =
      linted_->feature_count() - linted_->lint_feature_count();
  EXPECT_NO_THROW(linted_->central_path(feature_dim - 1));
  EXPECT_THROW(linted_->central_path(feature_dim), std::out_of_range);
  EXPECT_THROW(linted_->central_path(linted_->feature_count() - 1),
               std::out_of_range);
}

TEST_F(LintFeatureFixture, FlagOffArtifactHasNoLintTail) {
  core::ModelView restored;
  restored.from_buffer(plain_->save_artifact());
  EXPECT_EQ(restored.info().header.lint_dim, 0u);
  EXPECT_EQ(restored.feature_count(), plain_->feature_count());
}

TEST_F(LintFeatureFixture, LintedPredictionsRemainDeterministicAcrossWidths) {
  std::vector<std::string> sources;
  for (const auto& s : split_->test.samples) sources.push_back(s.source);
  core::Config serial_cfg = base_config(true);
  serial_cfg.threads = 1;
  core::JsRevealer serial(serial_cfg);
  serial.train(split_->train);
  core::Config wide_cfg = base_config(true);
  wide_cfg.threads = 4;
  core::JsRevealer wide(wide_cfg);
  wide.train(split_->train);
  EXPECT_EQ(serial.classify_all(sources), wide.classify_all(sources));
}

}  // namespace
}  // namespace jsrev
