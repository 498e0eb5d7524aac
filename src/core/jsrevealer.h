// JSRevealer: the paper's detector (path extraction → path embedding →
// feature extraction → classification), implementing detect::Detector so it
// slots into the same evaluation harness as the baselines.
//
// JsRevealer is the trainer. train() ends by writing the JSRM artifact
// (core/model_format.h) to memory and attaching an owned core::ModelView
// over it; featurize, classify, explain and classify_all forward to that
// view, so the detector that trained a model and every process that maps its
// artifact run one inference implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "baselines/detector.h"
#include "core/config.h"
#include "core/feature_ops.h"
#include "core/model_view.h"
#include "lint/linter.h"
#include "ml/attention_model.h"
#include "ml/kmeans.h"
#include "ml/outlier.h"
#include "ml/scaler.h"
#include "paths/vocab.h"
#include "util/timer.h"

namespace jsrev::core {

/// One row of the Table VII interpretability report.
struct FeatureReportEntry {
  int feature_index = 0;
  double importance = 0.0;
  bool from_benign = false;   // cluster learned from benign vs malicious set
  std::string central_path;   // representative path context of the center
};

/// Per-module timing aggregates for the Table VIII reproduction.
///
/// Per-item samples (TimingStats::add) are recorded as before; in addition
/// each parallel region records its wall-clock on the stage that dominates
/// it (TimingStats::add_wall), so total()/wall_ms() shows the effective
/// speedup at the `threads` width the pipeline ran with. The fused
/// parse+analysis+path-enumeration region books its wall on enhanced_ast.
///
/// The parse and the scope/data-flow augmentation are decoupled stages now
/// that parsing lives in the shared ScriptAnalysis artifact, so they are
/// sampled separately; parse.mean() + enhanced_ast.mean() equals the old
/// fused enhanced-AST figure.
struct StageTimings {
  TimingStats parse{"parse"};          // js::parse (lex + parse + finalize)
  TimingStats enhanced_ast{"enhanced_ast"};  // scope + data-flow augmentation
  TimingStats path_traversal{"path_traversal"};  // path-context enumeration
  TimingStats pretraining{"pretraining"};  // embedding training (per file)
  TimingStats embedding{"embedding"};  // per-file embedding at inference
  TimingStats outlier{"outlier"};      // outlier detection (train once)
  TimingStats clustering{"clustering"};  // bisecting k-means (train once)
  TimingStats classifier_train{"classifier_train"};
  TimingStats classifying{"classifying"};  // classifier predict per file
  std::size_t threads = 1;      // resolved parallel width used by train()

  /// Zeroes the per-script inference stages (parse, enhanced AST, path
  /// traversal, embedding, classifying — the train-once stages are kept).
  /// classify_all calls this on entry so each batch reports only its own
  /// work and wall time: without the reset, a re-evaluated warm corpus
  /// stacks fresh per-item samples onto stale wall totals and the apparent
  /// sum/wall speedup grows past the physical thread count.
  void reset_inference();
};

class JsRevealer final : public detect::Detector {
 public:
  explicit JsRevealer(Config cfg = {});

  void train(const dataset::Corpus& corpus) override;
  int classify(const std::string& source) const override;
  /// Classifies a pre-analyzed script, reusing its memoized AST and
  /// analyses (the string overload builds a private ScriptAnalysis and
  /// delegates here, so verdicts are identical).
  int classify(const analysis::ScriptAnalysis& analysis) const override;
  std::string name() const override { return "JSRevealer"; }

  /// Batch prediction: classifies every source, fanning out per script at
  /// the configured thread width. Verdicts are identical to calling
  /// classify() per source (the view is read-only at inference).
  std::vector<int> classify_all(const std::vector<std::string>& sources) const;
  /// Parse-once batch prediction over pre-built analyses.
  std::vector<int> classify_all(const analysis::AnalyzedCorpus& corpus) const;

  /// Batched evaluate (same metrics as the base implementation).
  ml::Metrics evaluate(const dataset::Corpus& corpus) const override;
  /// Batched evaluate over a shared AnalyzedCorpus: the detector performs
  /// no parse of its own for scripts whose analysis is already warm.
  ml::Metrics evaluate(const analysis::AnalyzedCorpus& corpus) const override;

  /// Width of featurize() output: surviving benign + malicious clusters,
  /// plus the lint summary tail when cfg.lint_features is on.
  std::size_t feature_count() const { return feature_dim_ + lint_dim_; }
  /// The lint tail's width (0 when cfg.lint_features is off).
  std::size_t lint_feature_count() const { return lint_dim_; }
  std::size_t clusters_removed() const { return clusters_removed_; }

  /// The outlier-detection method actually used (after selection, if
  /// cfg.run_outlier_selection is set).
  ml::OutlierMethod outlier_method() const { return outlier_method_; }

  /// The owned view over this detector's own artifact (unloaded until
  /// train()). Consumers of the feature space (FamilyClassifier) take it.
  const ModelView& view() const { return view_; }

  /// Top-`n` features by random-forest importance, with their central paths
  /// (Table VII). Only valid after train() with the random-forest classifier.
  std::vector<FeatureReportEntry> feature_report(int n = 5) const;

  /// Classifies `source` with provenance capture on and returns the filled
  /// record: verdict, frontend outcome, path/vocabulary counts, per-cluster
  /// attention mass, lint rule hits, and per-stage durations. The JSON shape
  /// is obs::VerdictProvenance::to_json() (surfaced by `jsr_stats --explain`).
  obs::VerdictProvenance explain(const std::string& source) const;

  /// Feature vector for one script (exposed for tests/inspection); see
  /// ModelView::featurize.
  std::vector<double> featurize(const std::string& source) const;
  std::vector<double> featurize(const analysis::ScriptAnalysis& analysis) const;

  const StageTimings& timings() const { return timings_; }

  /// SSE curve helper for the Fig. 5 elbow plot: clusters one class's path
  /// vectors (collected exactly as train() does) at each K in [k_lo, k_hi]
  /// and returns the SSE per K. `label` selects benign (0) / malicious (1).
  std::vector<double> sse_curve(const dataset::Corpus& corpus, int label,
                                int k_lo, int k_hi);

  /// The trained model as a JSRM v3 artifact (core/model_format.h):
  /// page-aligned sections with per-section checksums, mappable read-only by
  /// core::ModelView — the bytes the owned view already holds. Deterministic
  /// for a deterministic model. Throws std::logic_error if untrained or
  /// trained with a classifier other than the random forest.
  std::vector<std::uint8_t> save_artifact() const;
  void save_artifact_file(const std::string& path) const;

 private:
  /// Training-time path extraction from a shared analysis (forcing its
  /// data-flow artifacts as needed); throws std::runtime_error on parse
  /// failure.
  std::vector<paths::PathContext> extract(
      const analysis::ScriptAnalysis& analysis, bool timed) const;

  /// Cluster-membership features (attention weight accumulated per cluster)
  /// of a training script, before scaling.
  std::vector<double> features_from_embedding(
      const ml::EmbeddedScript& emb) const;

  /// Serializes the trained parameters. Any classifier kind: a non-forest
  /// model gets an empty forest (its view predicts with classifier_).
  std::vector<std::uint8_t> write_artifact() const;

  /// The view's bytes, after save_artifact()'s preconditions.
  std::span<const std::uint8_t> artifact_bytes() const;

  /// Books one inference request's stage durations (as the view reported
  /// them) into timings_; `predicted` adds the classifying sample.
  void book_stages(const analysis::ScriptAnalysis& analysis,
                   const obs::StageDurationsMs& ms, bool predicted) const;

  /// classify_all body over `n` items: per-batch timing reset, fan-out at
  /// cfg_.threads, wall booked on the classifying stage.
  template <typename Item>
  std::vector<int> classify_batch(std::size_t n, Item item) const;

  Config cfg_;
  lint::Linter linter_;
  std::size_t lint_dim_ = 0;  // kLintFeatureDim when lint features are on
  paths::PathVocab vocab_;
  ml::AttentionModel model_;
  ml::Matrix centroids_;                // feature_dim_ x d (both classes)
  // Per-centroid benign-origin bits, packed 64 per word (feature_ops.h
  // helpers) — the exact words the v3 formats serialize.
  std::vector<std::uint64_t> centroid_benign_;
  std::vector<double> centroid_radius_; // RMS radius per centroid
  std::vector<std::string> central_path_;      // Table VII inverse index
  std::vector<double> centroid_nearest_d_;     // scratch: best dist so far
  std::size_t feature_dim_ = 0;
  std::size_t clusters_removed_ = 0;
  ml::OutlierMethod outlier_method_ = ml::OutlierMethod::kFastAbod;
  ml::MinMaxScaler scaler_;
  std::unique_ptr<ml::Classifier> classifier_;
  ModelView view_;  // owned view over this detector's artifact
  mutable StageTimings timings_;
  mutable std::mutex timing_mu_;
  bool trained_ = false;
};

}  // namespace jsrev::core
