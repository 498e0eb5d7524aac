// JSRevealer: the paper's detector (path extraction → path embedding →
// feature extraction → random-forest classification, the classifier Table II
// picks), implementing detect::Detector so it slots into the same evaluation
// harness as the baselines.
//
// JsRevealer is a core::ModelView that can train. train() builds every
// parameter block in locals, writes the JSRM artifact (core/model_format.h)
// to memory and attaches itself to those bytes; the artifact is then the
// only copy of the model, and featurize, classify, explain and classify_all
// are ModelView's own code, so the detector that trained a model and every
// process that maps its artifact run one inference implementation. Stage
// durations (Table VIII) are booked into obs::stage_summary where each stage
// runs: train() books the training stages, ModelView the per-request ones.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/model_view.h"
#include "ml/attention_model.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/outlier.h"
#include "ml/scaler.h"
#include "paths/vocab.h"
#include "util/rng.h"

namespace jsrev::core {

/// One row of the Table VII interpretability report.
struct FeatureReportEntry {
  int feature_index = 0;
  double importance = 0.0;
  bool from_benign = false;   // cluster learned from benign vs malicious set
  std::string central_path;   // representative path context of the center
};

class JsRevealer final : public ModelView {
 public:
  /// Throws std::invalid_argument when cfg.path.max_paths is not the
  /// default: the artifact does not record it, so the trained model's own
  /// featurize would extract with another cap than training did. Also when
  /// cfg.path's window is negative or beyond what an artifact may carry
  /// (paths::kMaxPathLength, paths::kMaxPathWidth).
  explicit JsRevealer(Config cfg = {});

  using Detector::train;
  /// Trains on `corpus` as analyzed: path extraction (and the lint tail)
  /// force each script's parse in a cfg.threads-wide fan-out. train(sources)
  /// analyzes with this detector's frontend, the default ParseLimits and
  /// cfg.deobfuscate.
  void train(const analysis::AnalyzedCorpus& corpus) override;
  std::string name() const override { return "JSRevealer"; }

  /// The lint tail's width (0 without lint features; read from the attached
  /// artifact, so 0 before train()).
  std::size_t lint_feature_count() const { return header_.lint_dim; }
  std::size_t clusters_removed() const { return header_.clusters_removed; }

  /// The outlier-detection method actually used (after selection, if
  /// cfg.run_outlier_selection is set).
  ml::OutlierMethod outlier_method() const { return outlier_method_; }

  /// Top-`n` features by random-forest importance, with their central paths
  /// (Table VII). Empty before train().
  std::vector<FeatureReportEntry> feature_report(int n = 5) const;

  /// SSE curve helper for the Fig. 5 elbow plot: analyzes `corpus` as
  /// train(sources) does, runs train()'s stages 1-2 on it (the artifact
  /// carries no embedding matrix), samples one class's path vectors as
  /// stage 3 does, clusters them at each K in [k_lo, k_hi] and returns the
  /// SSE per K. `label` selects benign (0) / malicious (1). Neither needs
  /// nor changes the trained model.
  std::vector<double> sse_curve(const dataset::Corpus& corpus, int label,
                                int k_lo, int k_hi) const;

  /// The trained model as a JSRM v4 artifact (core/model_format.h):
  /// page-aligned sections with per-section checksums, mappable read-only by
  /// core::ModelView — the bytes this detector is attached to. Deterministic
  /// for a deterministic model. Throws std::logic_error if untrained.
  std::vector<std::uint8_t> save_artifact() const;
  void save_artifact_file(const std::string& path) const;

 private:
  /// What train()'s stages 1-2 produce: the vocabulary, each sample's path
  /// ids (kUnknown past max_vocab) and lint tail (empty without lint
  /// features), and the pre-trained embedding model.
  struct Pretrained {
    paths::PathVocab vocab;
    std::vector<std::vector<std::int32_t>> script_ids;
    std::vector<std::vector<double>> lint_vecs;
    ml::AttentionModel model;
  };

  /// Every parameter block train() serializes besides the vocabulary, held
  /// only until write_artifact() has written it.
  struct Trained {
    std::vector<ml::PathTableRec> path_table;  // one record per vocab id
    // Per-cluster benign-origin bits, packed 64 per word (model_format.h
    // helpers) — the exact words the artifact serializes.
    std::vector<std::uint64_t> benign;
    std::vector<std::string> central_path;  // Table VII inverse index
    std::size_t clusters_removed = 0;
    ml::MinMaxScaler scaler;
    ml::RandomForest forest;
  };

  /// Stages 1-2 of train(): path extraction (growing the vocabulary) and
  /// the embedding model's pre-training, which draws from `rng`.
  Pretrained pretrain(const analysis::AnalyzedCorpus& corpus, Rng& rng) const;

  /// One class's path-vector sample (stage 3, sse_curve): the known path
  /// ids of every `label` script in sample order, shuffled by `rng`, cut to
  /// cfg.cluster_sample_per_class, one tanh(W[id]) row each. The sampled ids
  /// land in `ids`.
  ml::Matrix sample_path_vectors(const Pretrained& pre,
                                 const analysis::AnalyzedCorpus& corpus,
                                 int label, Rng& rng,
                                 std::vector<std::int32_t>* ids) const;

  /// Serializes the trained parameters.
  std::vector<std::uint8_t> write_artifact(const paths::PathVocab& vocab,
                                           const Trained& t) const;

  /// The attached bytes, after save_artifact()'s preconditions.
  std::span<const std::uint8_t> artifact_bytes() const;

  // Vocabulary cap: paths first seen after this many ids are unknown. The
  // artifact header records it.
  static constexpr std::size_t kMaxVocab = 200000;

  Config cfg_;
  // The fitted forest's normalized importances (Table VII); the trees
  // themselves live only in the artifact.
  std::vector<double> importances_;
  ml::OutlierMethod outlier_method_ = ml::OutlierMethod::kFastAbod;
};

}  // namespace jsrev::core
