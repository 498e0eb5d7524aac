// Immutable, zero-copy inference over a JSRM model artifact — the only
// inference code in the repository.
//
// core::JsRevealer is a ModelView that can train: train() writes the
// artifact (core/artifact_io.cpp) and attaches the detector itself to those
// bytes, so its featurize, classify, explain and classify_all are the code
// below. A serving process maps the same artifact from disk.
// No parameter is parsed into owned storage — the vocabulary probe table,
// per-path table, cluster bits, scaler bounds, and forest node pool are all
// borrowed pointers into the mapping, so N detector processes sharing one
// artifact share one page cache copy, and opening a model costs validation
// (header seal, section table, checksums, index bounds) instead of
// deserialization.
//
// Featurization is table lookups: each enumerated path record is probed in
// the vocabulary by its streamed key (no path string is built), its
// path.table record gives its attention score and cluster, and
// ml::PathTableView::cluster_features softmaxes the scores and sums them per
// cluster.
//
// The last step of classify is the walk of the artifact's forest, the only
// predict step, so a mapped view classifies bit-identically to the
// JsRevealer that wrote it. Table II's other classifiers are refitted on
// featurize_rows() by their bench, outside the detector.
//
// Aliasing contract: a ModelView keeps its backing storage (the mapped file
// or the from_buffer copy) alive through a shared_ptr owner. A ModelView is
// not copyable (Detector holds atomics). The artifact bytes must not be
// mutated externally while any view is live (the file is mapped
// MAP_SHARED — treat a published artifact as immutable, write a new file
// and swap paths to update).
//
// Malformed input — truncation, bit flips, inconsistent dimensions — always
// surfaces as ser::ModelFormatError at map/attach time, never as a crash or
// a silently wrong verdict later. A payload that was edited and then
// resealed passes the checksums; attach still rejects any index in it that
// is out of range, so what attaches classifies without crashing (fuzz
// oracle O6 in tools/jsr_fuzz.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/detector.h"
#include "core/model_format.h"
#include "lint/linter.h"
#include "ml/matrix.h"
#include "ml/model_view_ops.h"
#include "obs/provenance.h"
#include "paths/path_extraction.h"
#include "paths/vocab.h"

namespace jsrev::core {

/// A read-only, shared, page-cache-backed mapping of a whole file.
class MappedFile {
 public:
  /// Maps `path` read-only (PROT_READ, MAP_SHARED); throws
  /// std::runtime_error when the file cannot be opened or mapped.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One row of ModelView::info() (header + section table, for inspection).
struct ArtifactSectionInfo {
  fmt::SectionRec rec;
  const char* name = "";
  bool checksum_ok = false;
};

struct ArtifactInfo {
  fmt::ArtifactHeader header;
  std::vector<ArtifactSectionInfo> sections;
};

class ModelView : public detect::Detector {
 public:
  ModelView() = default;

  /// Maps an artifact file and validates it (format, checksums, indices).
  /// Throws ser::ModelFormatError on any malformed content.
  /// `verify_checksums` = false skips the per-section FNV pass (touching
  /// every page) for callers that trust the file, e.g. repeated warm opens;
  /// the header seal and the index checks run either way.
  void map_file(const std::string& path, bool verify_checksums = true);

  /// Attaches to an in-memory artifact (the fuzz oracle's entry point);
  /// takes ownership of the bytes. Same validation as map_file.
  void from_buffer(std::vector<std::uint8_t> bytes,
                   bool verify_checksums = true);

  bool loaded() const { return data_ != nullptr; }

  /// Immutable: training is JsRevealer's job.
  void train(const dataset::Corpus& corpus) override;

  using Detector::classify;
  /// The one classify body: featurize, then the artifact's forest. Records
  /// provenance and the detector.verdicts counter under name(); a script
  /// that was featurized and predicted books its predict time into
  /// obs::stage_summary("classify").
  int classify(const analysis::ScriptAnalysis& analysis) const override;
  std::string name() const override { return "JSRevealer[mapped]"; }

  /// Batch prediction, fanned out at `threads()` width; verdicts identical
  /// to per-source classify() at any width.
  std::vector<int> classify_all(const std::vector<std::string>& sources) const;
  std::vector<int> classify_all(const analysis::AnalyzedCorpus& corpus) const;

  /// Batched evaluate (same metrics as the base implementation).
  ml::Metrics evaluate(const dataset::Corpus& corpus) const override;
  /// Batched evaluate over a shared AnalyzedCorpus: no parse of its own for
  /// scripts whose analysis is already warm.
  ml::Metrics evaluate(const analysis::AnalyzedCorpus& corpus) const override;

  /// Classifies `source` with provenance capture on and returns the filled
  /// record: verdict, frontend outcome, path/vocabulary counts, per-cluster
  /// attention mass, lint rule hits, and all six per-stage durations. The
  /// JSON shape is obs::VerdictProvenance::to_json().
  obs::VerdictProvenance explain(const std::string& source) const;

  /// Feature vector for one script (scaled, lint tail included). Throws
  /// std::runtime_error when the script does not parse and
  /// std::logic_error when no artifact is attached.
  ///
  /// The analysis overload is the one featurize body: it books the
  /// enhanced-AST, path traversal, embedding (vocabulary probe + path-table
  /// features) and (with a lint tail) lint durations into
  /// obs::stage_summary, and fills the provenance record when the analysis
  /// captures one.
  std::vector<double> featurize(const std::string& source) const;
  std::vector<double> featurize(const analysis::ScriptAnalysis& analysis) const;

  /// Rows for a model fitted on this feature space (the family classifier,
  /// Table II's refitted classifiers): the featurize() row of each sample
  /// that featurizes, in sample order. `used` receives each row's index into
  /// `samples`; a sample that does not featurize gets no row. Fans out at
  /// `threads` width (0 = hardware concurrency); the rows are identical at
  /// any width.
  ml::Matrix featurize_rows(const std::vector<const dataset::Sample*>& samples,
                            std::size_t threads,
                            std::vector<std::size_t>* used) const;

  std::size_t feature_count() const {
    return header_.feature_dim + header_.lint_dim;
  }
  std::size_t vocab_size() const { return header_.vocab_size; }
  std::size_t tree_count() const { return header_.n_trees; }

  /// Parallel width for classify_all (0 = hardware concurrency).
  std::size_t threads() const { return threads_; }
  void set_threads(std::size_t n) { threads_ = n; }

  /// Header and section table of the attached artifact (jsr_model inspect).
  ArtifactInfo info() const;

  /// Borrowed vocabulary view.
  const paths::PathVocabView& vocab() const { return vocab_; }

  /// Central path of surviving cluster `f` (the Table VII inverse index),
  /// as a view into the mapping. Throws std::out_of_range unless
  /// f < header feature_dim: lint-tail features have no central path.
  std::string_view central_path(std::size_t f) const;

 protected:
  /// Forces the enhanced AST (data flow, with cfg.use_dataflow) and
  /// enumerates the paths under `cfg`, booking and recording both stage
  /// durations in `ms`; throws std::runtime_error when the script does not
  /// parse. featurize() and JsRevealer's training both run it.
  static paths::PathSet extract(
      const analysis::ScriptAnalysis& analysis, const paths::PathConfig& cfg,
      obs::StageDurationsMs* ms);

  // Backing storage: the mapped file or the from_buffer copy (aliasing
  // contract above).
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;

  fmt::ArtifactHeader header_;
  std::vector<fmt::SectionRec> sections_;  // validated copy of the table

  // Borrowed views into the mapping (valid while owner_ lives).
  paths::PathVocabView vocab_;
  ml::PathTableView path_table_;
  const std::uint64_t* benign_ = nullptr;  // clusters.benign bits
  ml::ForestView forest_;
  const double* scaler_min_ = nullptr;
  const double* scaler_max_ = nullptr;
  const std::uint32_t* central_offsets_ = nullptr;
  const char* central_blob_ = nullptr;

  // Inference configuration reconstructed from the header (attach() also
  // sets Detector's deobfuscate flag; the parse limits are always the
  // defaults).
  paths::PathConfig path_cfg_;
  std::size_t threads_ = 0;

  lint::Linter linter_;

 private:
  void attach(std::shared_ptr<const void> owner, const std::uint8_t* data,
              std::size_t size, bool verify_checksums);
  const std::uint8_t* section_payload(fmt::SectionId id,
                                      std::size_t* size_out) const;
};

}  // namespace jsrev::core
