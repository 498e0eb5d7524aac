// Immutable, zero-copy inference over a JSRM model artifact — the only
// inference code in the repository.
//
// JsRevealer trains, writes the artifact (core/artifact_io.cpp), and
// attaches an owned ModelView over those bytes; its featurize, classify and
// explain forward here. A serving process maps the same artifact from disk.
// No parameter is parsed into owned storage — the vocabulary probe table,
// attention matrices, cluster geometry, scaler bounds, and forest node pool
// are all borrowed pointers into the mapping, so N detector processes
// sharing one artifact share one page cache copy, and opening a model costs
// validation (header, section table, checksums, index bounds) instead of
// deserialization.
//
// The last step of classify is the predict call: the artifact's forest for a
// mapped model, the trainer's own classifier for JsRevealer's view (so Table
// II's non-forest classifiers run on the same feature vector). A mapped view
// therefore classifies bit-identically to the JsRevealer that wrote it.
//
// Aliasing contract: a ModelView keeps its backing storage (the mapped file
// or the from_buffer copy) alive through a shared_ptr, so copies of the view
// may outlive the object they were copied from; the artifact bytes must not
// be mutated externally while any view is live (the file is mapped
// MAP_SHARED — treat a published artifact as immutable, write a new file
// and swap paths to update).
//
// Malformed input — truncation, bit flips, inconsistent dimensions — always
// surfaces as ser::ModelFormatError at map/attach time, never as a crash or
// a silently wrong verdict later (fuzz oracle O6 in tools/jsr_fuzz.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/detector.h"
#include "core/feature_ops.h"
#include "core/model_format.h"
#include "js/parse_limits.h"
#include "lint/linter.h"
#include "ml/classifier.h"
#include "ml/model_view_ops.h"
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

class ModelView final : public detect::Detector {
 public:
  ModelView() = default;

  /// Maps an artifact file and validates it (format, checksums, indices).
  /// Throws ser::ModelFormatError on any malformed content.
  /// `verify_checksums` = false skips the per-section FNV pass (touching
  /// every page) for callers that trust the file, e.g. repeated warm opens.
  void map_file(const std::string& path, bool verify_checksums = true);

  /// Attaches to an in-memory artifact (the fuzz oracle's entry point);
  /// takes ownership of the bytes. Same validation as map_file.
  void from_buffer(std::vector<std::uint8_t> bytes,
                   bool verify_checksums = true);

  bool loaded() const { return data_ != nullptr; }

  /// Immutable: training is JsRevealer's job.
  void train(const dataset::Corpus& corpus) override;

  int classify(const std::string& source) const override;
  int classify(const analysis::ScriptAnalysis& analysis) const override;
  std::string name() const override { return "JSRevealer[mapped]"; }

  /// Batch prediction, fanned out at `threads()` width; verdicts identical
  /// to per-source classify() at any width.
  std::vector<int> classify_all(const std::vector<std::string>& sources) const;
  std::vector<int> classify_all(const analysis::AnalyzedCorpus& corpus) const;

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
  /// enhanced-AST, path traversal, embedding and (with a lint tail) lint
  /// durations into obs::stage_summary, and fills the provenance record
  /// when the analysis captures one.
  std::vector<double> featurize(const std::string& source) const;
  std::vector<double> featurize(const analysis::ScriptAnalysis& analysis) const;

  std::size_t feature_count() const {
    return header_.feature_dim + header_.lint_dim;
  }
  std::size_t vocab_size() const { return header_.vocab_size; }
  std::size_t tree_count() const { return header_.n_trees; }

  /// Parallel width for classify_all (0 = hardware concurrency).
  std::size_t threads() const { return threads_; }
  void set_threads(std::size_t n) { threads_ = n; }

  /// Frontend configuration for building ScriptAnalysis inputs that classify
  /// bit-identically to classify(source): the default limits (an artifact
  /// records none) and the header's deobfuscate flag.
  const js::ParseLimits& parse_limits() const { return parse_limits_; }
  bool deobfuscate() const { return deobfuscate_; }

  /// Header and section table of the attached artifact (jsr_model inspect).
  ArtifactInfo info() const;

  /// Borrowed vocabulary view (tests compare it against the trainer's).
  const paths::PathVocabView& vocab() const { return vocab_; }

  /// Central path of surviving cluster `f` (the Table VII inverse index),
  /// as a view into the mapping.
  std::string_view central_path(std::size_t f) const {
    return {central_blob_ + central_offsets_[f],
            central_offsets_[f + 1] - central_offsets_[f]};
  }

 private:
  friend class JsRevealer;  // trains into an owned view (see classifier_)

  /// The one classify body, without booking the verdict (callers book it
  /// under their own name()). `detector` is the name provenance records.
  /// A script that was featurized and predicted books its predict time into
  /// obs::stage_summary("classify").
  int classify_timed(const analysis::ScriptAnalysis& analysis,
                     const std::string& detector) const;

  void attach(std::shared_ptr<const void> owner, const std::uint8_t* data,
              std::size_t size, bool verify_checksums);
  const std::uint8_t* section_payload(fmt::SectionId id,
                                      std::size_t* size_out) const;

  // Backing storage: the mapped file or the from_buffer copy. shared_ptr so
  // view copies keep the bytes alive (aliasing contract above).
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;

  fmt::ArtifactHeader header_;
  std::vector<fmt::SectionRec> sections_;  // validated copy of the table

  // Borrowed views into the mapping (valid while owner_ lives).
  paths::PathVocabView vocab_;
  ml::AttentionParams attn_;
  ClusterParams cluster_;
  ml::ForestView forest_;
  const double* scaler_min_ = nullptr;
  const double* scaler_max_ = nullptr;
  const std::uint32_t* central_offsets_ = nullptr;
  const char* central_blob_ = nullptr;

  // Inference configuration reconstructed from the header (the parse limits
  // are always the defaults).
  paths::PathConfig path_cfg_;
  js::ParseLimits parse_limits_;
  bool deobfuscate_ = false;
  std::size_t threads_ = 0;

  // The predict step of JsRevealer's own view: the owning trainer's
  // classifier. Null for a mapped model, which predicts with the artifact's
  // forest.
  const ml::Classifier* classifier_ = nullptr;

  lint::Linter linter_;
};

}  // namespace jsrev::core
