#include "core/model_view.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "obs/metrics.h"
#include "util/hash.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace jsrev::core {

namespace {

[[noreturn]] void fail(const char* section, std::uint64_t offset,
                       const std::string& detail) {
  throw ser::ModelFormatError(section, offset, detail);
}

void require(bool ok, const char* section, std::uint64_t offset,
             const std::string& detail) {
  if (!ok) fail(section, offset, detail);
}

bool is_pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint64_t payload_checksum(const std::uint8_t* data,
                               const fmt::SectionRec& rec) {
  if (rec.size == 0) return fnv1a64_begin();
  return fnv1a64(std::string_view(
      reinterpret_cast<const char*>(data + rec.offset), rec.size));
}

}  // namespace

// ---------------------------------------------------------------------------
// MappedFile

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("cannot open for mapping: " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat: " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ != 0) {
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      throw std::runtime_error("mmap failed: " + path);
    }
    data_ = static_cast<const std::uint8_t*>(p);
  }
  ::close(fd);  // the mapping keeps the file alive
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

// ---------------------------------------------------------------------------
// ModelView: attach + validation

void ModelView::map_file(const std::string& path, bool verify_checksums) {
  auto file = std::make_shared<MappedFile>(path);
  const std::uint8_t* data = file->data();
  const std::size_t size = file->size();
  attach(std::move(file), data, size, verify_checksums);
}

void ModelView::from_buffer(std::vector<std::uint8_t> bytes,
                            bool verify_checksums) {
  auto owned = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
  const std::uint8_t* data = owned->data();
  const std::size_t size = owned->size();
  attach(std::move(owned), data, size, verify_checksums);
}

const std::uint8_t* ModelView::section_payload(fmt::SectionId id,
                                               std::size_t* size_out) const {
  for (const fmt::SectionRec& rec : sections_) {
    if (rec.id == static_cast<std::uint32_t>(id)) {
      *size_out = rec.size;
      return data_ + rec.offset;
    }
  }
  fail(fmt::section_name(id), 0, "section missing");
}

void ModelView::attach(std::shared_ptr<const void> owner,
                       const std::uint8_t* data, std::size_t size,
                       bool verify_checksums) {
  // --- header ---
  require(size >= sizeof(fmt::ArtifactHeader), "header", 0,
          "truncated before the header ends (" + std::to_string(size) +
              " bytes)");
  fmt::ArtifactHeader hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  require(std::memcmp(hdr.magic, fmt::kMagic, sizeof(hdr.magic)) == 0,
          "header", 0, "bad magic (not a JSRM artifact)");
  require(hdr.version == fmt::kFormatVersion, "header", 4,
          "unsupported artifact version " + std::to_string(hdr.version));
  require(hdr.file_size == size, "header", 8,
          "file size mismatch: header says " + std::to_string(hdr.file_size) +
              ", file has " + std::to_string(size));
  require(hdr.section_count == fmt::kSectionCount, "header", 16,
          "unexpected section count " + std::to_string(hdr.section_count));
  require(hdr.embedding_dim > 0 && hdr.embedding_dim <= (1u << 20), "header",
          24, "implausible embedding_dim");
  require(hdr.feature_dim <= (1u << 24), "header", 28,
          "implausible feature_dim");
  require(hdr.lint_dim == 0 || hdr.lint_dim == lint::kLintFeatureDim,
          "header", 32,
          "lint feature width mismatch: file has " +
              std::to_string(hdr.lint_dim));
  require(hdr.vocab_table_size == 0 || is_pow2(hdr.vocab_table_size),
          "header", 44, "vocabulary table size is not a power of two");
  require(hdr.vocab_size == 0 || hdr.vocab_table_size > hdr.vocab_size,
          "header", 44, "vocabulary table smaller than the vocabulary");

  // --- section table ---
  const std::uint64_t table_end =
      sizeof(fmt::ArtifactHeader) +
      static_cast<std::uint64_t>(hdr.section_count) * sizeof(fmt::SectionRec);
  require(size >= table_end, "section_table", sizeof(fmt::ArtifactHeader),
          "truncated inside the section table");
  std::vector<fmt::SectionRec> sections(hdr.section_count);
  std::memcpy(sections.data(), data + sizeof(fmt::ArtifactHeader),
              hdr.section_count * sizeof(fmt::SectionRec));

  std::uint32_t seen_ids = 0;
  for (const fmt::SectionRec& rec : sections) {
    const auto id = static_cast<fmt::SectionId>(rec.id);
    const char* name = fmt::section_name(id);
    require(rec.id >= 1 && rec.id <= fmt::kSectionCount, "section_table",
            rec.offset, "unknown section id " + std::to_string(rec.id));
    require((seen_ids & (1u << rec.id)) == 0, "section_table", rec.offset,
            std::string("duplicate section ") + name);
    seen_ids |= 1u << rec.id;
    require(rec.reserved == 0, name, rec.offset,
            "reserved field is not zero");
    require(rec.offset % fmt::kSectionAlign == 0, name, rec.offset,
            "payload is not aligned");
    require(rec.offset >= table_end && rec.offset <= size &&
                rec.size <= size - rec.offset,
            name, rec.offset, "payload exceeds the file");
    if (verify_checksums) {
      const std::uint64_t got = payload_checksum(data, rec);
      require(got == rec.checksum, name, rec.offset,
              "checksum mismatch (payload corrupted)");
    }
  }

  // Commit storage so section_payload() works for the cross-checks below;
  // on any later failure the view is left unloaded again.
  owner_ = std::move(owner);
  data_ = data;
  size_ = size;
  header_ = hdr;
  sections_ = std::move(sections);
  classifier_ = nullptr;  // a newly attached artifact predicts with its forest
  struct Rollback {
    ModelView* v;
    bool armed = true;
    ~Rollback() {
      if (armed) {
        v->owner_.reset();
        v->data_ = nullptr;
        v->size_ = 0;
        v->sections_.clear();
      }
    }
  } rollback{this};

  const auto d = static_cast<std::size_t>(hdr.embedding_dim);
  const std::size_t n_features = hdr.feature_dim + hdr.lint_dim;
  auto expect_size = [&](fmt::SectionId id, std::uint64_t want) {
    std::size_t got = 0;
    const std::uint8_t* p = section_payload(id, &got);
    require(got == want, fmt::section_name(id),
            static_cast<std::uint64_t>(p - data_),
            "payload is " + std::to_string(got) + " bytes, expected " +
                std::to_string(want));
    return p;
  };

  // --- vocabulary ---
  const auto* entries = reinterpret_cast<const paths::VocabEntryRec*>(
      expect_size(fmt::SectionId::kVocabEntries,
                  std::uint64_t(hdr.vocab_size) * sizeof(paths::VocabEntryRec)));
  const auto* table = reinterpret_cast<const std::uint32_t*>(expect_size(
      fmt::SectionId::kVocabTable,
      std::uint64_t(hdr.vocab_table_size) * sizeof(std::uint32_t)));
  std::size_t blob_size = 0;
  const auto* blob = reinterpret_cast<const char*>(
      section_payload(fmt::SectionId::kVocabBlob, &blob_size));
  for (std::uint32_t i = 0; i < hdr.vocab_size; ++i) {
    const paths::VocabEntryRec& e = entries[i];
    const bool segments_fit =
        e.length <= blob_size && e.offset <= blob_size - e.length &&
        std::uint64_t(e.source_len) + 1 + e.path_len + 1 <= e.length;
    require(segments_fit, "vocab.entries", i,
            "entry " + std::to_string(i) + " exceeds the key blob");
  }
  for (std::uint32_t s = 0; s < hdr.vocab_table_size; ++s) {
    require(table[s] <= hdr.vocab_size, "vocab.table", s,
            "probe slot points past the vocabulary");
  }
  vocab_ = paths::PathVocabView(blob, entries, hdr.vocab_size, table,
                                hdr.vocab_table_size);

  // --- attention model ---
  attn_.w = reinterpret_cast<const double*>(expect_size(
      fmt::SectionId::kAttentionW, std::uint64_t(hdr.vocab_size) * d * 8));
  attn_.attn = reinterpret_cast<const double*>(
      expect_size(fmt::SectionId::kAttentionA, std::uint64_t(d) * 8));
  attn_.u = reinterpret_cast<const double*>(
      expect_size(fmt::SectionId::kAttentionU, std::uint64_t(2) * d * 8));
  attn_.bias = reinterpret_cast<const double*>(
      expect_size(fmt::SectionId::kAttentionBias, 16));
  attn_.vocab_size = hdr.vocab_size;
  attn_.dim = hdr.embedding_dim;

  // --- cluster geometry ---
  cluster_.centroids = reinterpret_cast<const double*>(expect_size(
      fmt::SectionId::kCentroids, std::uint64_t(hdr.feature_dim) * d * 8));
  cluster_.radius = reinterpret_cast<const double*>(expect_size(
      fmt::SectionId::kCentroidRadius, std::uint64_t(hdr.feature_dim) * 8));
  cluster_.benign = reinterpret_cast<const std::uint64_t*>(expect_size(
      fmt::SectionId::kCentroidBenign,
      std::uint64_t(benign_word_count(hdr.feature_dim)) * 8));
  cluster_.feature_dim = hdr.feature_dim;
  cluster_.dim = hdr.embedding_dim;
  cluster_.binary_features =
      (hdr.flags & fmt::kFlagBinaryClusterFeatures) != 0;

  // --- interpretability index ---
  central_offsets_ = reinterpret_cast<const std::uint32_t*>(
      expect_size(fmt::SectionId::kCentralPathOffsets,
                  (std::uint64_t(hdr.feature_dim) + 1) * sizeof(std::uint32_t)));
  std::size_t central_blob_size = 0;
  central_blob_ = reinterpret_cast<const char*>(
      section_payload(fmt::SectionId::kCentralPathBlob, &central_blob_size));
  require(central_offsets_[0] == 0, "clusters.central_offsets", 0,
          "prefix table does not start at zero");
  for (std::uint32_t f = 0; f < hdr.feature_dim; ++f) {
    require(central_offsets_[f] <= central_offsets_[f + 1] &&
                central_offsets_[f + 1] <= central_blob_size,
            "clusters.central_offsets", f, "prefix table is not monotone");
  }

  // --- scaler ---
  scaler_min_ = reinterpret_cast<const double*>(
      expect_size(fmt::SectionId::kScalerMin, std::uint64_t(n_features) * 8));
  scaler_max_ = reinterpret_cast<const double*>(
      expect_size(fmt::SectionId::kScalerMax, std::uint64_t(n_features) * 8));

  // --- forest ---
  const auto* offsets = reinterpret_cast<const std::uint32_t*>(
      expect_size(fmt::SectionId::kForestOffsets,
                  (std::uint64_t(hdr.n_trees) + 1) * sizeof(std::uint32_t)));
  std::size_t nodes_size = 0;
  const auto* nodes = reinterpret_cast<const ml::ForestNodeRec*>(
      section_payload(fmt::SectionId::kForestNodes, &nodes_size));
  require(nodes_size % sizeof(ml::ForestNodeRec) == 0, "forest.nodes", 0,
          "node pool is not a whole number of records");
  const std::size_t n_nodes = nodes_size / sizeof(ml::ForestNodeRec);
  require(offsets[0] == 0, "forest.offsets", 0,
          "prefix table does not start at zero");
  for (std::uint32_t t = 0; t < hdr.n_trees; ++t) {
    require(offsets[t] <= offsets[t + 1] && offsets[t + 1] <= n_nodes,
            "forest.offsets", t, "prefix table is not monotone");
    const std::uint32_t tree_size = offsets[t + 1] - offsets[t];
    for (std::uint32_t i = offsets[t]; i < offsets[t + 1]; ++i) {
      const ml::ForestNodeRec& n = nodes[i];
      if (n.feature < 0) continue;  // leaf
      const bool ok =
          static_cast<std::uint32_t>(n.feature) < n_features &&
          n.left >= 0 && static_cast<std::uint32_t>(n.left) < tree_size &&
          n.right >= 0 && static_cast<std::uint32_t>(n.right) < tree_size;
      require(ok, "forest.nodes", i,
              "node " + std::to_string(i) + " indexes out of bounds");
    }
  }
  require(offsets[hdr.n_trees] == n_nodes, "forest.offsets", hdr.n_trees,
          "node pool has unreachable tail nodes");
  forest_.nodes = nodes;
  forest_.offsets = offsets;
  forest_.n_trees = hdr.n_trees;
  forest_.n_features = static_cast<std::uint32_t>(n_features);

  path_cfg_ = paths::PathConfig{};
  path_cfg_.max_length = static_cast<int>(hdr.path_max_length);
  path_cfg_.max_width = static_cast<int>(hdr.path_max_width);
  path_cfg_.use_dataflow = (hdr.flags & fmt::kFlagUseDataflow) != 0;
  deobfuscate_ = (hdr.flags & fmt::kFlagDeobfuscate) != 0;

  rollback.armed = false;
}

ArtifactInfo ModelView::info() const {
  ArtifactInfo out;
  out.header = header_;
  for (const fmt::SectionRec& rec : sections_) {
    ArtifactSectionInfo si;
    si.rec = rec;
    si.name = fmt::section_name(static_cast<fmt::SectionId>(rec.id));
    si.checksum_ok = payload_checksum(data_, rec) == rec.checksum;
    out.sections.push_back(si);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Inference

void ModelView::train(const dataset::Corpus&) {
  throw std::logic_error(
      "ModelView is immutable; train a JsRevealer and save_artifact()");
}

std::vector<double> ModelView::featurize(const std::string& source) const {
  return featurize(
      analysis::ScriptAnalysis(source, parse_limits_, deobfuscate_));
}

std::vector<double> ModelView::featurize(
    const analysis::ScriptAnalysis& analysis) const {
  static obs::Summary* const enhanced_ast_stage =
      obs::stage_summary("enhanced_ast");
  static obs::Summary* const path_traversal_stage =
      obs::stage_summary("path_traversal");
  static obs::Summary* const embedding_stage = obs::stage_summary("embedding");
  if (!loaded()) {
    throw std::logic_error("ModelView: no artifact attached");
  }
  if (analysis.parse_failed()) {
    throw std::runtime_error(analysis.parse_error());
  }
  // The parse was booked when it ran (ScriptAnalysis); provenance still
  // reports its cost.
  obs::StageDurationsMs ms;
  ms.parse = analysis.parse_ms();

  // Forcing dataflow() is free when another consumer (lint, a second
  // detector) already materialized it on the shared analysis; the sampled
  // cost is then near zero.
  Timer t_ast;
  const analysis::DataFlowInfo* flow =
      path_cfg_.use_dataflow ? &analysis.dataflow() : nullptr;
  ms.enhanced_ast = t_ast.elapsed_ms();
  enhanced_ast_stage->observe(ms.enhanced_ast);

  Timer t_paths;
  const auto pcs = paths::extract_paths(analysis.root(), flow, path_cfg_);
  ms.path_traversal = t_paths.elapsed_ms();
  path_traversal_stage->observe(ms.path_traversal);

  Timer t_embed;
  std::vector<std::int32_t> ids;
  ids.reserve(pcs.size());
  for (const auto& pc : pcs) ids.push_back(vocab_.lookup(pc));
  ml::EmbeddedScript emb = ml::embed_paths(attn_, ids);
  ms.embedding = t_embed.elapsed_ms();
  embedding_stage->observe(ms.embedding);

  obs::VerdictProvenance* prov = analysis.provenance();
  std::vector<double> f = cluster_features(cluster_, emb, prov);
  if (header_.lint_dim != 0) {
    // Shares the analysis' memoized AST/scope/data-flow with the path
    // extraction above: the lint tail costs no second parse.
    static obs::Summary* const lint_stage = obs::stage_summary("lint");
    Timer t_lint;
    const lint::LintResult lr = linter_.lint(analysis);
    const std::vector<double> lf = lint::lint_feature_vector(lr);
    f.insert(f.end(), lf.begin(), lf.end());
    ms.lint = t_lint.elapsed_ms();
    lint_stage->observe(ms.lint);
    if (prov != nullptr) {
      prov->lint_malice_diags = 0;
      prov->lint_hygiene_diags = 0;
      prov->lint_rules_fired.clear();
      for (const lint::Diagnostic& diag : lr.diagnostics) {
        if (diag.category == lint::Category::kMalice) {
          ++prov->lint_malice_diags;
        } else {
          ++prov->lint_hygiene_diags;
        }
        prov->lint_rules_fired.push_back(diag.rule_id);
      }
      std::sort(prov->lint_rules_fired.begin(), prov->lint_rules_fired.end());
      prov->lint_rules_fired.erase(
          std::unique(prov->lint_rules_fired.begin(),
                      prov->lint_rules_fired.end()),
          prov->lint_rules_fired.end());
    }
  }
  if (prov != nullptr) {
    prov->source_bytes = analysis.source().size();
    prov->path_count = pcs.size();
    prov->known_path_count = static_cast<std::size_t>(
        std::count_if(ids.begin(), ids.end(),
                      [](std::int32_t id) { return id >= 0; }));
    prov->train_clusters_removed = header_.clusters_removed;
    prov->stage_ms = ms;
  }
  ml::scale_row(f.data(), scaler_min_, scaler_max_, f.size());
  return f;
}

int ModelView::classify(const std::string& source) const {
  return classify(
      analysis::ScriptAnalysis(source, parse_limits_, deobfuscate_));
}

int ModelView::classify(const analysis::ScriptAnalysis& analysis) const {
  return record_verdict(classify_timed(analysis, name()));
}

int ModelView::classify_timed(const analysis::ScriptAnalysis& analysis,
                              const std::string& detector) const {
  static obs::Summary* const classify_stage = obs::stage_summary("classify");
  obs::VerdictProvenance* prov = analysis.provenance();
  if (prov != nullptr) {
    prov->detector = detector;
    prov->source_bytes = analysis.source().size();
    prov->train_clusters_removed = header_.clusters_removed;
  }
  if (!loaded()) {
    if (prov != nullptr) prov->verdict = 1;
    return 1;  // fail closed: no model, no benign verdicts
  }
  const int verdict = analysis.classify_or_malicious([&]() -> int {
    try {
      const std::vector<double> f = featurize(analysis);
      Timer t;
      const int v = classifier_ != nullptr ? classifier_->predict(f.data())
                                           : forest_.predict(f.data());
      const double classify_ms = t.elapsed_ms();
      classify_stage->observe(classify_ms);
      if (prov != nullptr) prov->stage_ms.classify = classify_ms;
      return v;
    } catch (const std::exception&) {
      return 1;  // degenerate input that survives the parse → same verdict
    }
  });
  if (prov != nullptr) {
    prov->verdict = verdict;
    prov->parse_failed = analysis.parse_failed();
    if (prov->parse_failed) {
      prov->parse_error = analysis.parse_error();
      prov->parse_limit_trip = analysis.parse_limit_trip();
    }
  }
  return verdict;
}

std::vector<int> ModelView::classify_all(
    const std::vector<std::string>& sources) const {
  // Inference is read-only over the mapping, so scripts fan out
  // independently with verdicts written to disjoint slots.
  std::vector<int> verdicts(sources.size(), 1);
  parallel_for_threads(threads_, sources.size(), [&](std::size_t i) {
    verdicts[i] = classify(sources[i]);
  });
  return verdicts;
}

std::vector<int> ModelView::classify_all(
    const analysis::AnalyzedCorpus& corpus) const {
  std::vector<int> verdicts(corpus.size(), 1);
  parallel_for_threads(threads_, corpus.size(), [&](std::size_t i) {
    verdicts[i] = classify(*corpus.scripts[i]);
  });
  return verdicts;
}

obs::VerdictProvenance ModelView::explain(const std::string& source) const {
  analysis::ScriptAnalysis analysis(source, parse_limits_, deobfuscate_);
  analysis.enable_provenance();
  classify(analysis);
  return *analysis.provenance();
}

}  // namespace jsrev::core
