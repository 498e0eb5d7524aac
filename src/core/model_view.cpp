#include "core/model_view.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace jsrev::core {

namespace {

[[noreturn]] void fail(const char* section, std::uint64_t offset,
                       const std::string& detail) {
  throw ser::ModelFormatError(section, offset, detail);
}

// The detail is a literal, so a check that passes builds no string; checks
// whose message carries numbers call fail() on the failure branch instead.
void require(bool ok, const char* section, std::uint64_t offset,
             const char* detail) {
  if (!ok) fail(section, offset, detail);
}

bool is_pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

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
  // attach() checked that the table lists the sections in id order.
  const fmt::SectionRec& rec = sections_[static_cast<std::uint32_t>(id) - 1];
  *size_out = rec.size;
  return data_ + rec.offset;
}

void ModelView::attach(std::shared_ptr<const void> owner,
                       const std::uint8_t* data, std::size_t size,
                       bool verify_checksums) {
  using Hdr = fmt::ArtifactHeader;
  // --- header + section table, sealed by the header checksum ---
  if (size < sizeof(Hdr)) {
    fail("header", 0,
         "truncated before the header ends (" + std::to_string(size) +
             " bytes)");
  }
  Hdr hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  require(std::memcmp(hdr.magic, fmt::kMagic, sizeof(hdr.magic)) == 0,
          "header", 0, "bad magic (not a JSRM artifact)");
  if (hdr.version != fmt::kFormatVersion) {
    fail("header", offsetof(Hdr, version),
         "unsupported artifact version " + std::to_string(hdr.version));
  }
  if (hdr.file_size != size) {
    fail("header", offsetof(Hdr, file_size),
         "file size mismatch: header says " + std::to_string(hdr.file_size) +
             ", file has " + std::to_string(size));
  }
  if (hdr.section_count != fmt::kSectionCount) {
    fail("header", offsetof(Hdr, section_count),
         "unexpected section count " + std::to_string(hdr.section_count));
  }
  const std::uint64_t table_end =
      sizeof(Hdr) + std::uint64_t{hdr.section_count} * sizeof(fmt::SectionRec);
  require(size >= table_end, "section_table", sizeof(Hdr),
          "truncated inside the section table");
  require(fmt::header_checksum(data, hdr.section_count) == hdr.checksum,
          "header", offsetof(Hdr, checksum),
          "header checksum mismatch (header or section table corrupted)");
  require((hdr.flags & ~fmt::kKnownFlags) == 0, "header",
          offsetof(Hdr, flags), "unknown flag bits");
  require(hdr.reserved0 == 0, "header", offsetof(Hdr, reserved0),
          "reserved field is not zero");
  require(hdr.embedding_dim > 0 && hdr.embedding_dim <= (1u << 20), "header",
          offsetof(Hdr, embedding_dim), "implausible embedding_dim");
  require(hdr.feature_dim <= (1u << 24), "header", offsetof(Hdr, feature_dim),
          "implausible feature_dim");
  if (hdr.lint_dim != 0 && hdr.lint_dim != lint::kLintFeatureDim) {
    fail("header", offsetof(Hdr, lint_dim),
         "lint feature width mismatch: file has " +
             std::to_string(hdr.lint_dim));
  }
  require(hdr.vocab_table_size == 0 || is_pow2(hdr.vocab_table_size),
          "header", offsetof(Hdr, vocab_table_size),
          "vocabulary table size is not a power of two");
  require(hdr.vocab_size == 0 || hdr.vocab_table_size > hdr.vocab_size,
          "header", offsetof(Hdr, vocab_table_size),
          "vocabulary table smaller than the vocabulary");
  require(hdr.path_max_length <= paths::kMaxPathLength, "header",
          offsetof(Hdr, path_max_length), "path_max_length exceeds 255");
  require(hdr.path_max_width <= paths::kMaxPathWidth, "header",
          offsetof(Hdr, path_max_width), "path_max_width exceeds 65535");

  std::vector<fmt::SectionRec> sections(hdr.section_count);
  std::memcpy(sections.data(), data + sizeof(Hdr),
              hdr.section_count * sizeof(fmt::SectionRec));
  std::uint64_t prev_end = table_end;
  for (std::uint32_t k = 0; k < hdr.section_count; ++k) {
    const fmt::SectionRec& rec = sections[k];
    if (rec.id != k + 1) {
      fail("section_table", sizeof(Hdr) + k * sizeof(fmt::SectionRec),
           "row " + std::to_string(k) + " holds section id " +
               std::to_string(rec.id) + ", expected " + std::to_string(k + 1));
    }
    const char* name = fmt::section_name(static_cast<fmt::SectionId>(rec.id));
    require(rec.reserved == 0, name, rec.offset,
            "reserved field is not zero");
    require(rec.offset % fmt::kSectionAlign == 0, name, rec.offset,
            "payload is not aligned");
    require(rec.offset >= prev_end && rec.offset <= size &&
                rec.size <= size - rec.offset,
            name, rec.offset,
            "payload overlaps the previous one or exceeds the file");
    prev_end = rec.offset + rec.size;
    if (verify_checksums) {
      require(fmt::payload_checksum(data, rec) == rec.checksum, name,
              rec.offset, "checksum mismatch (payload corrupted)");
    }
  }

  // Commit storage so section_payload() works for the cross-checks below;
  // on any later failure the view is left unloaded again.
  owner_ = std::move(owner);
  data_ = data;
  size_ = size;
  header_ = hdr;
  sections_ = std::move(sections);
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

  const std::size_t n_features = hdr.feature_dim + hdr.lint_dim;
  auto expect_size = [&](fmt::SectionId id, std::uint64_t want) {
    std::size_t got = 0;
    const std::uint8_t* p = section_payload(id, &got);
    if (got != want) {
      fail(fmt::section_name(id), static_cast<std::uint64_t>(p - data_),
           "payload is " + std::to_string(got) + " bytes, expected " +
               std::to_string(want));
    }
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
    if (!segments_fit) {
      fail("vocab.entries", i,
           "entry " + std::to_string(i) + " exceeds the key blob");
    }
  }
  std::uint32_t occupied = 0;
  for (std::uint32_t s = 0; s < hdr.vocab_table_size; ++s) {
    require(table[s] <= hdr.vocab_size, "vocab.table", s,
            "probe slot points past the vocabulary");
    occupied += table[s] != 0;
  }
  // With vocab_size of the table_size > vocab_size slots occupied, at least
  // one is empty, and every lookup's probe sequence stops there.
  require(occupied == hdr.vocab_size, "vocab.table", 0,
          "occupied probe slots do not match the vocabulary size");
  vocab_ = paths::PathVocabView(blob, entries, hdr.vocab_size, table,
                                hdr.vocab_table_size);

  // --- per-path table ---
  const auto* recs = reinterpret_cast<const ml::PathTableRec*>(expect_size(
      fmt::SectionId::kPathTable,
      std::uint64_t(hdr.vocab_size) * sizeof(ml::PathTableRec)));
  for (std::uint32_t i = 0; i < hdr.vocab_size; ++i) {
    const ml::PathTableRec& r = recs[i];
    if (r.cluster < -1 || r.cluster >= std::int64_t{hdr.feature_dim} ||
        r.pad != 0) {
      fail("path.table", i,
           "record " + std::to_string(i) + " has cluster " +
               std::to_string(r.cluster) + " (feature_dim " +
               std::to_string(hdr.feature_dim) + ") or a nonzero pad");
    }
  }
  path_table_.recs = recs;
  path_table_.size = hdr.vocab_size;
  path_table_.n_clusters = hdr.feature_dim;
  path_table_.binary = (hdr.flags & fmt::kFlagBinaryClusterFeatures) != 0;

  // --- clusters: benign-origin bits and the interpretability index ---
  benign_ = reinterpret_cast<const std::uint64_t*>(expect_size(
      fmt::SectionId::kCentroidBenign,
      std::uint64_t(fmt::benign_word_count(hdr.feature_dim)) * 8));
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
      // Trees are stored in preorder, so children follow their parent and
      // every walk ends at a leaf.
      const std::int64_t local = i - offsets[t];
      const bool ok = static_cast<std::uint32_t>(n.feature) < n_features &&
                      n.left > local && n.left < std::int64_t{tree_size} &&
                      n.right > local && n.right < std::int64_t{tree_size};
      if (!ok) {
        fail("forest.nodes", i,
             "node " + std::to_string(i) + " indexes out of bounds");
      }
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

std::string_view ModelView::central_path(std::size_t f) const {
  if (f >= header_.feature_dim) {
    throw std::out_of_range("ModelView::central_path: feature " +
                            std::to_string(f) + " is not a cluster feature");
  }
  return {central_blob_ + central_offsets_[f],
          central_offsets_[f + 1] - central_offsets_[f]};
}

ArtifactInfo ModelView::info() const {
  ArtifactInfo out;
  out.header = header_;
  for (const fmt::SectionRec& rec : sections_) {
    ArtifactSectionInfo si;
    si.rec = rec;
    si.name = fmt::section_name(static_cast<fmt::SectionId>(rec.id));
    si.checksum_ok = fmt::payload_checksum(data_, rec) == rec.checksum;
    out.sections.push_back(si);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Inference

void ModelView::train(const analysis::AnalyzedCorpus&) {
  throw std::logic_error(
      "ModelView is immutable; train a JsRevealer and save_artifact()");
}

std::vector<double> ModelView::featurize(const std::string& source) const {
  return featurize(
      analysis::ScriptAnalysis(source, parse_limits_, deobfuscate_));
}

paths::PathSet ModelView::extract(
    const analysis::ScriptAnalysis& analysis, const paths::PathConfig& cfg,
    obs::StageDurationsMs* ms) {
  static obs::Summary* const enhanced_ast_stage =
      obs::stage_summary("enhanced_ast");
  static obs::Summary* const path_traversal_stage =
      obs::stage_summary("path_traversal");
  if (analysis.parse_failed()) {
    throw std::runtime_error(analysis.parse_error());
  }
  // Forcing dataflow() is free when another consumer (lint, a second
  // detector) already materialized it on the shared analysis; the sampled
  // cost is then near zero.
  Timer t_ast;
  const analysis::DataFlowInfo* flow =
      cfg.use_dataflow ? &analysis.dataflow() : nullptr;
  ms->enhanced_ast = t_ast.elapsed_ms();
  enhanced_ast_stage->observe(ms->enhanced_ast);

  Timer t_paths;
  paths::PathSet set = paths::enumerate_paths(analysis.root(), flow, cfg);
  ms->path_traversal = t_paths.elapsed_ms();
  path_traversal_stage->observe(ms->path_traversal);
  return set;
}

std::vector<double> ModelView::featurize(
    const analysis::ScriptAnalysis& analysis) const {
  static obs::Summary* const embedding_stage = obs::stage_summary("embedding");
  if (!loaded()) {
    throw std::logic_error("ModelView: no artifact attached");
  }
  obs::StageDurationsMs ms;
  const paths::PathSet set = extract(analysis, path_cfg_, &ms);
  // The parse and deob were booked when they ran (ScriptAnalysis);
  // provenance still reports their cost.
  ms.parse = analysis.parse_ms();
  ms.deob = analysis.deob_ms();

  // The four table-lookup steps, all booked as the embedding stage: probe
  // the vocabulary with each path's streamed key, then read, softmax and
  // accumulate the path records.
  Timer t_embed;
  const std::vector<std::int32_t> ids = vocab_.lookup_all(set);
  std::size_t outside = 0;
  std::vector<double> f = path_table_.cluster_features(ids, &outside);
  ms.embedding = t_embed.elapsed_ms();
  embedding_stage->observe(ms.embedding);

  obs::VerdictProvenance* prov = analysis.provenance();
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
    prov->path_count = set.size();
    prov->known_path_count = static_cast<std::size_t>(
        std::count_if(ids.begin(), ids.end(),
                      [](std::int32_t id) { return id >= 0; }));
    prov->paths_outside_clusters = outside;
    prov->cluster_attention.clear();
    for (std::uint32_t c = 0; c < header_.feature_dim; ++c) {
      if (f[c] == 0.0) continue;  // record only clusters the script touched
      obs::ClusterAttention ca;
      ca.feature_index = static_cast<int>(c);
      ca.from_benign = fmt::benign_bit(benign_, c);
      ca.mass = f[c];
      prov->cluster_attention.push_back(ca);
    }
    prov->train_clusters_removed = header_.clusters_removed;
    prov->stage_ms = ms;
  }
  ml::scale_row(f.data(), scaler_min_, scaler_max_, f.size());
  return f;
}

ml::Matrix ModelView::featurize_rows(
    const std::vector<const dataset::Sample*>& samples, std::size_t threads,
    std::vector<std::size_t>* used) const {
  // Featurization fans out per sample; the compaction below stays serial in
  // sample order, so the rows land in the same order at any width.
  std::vector<std::vector<double>> feats(samples.size());
  std::vector<char> ok(samples.size(), 0);
  parallel_for_threads(threads, samples.size(), [&](std::size_t i) {
    try {
      feats[i] = featurize(samples[i]->source);
      ok[i] = 1;
    } catch (const std::exception&) {
      // no row for this sample
    }
  });
  used->clear();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (ok[i] != 0) used->push_back(i);
  }
  ml::Matrix x(used->size(), feature_count());
  for (std::size_t r = 0; r < used->size(); ++r) {
    const std::vector<double>& f = feats[(*used)[r]];
    std::copy(f.begin(), f.end(), x.row(r));
  }
  return x;
}

int ModelView::classify(const analysis::ScriptAnalysis& analysis) const {
  static obs::Summary* const classify_stage = obs::stage_summary("classify");
  obs::Span span("core.classify", "core");
  obs::VerdictProvenance* prov = analysis.provenance();
  if (prov != nullptr) {
    prov->detector = name();
    prov->source_bytes = analysis.source().size();
    prov->train_clusters_removed = header_.clusters_removed;
  }
  if (!loaded()) {
    if (prov != nullptr) prov->verdict = 1;
    return record_verdict(1);  // fail closed: no model, no benign verdicts
  }
  const int verdict = analysis.classify_or_malicious([&]() -> int {
    try {
      const std::vector<double> f = featurize(analysis);
      Timer t;
      const int v = forest_.predict(f.data());
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
  return record_verdict(verdict);
}

std::vector<int> ModelView::classify_all(
    const std::vector<std::string>& sources) const {
  // Inference is read-only over the mapping, so scripts fan out
  // independently with verdicts written to disjoint slots.
  obs::Span span("core.classify_all", "core");
  std::vector<int> verdicts(sources.size(), 1);
  parallel_for_threads(threads_, sources.size(), [&](std::size_t i) {
    verdicts[i] = classify(sources[i]);
  });
  return verdicts;
}

std::vector<int> ModelView::classify_all(
    const analysis::AnalyzedCorpus& corpus) const {
  obs::Span span("core.classify_all", "core");
  std::vector<int> verdicts(corpus.size(), 1);
  parallel_for_threads(threads_, corpus.size(), [&](std::size_t i) {
    verdicts[i] = classify(*corpus.scripts[i]);
  });
  return verdicts;
}

ml::Metrics ModelView::evaluate(const dataset::Corpus& corpus) const {
  std::vector<std::string> sources;
  std::vector<int> truth;
  sources.reserve(corpus.samples.size());
  truth.reserve(corpus.samples.size());
  for (const auto& s : corpus.samples) {
    sources.push_back(s.source);
    truth.push_back(s.label);
  }
  return ml::compute_metrics(truth, classify_all(sources));
}

ml::Metrics ModelView::evaluate(const analysis::AnalyzedCorpus& corpus) const {
  return ml::compute_metrics(corpus.labels, classify_all(corpus));
}

obs::VerdictProvenance ModelView::explain(const std::string& source) const {
  analysis::ScriptAnalysis analysis(source, parse_limits_, deobfuscate_);
  analysis.enable_provenance();
  classify(analysis);
  return *analysis.provenance();
}

}  // namespace jsrev::core
