// JSRM v4 artifact writer: serializes the parameters JsRevealer::train()
// built into the page-aligned, checksummed section layout of
// core/model_format.h. train() writes it once and attaches the detector to
// the bytes; the save calls hand out those same bytes.
//
// The writer gathers every parameter block in its flat training-time form
// (the vocabulary's three buffers verbatim, the per-path table, the packed
// benign bitset, the forest's node pool), lays them out back to back on
// 4 KiB boundaries with zero-filled gaps, and seals the result. Nothing here
// is sampled, timed, or randomized, so a deterministic model produces
// byte-identical artifacts at any thread width.
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/jsrevealer.h"
#include "core/model_format.h"
#include "ml/decision_tree.h"

namespace jsrev::core {

namespace {

void pad_to_align(std::vector<std::uint8_t>* buf) {
  const std::size_t aligned =
      (buf->size() + fmt::kSectionAlign - 1) / fmt::kSectionAlign *
      fmt::kSectionAlign;
  buf->resize(aligned, 0);
}

void add_section(std::vector<std::uint8_t>* buf,
                 std::vector<fmt::SectionRec>* sections, fmt::SectionId id,
                 const void* payload, std::size_t bytes) {
  pad_to_align(buf);
  fmt::SectionRec rec;
  rec.id = static_cast<std::uint32_t>(id);
  rec.offset = buf->size();
  rec.size = bytes;
  const auto* b = static_cast<const std::uint8_t*>(payload);
  if (bytes != 0) buf->insert(buf->end(), b, b + bytes);
  sections->push_back(rec);
}

template <typename T>
void add_vector_section(std::vector<std::uint8_t>* buf,
                        std::vector<fmt::SectionRec>* sections,
                        fmt::SectionId id, const std::vector<T>& v) {
  add_section(buf, sections, id, v.data(), v.size() * sizeof(T));
}

}  // namespace

std::vector<std::uint8_t> JsRevealer::write_artifact(
    const paths::PathVocab& vocab, const Trained& t) const {
  std::string central_blob;
  std::vector<std::uint32_t> central_offsets;
  central_offsets.reserve(t.central_path.size() + 1);
  central_offsets.push_back(0);
  for (const std::string& p : t.central_path) {
    central_blob += p;
    central_offsets.push_back(static_cast<std::uint32_t>(central_blob.size()));
  }

  fmt::ArtifactHeader hdr;
  std::memcpy(hdr.magic, fmt::kMagic, sizeof(hdr.magic));
  hdr.section_count = fmt::kSectionCount;
  if (cfg_.path.use_dataflow) hdr.flags |= fmt::kFlagUseDataflow;
  if (cfg_.deobfuscate) hdr.flags |= fmt::kFlagDeobfuscate;
  if (cfg_.binary_cluster_features) {
    hdr.flags |= fmt::kFlagBinaryClusterFeatures;
  }
  hdr.embedding_dim = static_cast<std::uint32_t>(cfg_.embedding_dim);
  // One central path per surviving cluster.
  hdr.feature_dim = static_cast<std::uint32_t>(t.central_path.size());
  hdr.lint_dim = static_cast<std::uint32_t>(
      cfg_.lint_features ? lint::kLintFeatureDim : 0);
  hdr.clusters_removed = static_cast<std::uint32_t>(t.clusters_removed);
  hdr.vocab_size = static_cast<std::uint32_t>(vocab.size());
  hdr.vocab_table_size = static_cast<std::uint32_t>(vocab.table().size());
  hdr.n_trees = static_cast<std::uint32_t>(t.forest.offsets().size() - 1);
  hdr.path_max_length = static_cast<std::uint32_t>(cfg_.path.max_length);
  hdr.path_max_width = static_cast<std::uint32_t>(cfg_.path.max_width);
  hdr.max_vocab = cfg_.max_vocab;

  std::vector<std::uint8_t> buf(sizeof(fmt::ArtifactHeader) +
                                    fmt::kSectionCount * sizeof(fmt::SectionRec),
                                0);
  std::vector<fmt::SectionRec> sections;
  sections.reserve(fmt::kSectionCount);

  add_vector_section(&buf, &sections, fmt::SectionId::kVocabEntries,
                     vocab.entries());
  add_vector_section(&buf, &sections, fmt::SectionId::kVocabTable,
                     vocab.table());
  add_section(&buf, &sections, fmt::SectionId::kVocabBlob,
              vocab.blob().data(), vocab.blob().size());
  add_vector_section(&buf, &sections, fmt::SectionId::kPathTable,
                     t.path_table);
  add_vector_section(&buf, &sections, fmt::SectionId::kCentroidBenign,
                     t.benign);
  add_vector_section(&buf, &sections, fmt::SectionId::kCentralPathOffsets,
                     central_offsets);
  add_section(&buf, &sections, fmt::SectionId::kCentralPathBlob,
              central_blob.data(), central_blob.size());
  add_vector_section(&buf, &sections, fmt::SectionId::kScalerMin,
                     t.scaler.fitted_min());
  add_vector_section(&buf, &sections, fmt::SectionId::kScalerMax,
                     t.scaler.fitted_max());
  add_vector_section(&buf, &sections, fmt::SectionId::kForestOffsets,
                     t.forest.offsets());
  add_vector_section(&buf, &sections, fmt::SectionId::kForestNodes,
                     t.forest.nodes());

  hdr.file_size = buf.size();
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  std::memcpy(buf.data() + sizeof(hdr), sections.data(),
              sections.size() * sizeof(fmt::SectionRec));
  fmt::seal(buf.data());
  return buf;
}

std::span<const std::uint8_t> JsRevealer::artifact_bytes() const {
  if (!loaded()) {
    throw std::logic_error("JsRevealer::save_artifact: detector is not trained");
  }
  return {data_, size_};
}

std::vector<std::uint8_t> JsRevealer::save_artifact() const {
  const std::span<const std::uint8_t> bytes = artifact_bytes();
  return {bytes.begin(), bytes.end()};
}

void JsRevealer::save_artifact_file(const std::string& path) const {
  const std::span<const std::uint8_t> bytes = artifact_bytes();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace jsrev::core
