// JSRM v3 artifact writer: serializes a trained JsRevealer into the
// page-aligned, checksummed section layout of core/model_format.h. train()
// writes it once and attaches its owned ModelView to the bytes; the save
// calls hand out those same bytes.
//
// The writer gathers every parameter block in its flat training-time form
// (the vocabulary's three buffers verbatim, the attention matrices' backing
// vectors, the packed benign bitset, the flattened forest) and lays them out
// back to back on 4 KiB boundaries with zero-filled gaps. Nothing here is
// sampled, timed, or randomized, so a deterministic model produces
// byte-identical artifacts at any thread width.
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "core/jsrevealer.h"
#include "core/model_format.h"
#include "ml/decision_tree.h"
#include "util/hash.h"

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
  rec.checksum = fnv1a64_begin();
  if (bytes != 0) {
    rec.checksum = fnv1a64(
        std::string_view(static_cast<const char*>(payload), bytes));
    const auto* b = static_cast<const std::uint8_t*>(payload);
    buf->insert(buf->end(), b, b + bytes);
  }
  sections->push_back(rec);
}

template <typename T>
void add_vector_section(std::vector<std::uint8_t>* buf,
                        std::vector<fmt::SectionRec>* sections,
                        fmt::SectionId id, const std::vector<T>& v) {
  add_section(buf, sections, id, v.data(), v.size() * sizeof(T));
}

}  // namespace

std::vector<std::uint8_t> JsRevealer::write_artifact() const {
  // Flatten the forest and the interpretability index up front; every other
  // block already lives in its serialized form. Other classifier kinds get
  // an empty forest (zero trees, offsets {0}).
  const auto* forest =
      dynamic_cast<const ml::RandomForest*>(classifier_.get());
  std::vector<ml::ForestNodeRec> forest_nodes;
  std::vector<std::uint32_t> forest_offsets{0};
  if (forest != nullptr) forest->export_flat(&forest_nodes, &forest_offsets);

  std::string central_blob;
  std::vector<std::uint32_t> central_offsets;
  central_offsets.reserve(central_path_.size() + 1);
  central_offsets.push_back(0);
  for (const std::string& p : central_path_) {
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
  hdr.feature_dim = static_cast<std::uint32_t>(feature_dim_);
  hdr.lint_dim = static_cast<std::uint32_t>(lint_dim_);
  hdr.clusters_removed = static_cast<std::uint32_t>(clusters_removed_);
  hdr.vocab_size = static_cast<std::uint32_t>(vocab_.size());
  hdr.vocab_table_size = static_cast<std::uint32_t>(vocab_.table().size());
  hdr.n_trees = static_cast<std::uint32_t>(forest_offsets.size() - 1);
  hdr.path_max_length = static_cast<std::uint32_t>(cfg_.path.max_length);
  hdr.path_max_width = static_cast<std::uint32_t>(cfg_.path.max_width);
  hdr.max_vocab = cfg_.max_vocab;

  std::vector<std::uint8_t> buf(sizeof(fmt::ArtifactHeader) +
                                    fmt::kSectionCount * sizeof(fmt::SectionRec),
                                0);
  std::vector<fmt::SectionRec> sections;
  sections.reserve(fmt::kSectionCount);

  add_vector_section(&buf, &sections, fmt::SectionId::kVocabEntries,
                     vocab_.entries());
  add_vector_section(&buf, &sections, fmt::SectionId::kVocabTable,
                     vocab_.table());
  add_section(&buf, &sections, fmt::SectionId::kVocabBlob,
              vocab_.blob().data(), vocab_.blob().size());
  add_vector_section(&buf, &sections, fmt::SectionId::kAttentionW,
                     model_.weight_matrix().data());
  add_vector_section(&buf, &sections, fmt::SectionId::kAttentionA,
                     model_.attention_vector());
  add_vector_section(&buf, &sections, fmt::SectionId::kAttentionU,
                     model_.head_matrix().data());
  add_vector_section(&buf, &sections, fmt::SectionId::kAttentionBias,
                     model_.head_bias());
  add_vector_section(&buf, &sections, fmt::SectionId::kCentroids,
                     centroids_.data());
  add_vector_section(&buf, &sections, fmt::SectionId::kCentroidRadius,
                     centroid_radius_);
  add_vector_section(&buf, &sections, fmt::SectionId::kCentroidBenign,
                     centroid_benign_);
  add_vector_section(&buf, &sections, fmt::SectionId::kCentralPathOffsets,
                     central_offsets);
  add_section(&buf, &sections, fmt::SectionId::kCentralPathBlob,
              central_blob.data(), central_blob.size());
  add_vector_section(&buf, &sections, fmt::SectionId::kScalerMin,
                     scaler_.fitted_min());
  add_vector_section(&buf, &sections, fmt::SectionId::kScalerMax,
                     scaler_.fitted_max());
  add_vector_section(&buf, &sections, fmt::SectionId::kForestOffsets,
                     forest_offsets);
  add_vector_section(&buf, &sections, fmt::SectionId::kForestNodes,
                     forest_nodes);

  hdr.file_size = buf.size();
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  std::memcpy(buf.data() + sizeof(hdr), sections.data(),
              sections.size() * sizeof(fmt::SectionRec));
  return buf;
}

std::span<const std::uint8_t> JsRevealer::artifact_bytes() const {
  if (!trained_) {
    throw std::logic_error("JsRevealer::save_artifact: detector is not trained");
  }
  if (dynamic_cast<const ml::RandomForest*>(classifier_.get()) == nullptr) {
    throw std::logic_error(
        "JsRevealer::save_artifact: persistence supports the random-forest "
        "classifier only");
  }
  return {view_.data_, view_.size_};
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
