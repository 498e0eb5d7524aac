// JSRM v4 model artifact: the only persisted form of a trained JsRevealer,
// an immutable, mmap-able binary.
//
//   [ArtifactHeader][SectionRec x section_count][...payloads...]
//
// The header and the section table are fixed-width little-endian structs at
// offset 0; every payload starts on a kSectionAlign (4 KiB) boundary so a
// mapped file hands out naturally-aligned pointers for every element type
// the sections contain (doubles, u64 words, 16- and 32-byte records). Gaps
// are zero-filled, which together with deterministic training makes the
// whole artifact byte-identical across runs and thread widths.
//
// The artifact carries exactly what inference reads. Paper Eq. 1-2 and
// Section III-D make a path's attention score and cluster a function of its
// vocabulary id alone, so the trainer stores one ml::PathTableRec per id
// (path.table) in place of the embedding matrix, attention vector, head and
// centroid geometry those records are computed from.
//
// Each SectionRec carries an FNV-1a64 checksum over its payload, and the
// header's `checksum` seals the header and the section table themselves
// (flags, dimensions, path bounds, section offsets). Loaders verify the
// seal on every attach and the payload checksums unless told the file is
// trusted, before trusting any pointer, so a truncated or bit-flipped
// artifact surfaces as ser::ModelFormatError, never as a wild read.
//
// The layout stores native little-endian scalars; big-endian hosts are out of
// scope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "util/hash.h"

namespace jsrev::core::fmt {

inline constexpr char kMagic[4] = {'J', 'S', 'R', 'M'};
inline constexpr std::uint32_t kFormatVersion = 4;
inline constexpr std::uint64_t kSectionAlign = 4096;

/// Header flag bits; any other bit is rejected.
inline constexpr std::uint32_t kFlagUseDataflow = 1u << 0;
inline constexpr std::uint32_t kFlagDeobfuscate = 1u << 1;
inline constexpr std::uint32_t kFlagBinaryClusterFeatures = 1u << 2;
inline constexpr std::uint32_t kKnownFlags =
    kFlagUseDataflow | kFlagDeobfuscate | kFlagBinaryClusterFeatures;

/// Sections, stored in id order.
enum class SectionId : std::uint32_t {
  kVocabEntries = 1,        // VocabEntryRec[vocab_size]
  kVocabTable = 2,          // u32[vocab_table_size] open-addressing slots
  kVocabBlob = 3,           // concatenated "src|path|tgt" keys
  kPathTable = 4,           // ml::PathTableRec[vocab_size]
  kCentroidBenign = 5,      // u64[(feature_dim + 63) / 64] packed bits
  kCentralPathOffsets = 6,  // u32[feature_dim + 1] prefix into the blob
  kCentralPathBlob = 7,     // concatenated central-path strings
  kScalerMin = 8,           // f64[feature_dim + lint_dim]
  kScalerMax = 9,           // f64[feature_dim + lint_dim]
  kForestOffsets = 10,      // u32[n_trees + 1] prefix into the node pool
  kForestNodes = 11,        // ForestNodeRec[offsets[n_trees]]
};

inline constexpr std::uint32_t kSectionCount = 11;

/// Human-readable section name (diagnostics, `jsr_model inspect`).
inline const char* section_name(SectionId id) {
  switch (id) {
    case SectionId::kVocabEntries: return "vocab.entries";
    case SectionId::kVocabTable: return "vocab.table";
    case SectionId::kVocabBlob: return "vocab.blob";
    case SectionId::kPathTable: return "path.table";
    case SectionId::kCentroidBenign: return "clusters.benign";
    case SectionId::kCentralPathOffsets: return "clusters.central_offsets";
    case SectionId::kCentralPathBlob: return "clusters.central_blob";
    case SectionId::kScalerMin: return "scaler.min";
    case SectionId::kScalerMax: return "scaler.max";
    case SectionId::kForestOffsets: return "forest.offsets";
    case SectionId::kForestNodes: return "forest.nodes";
  }
  return "unknown";
}

/// One section-table row (32 bytes, padding-free).
struct SectionRec {
  std::uint32_t id = 0;        // SectionId
  std::uint32_t reserved = 0;  // always zero
  std::uint64_t offset = 0;    // absolute, kSectionAlign-aligned
  std::uint64_t size = 0;      // payload bytes
  std::uint64_t checksum = 0;  // fnv1a64 over the payload bytes
};
static_assert(sizeof(SectionRec) == 32, "section record must be packed");

/// Fixed-width artifact header at file offset 0 (80 bytes, padding-free).
struct ArtifactHeader {
  char magic[4] = {0, 0, 0, 0};           // "JSRM"
  std::uint32_t version = kFormatVersion;
  std::uint64_t file_size = 0;            // total artifact bytes
  std::uint32_t section_count = 0;
  std::uint32_t flags = 0;                // kFlag* bits
  std::uint32_t embedding_dim = 0;        // d of the model the table came from
  std::uint32_t feature_dim = 0;          // surviving clusters (both classes)
  std::uint32_t lint_dim = 0;             // 0 = no lint feature tail
  std::uint32_t clusters_removed = 0;
  std::uint32_t vocab_size = 0;
  std::uint32_t vocab_table_size = 0;     // power of two (0 iff vocab empty)
  std::uint32_t n_trees = 0;
  std::uint32_t path_max_length = 0;
  std::uint32_t path_max_width = 0;
  std::uint32_t reserved0 = 0;            // always zero
  std::uint64_t max_vocab = 0;
  std::uint64_t checksum = 0;             // header_checksum()
};
static_assert(sizeof(ArtifactHeader) == 80, "artifact header must be packed");

/// Words needed to hold one clusters.benign bit per surviving cluster.
inline std::size_t benign_word_count(std::size_t n_clusters) {
  return (n_clusters + 63) / 64;
}

/// Reads cluster `i`'s benign-origin bit from the packed word array.
inline bool benign_bit(const std::uint64_t* words, std::size_t i) {
  return ((words[i >> 6] >> (i & 63)) & 1ULL) != 0;
}

/// Sets cluster `i`'s benign-origin bit.
inline void set_benign_bit(std::uint64_t* words, std::size_t i) {
  words[i >> 6] |= 1ULL << (i & 63);
}

/// FNV-1a64 over a section's payload bytes.
inline std::uint64_t payload_checksum(const std::uint8_t* data,
                                      const SectionRec& rec) {
  return fnv1a64(std::string_view(
      reinterpret_cast<const char*>(data) + rec.offset, rec.size));
}

/// The header seal: FNV-1a64 over the header bytes before `checksum`, then
/// the `section_count` section-table rows that follow the header.
inline std::uint64_t header_checksum(const std::uint8_t* data,
                                     std::uint32_t section_count) {
  const auto* bytes = reinterpret_cast<const char*>(data);
  const std::uint64_t h = fnv1a64(
      std::string_view(bytes, offsetof(ArtifactHeader, checksum)));
  return fnv1a64_step(
      h, std::string_view(bytes + sizeof(ArtifactHeader),
                          std::size_t{section_count} * sizeof(SectionRec)));
}

/// Writes every section's payload checksum, then the header seal, into an
/// artifact whose header, section table and payloads are in place. The
/// writer's last step; tests and the fuzzer reseal deliberately edited
/// payloads with it. The table must lie inside `data`.
inline void seal(std::uint8_t* data) {
  ArtifactHeader hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  std::uint8_t* table = data + sizeof(ArtifactHeader);
  for (std::uint32_t k = 0; k < hdr.section_count; ++k) {
    SectionRec rec;
    std::memcpy(&rec, table + k * sizeof(SectionRec), sizeof(rec));
    rec.checksum = payload_checksum(data, rec);
    std::memcpy(table + k * sizeof(SectionRec), &rec, sizeof(rec));
  }
  hdr.checksum = header_checksum(data, hdr.section_count);
  std::memcpy(data, &hdr, sizeof(hdr));
}

}  // namespace jsrev::core::fmt
