// JSRM v3 model artifact: the only persisted form of a trained JsRevealer,
// an immutable, mmap-able binary.
//
//   [ArtifactHeader][SectionRec x section_count][...payloads...]
//
// The header and the section table are fixed-width little-endian structs at
// offset 0; every payload starts on a kSectionAlign (4 KiB) boundary so a
// mapped file hands out naturally-aligned pointers for every element type
// the sections contain (doubles, u64 words, 32-byte node records). Gaps are
// zero-filled, which together with deterministic training makes the whole
// artifact byte-identical across runs and thread widths.
//
// Each SectionRec carries an FNV-1a64 checksum over its payload; loaders
// verify them before trusting any pointer, so a truncated or bit-flipped
// artifact surfaces as ser::ModelFormatError, never as a wild read.
//
// The layout stores native little-endian scalars; big-endian hosts are out of
// scope.
#pragma once

#include <cstdint>

namespace jsrev::core::fmt {

inline constexpr char kMagic[4] = {'J', 'S', 'R', 'M'};
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint64_t kSectionAlign = 4096;

/// Header flag bits.
inline constexpr std::uint32_t kFlagUseDataflow = 1u << 0;
inline constexpr std::uint32_t kFlagDeobfuscate = 1u << 1;
inline constexpr std::uint32_t kFlagBinaryClusterFeatures = 1u << 2;

enum class SectionId : std::uint32_t {
  kVocabEntries = 1,        // VocabEntryRec[vocab_size]
  kVocabTable = 2,          // u32[vocab_table_size] open-addressing slots
  kVocabBlob = 3,           // concatenated "src|path|tgt" keys
  kAttentionW = 4,          // f64[vocab_size * embedding_dim]
  kAttentionA = 5,          // f64[embedding_dim]
  kAttentionU = 6,          // f64[2 * embedding_dim]
  kAttentionBias = 7,       // f64[2]
  kCentroids = 8,           // f64[feature_dim * embedding_dim]
  kCentroidRadius = 9,      // f64[feature_dim]
  kCentroidBenign = 10,     // u64[(feature_dim + 63) / 64] packed bits
  kCentralPathOffsets = 11, // u32[feature_dim + 1] prefix into the blob
  kCentralPathBlob = 12,    // concatenated central-path strings
  kScalerMin = 13,          // f64[feature_dim + lint_dim]
  kScalerMax = 14,          // f64[feature_dim + lint_dim]
  kForestOffsets = 15,      // u32[n_trees + 1] prefix into the node pool
  kForestNodes = 16,        // ForestNodeRec[offsets[n_trees]]
};

inline constexpr std::uint32_t kSectionCount = 16;

/// Human-readable section name (diagnostics, `jsr_model inspect`).
inline const char* section_name(SectionId id) {
  switch (id) {
    case SectionId::kVocabEntries: return "vocab.entries";
    case SectionId::kVocabTable: return "vocab.table";
    case SectionId::kVocabBlob: return "vocab.blob";
    case SectionId::kAttentionW: return "attention.w";
    case SectionId::kAttentionA: return "attention.a";
    case SectionId::kAttentionU: return "attention.u";
    case SectionId::kAttentionBias: return "attention.bias";
    case SectionId::kCentroids: return "clusters.centroids";
    case SectionId::kCentroidRadius: return "clusters.radius";
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
  std::uint32_t embedding_dim = 0;
  std::uint32_t feature_dim = 0;          // surviving clusters (both classes)
  std::uint32_t lint_dim = 0;             // 0 = no lint feature tail
  std::uint32_t clusters_removed = 0;
  std::uint32_t vocab_size = 0;
  std::uint32_t vocab_table_size = 0;     // power of two (0 iff vocab empty)
  std::uint32_t n_trees = 0;
  std::uint32_t path_max_length = 0;
  std::uint32_t path_max_width = 0;
  std::uint32_t reserved0 = 0;
  std::uint64_t max_vocab = 0;
  std::uint64_t reserved1 = 0;
};
static_assert(sizeof(ArtifactHeader) == 80, "artifact header must be packed");

}  // namespace jsrev::core::fmt
