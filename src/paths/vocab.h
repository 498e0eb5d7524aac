// Path vocabulary: maps canonical path-context strings to dense indices.
//
// The embedding model's input is (conceptually) a one-hot vector over this
// vocabulary, so W·p_i reduces to an embedding-column lookup.
//
// Storage is interned and offset-indexed rather than a std::string map: all
// keys live in one contiguous blob, per-entry metadata is a fixed-width
// 24-byte record (precomputed FNV-1a hash + blob offset + segment lengths),
// and lookup probes an open-addressing table of 32-bit slots. The same three
// flat buffers are what the JSRM model artifact serializes verbatim, so a
// mapped model performs vocabulary lookups zero-copy through PathVocabView —
// the borrowed-pointer form of the table that PathVocab itself also uses
// over its own storage (one lookup implementation for heap and mmap).
//
// The per-entry segment lengths double as the inverse index that powers the
// Table VII interpretability report (cluster center → the human-readable
// central path): representative(id) rebuilds the PathContext from the blob.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "paths/path_extraction.h"
#include "util/hash.h"

namespace jsrev::paths {

/// Fixed-width vocabulary entry, mappable directly from a model artifact.
/// Layout is little-endian and padding-free (static_asserted below).
struct VocabEntryRec {
  std::uint64_t hash = 0;       // fnv1a64 of the canonical key
  std::uint32_t offset = 0;     // key start in the blob
  std::uint32_t length = 0;     // full key length ("src|path|tgt")
  std::uint32_t source_len = 0; // length of the source-value segment
  std::uint32_t path_len = 0;   // length of the path segment
};
static_assert(sizeof(VocabEntryRec) == 24, "entry record must be packed");

/// Borrowed, read-only view of a vocabulary's three flat buffers. Copyable
/// and trivially cheap; does not own the memory it points into (the owning
/// PathVocab or the mapped artifact must outlive it).
class PathVocabView {
 public:
  static constexpr std::int32_t kUnknown = -1;

  PathVocabView() = default;
  PathVocabView(const char* blob, const VocabEntryRec* entries,
                std::uint32_t n_entries, const std::uint32_t* table,
                std::uint32_t table_size)
      : blob_(blob),
        entries_(entries),
        n_entries_(n_entries),
        table_(table),
        table_size_(table_size) {}

  /// Hash of a path context, identical to fnv1a64(pc.key()) but computed
  /// without materializing the key string.
  static std::uint64_t hash_of(const PathContext& pc) {
    const std::string_view seg[] = {pc.source_value, "|", pc.path, "|",
                                    pc.target_value};
    return hash_segments(fnv1a64_begin(), seg, 5);
  }

  /// Looks up a path context without allocating. kUnknown if absent.
  std::int32_t lookup(const PathContext& pc) const {
    const std::string_view seg[] = {pc.source_value, "|", pc.path, "|",
                                    pc.target_value};
    return find(hash_segments(fnv1a64_begin(), seg, 5), seg, 5);
  }

  /// The id of every path of `set`, in order, found by streaming its key
  /// segments: lookup(set.context(k)) for each k, with no string built.
  /// The hash of a key's head (x_s through the top node) is computed once
  /// per source leaf, ends and up, and shared by the paths that leaf starts.
  std::vector<std::int32_t> lookup_all(const PathSet& set) const;

  /// The one probe: the id whose key is the concatenation of the `n`
  /// segments `seg` (x_s, "|", the path pieces, "|", x_t), given their
  /// hash `h`; kUnknown if absent. A hash match is confirmed by the key's
  /// lengths, then its bytes.
  std::int32_t find(std::uint64_t h, const std::string_view* seg,
                    std::size_t n) const {
    if (table_size_ == 0) return kUnknown;
    const std::uint32_t mask = table_size_ - 1;
    for (std::uint32_t probe = static_cast<std::uint32_t>(h) & mask;;
         probe = (probe + 1) & mask) {
      const std::uint32_t slot = table_[probe];
      if (slot == 0) return kUnknown;
      const std::uint32_t id = slot - 1;
      if (entries_[id].hash == h && equals(entries_[id], seg, n)) {
        return static_cast<std::int32_t>(id);
      }
    }
  }

  std::uint32_t size() const { return n_entries_; }

  /// Canonical key of an entry ("src|path|tgt") as a view into the blob.
  std::string_view key(std::int32_t id) const {
    const VocabEntryRec& e = entries_[static_cast<std::uint32_t>(id)];
    return {blob_ + e.offset, e.length};
  }

  std::string_view source_value(std::int32_t id) const {
    const VocabEntryRec& e = entries_[static_cast<std::uint32_t>(id)];
    return {blob_ + e.offset, e.source_len};
  }
  std::string_view path_value(std::int32_t id) const {
    const VocabEntryRec& e = entries_[static_cast<std::uint32_t>(id)];
    return {blob_ + e.offset + e.source_len + 1, e.path_len};
  }
  std::string_view target_value(std::int32_t id) const {
    const VocabEntryRec& e = entries_[static_cast<std::uint32_t>(id)];
    const std::uint32_t head = e.source_len + 1 + e.path_len + 1;
    return {blob_ + e.offset + head, e.length - head};
  }

 private:
  bool equals(const VocabEntryRec& e, const std::string_view* seg,
              std::size_t n) const {
    std::size_t length = 0;
    for (std::size_t i = 0; i < n; ++i) length += seg[i].size();
    if (e.length != length || e.source_len != seg[0].size() ||
        e.path_len != length - seg[0].size() - seg[n - 1].size() - 2) {
      return false;
    }
    const char* k = blob_ + e.offset;
    for (std::size_t i = 0; i < n; ++i) {
      if (!seg[i].empty() &&
          std::memcmp(k, seg[i].data(), seg[i].size()) != 0) {
        return false;
      }
      k += seg[i].size();
    }
    return true;
  }

  const char* blob_ = nullptr;
  const VocabEntryRec* entries_ = nullptr;
  std::uint32_t n_entries_ = 0;
  const std::uint32_t* table_ = nullptr;  // open addressing, id+1, 0 = empty
  std::uint32_t table_size_ = 0;          // power of two
};

class PathVocab {
 public:
  static constexpr std::int32_t kUnknown = PathVocabView::kUnknown;

  /// Interns a path key; grows the vocabulary (training-time use).
  std::int32_t add(const PathContext& pc);

  /// Looks up without growing. kUnknown if absent.
  std::int32_t lookup(const PathContext& pc) const {
    return view().lookup(pc);
  }

  std::size_t size() const { return entries_.size(); }

  std::string_view key(std::int32_t id) const { return view().key(id); }

  /// Representative context for a vocabulary entry, rebuilt from the blob.
  PathContext representative(std::int32_t id) const {
    const PathVocabView v = view();
    return {std::string(v.source_value(id)), std::string(v.path_value(id)),
            std::string(v.target_value(id))};
  }

  /// Borrowed view over this vocabulary's storage — the exact lookup code a
  /// mapped model artifact runs.
  PathVocabView view() const {
    return {blob_.data(), entries_.data(),
            static_cast<std::uint32_t>(entries_.size()), table_.data(),
            static_cast<std::uint32_t>(table_.size())};
  }

  // Flat buffers, exposed for the artifact writer (serialized verbatim).
  const std::string& blob() const { return blob_; }
  const std::vector<VocabEntryRec>& entries() const { return entries_; }
  const std::vector<std::uint32_t>& table() const { return table_; }

 private:
  void insert_into_table(std::uint32_t id);
  void rehash(std::size_t min_slots);

  std::string blob_;                    // concatenated "src|path|tgt" keys
  std::vector<VocabEntryRec> entries_;  // id-ordered
  std::vector<std::uint32_t> table_;    // open addressing, id+1, 0 = empty
};

}  // namespace jsrev::paths
