#include "paths/vocab.h"

#include <array>
#include <limits>
#include <stdexcept>

namespace jsrev::paths {

namespace {
// Probe table sized to keep load factor <= 0.5 (power of two for mask math).
std::size_t table_size_for(std::size_t entries) {
  std::size_t slots = 16;
  while (slots < entries * 2) slots <<= 1;
  return slots;
}
}  // namespace

std::vector<std::int32_t> PathVocabView::lookup_all(const PathSet& set) const {
  std::vector<std::int32_t> ids;
  ids.reserve(set.size());
  std::vector<std::string_view> seg;
  // Head hashes of the current source leaf by (ends, up); a slot is current
  // when its stamp is that leaf's index + 1 (records come in source order).
  constexpr std::size_t kSlots = 3 * (kMaxPathLength + 1);
  std::array<std::uint64_t, kSlots> head_hash;
  std::array<std::uint32_t, kSlots> stamp{};
  for (std::size_t k = 0; k < set.size(); ++k) {
    const PathRecord& r = set[k];
    seg.clear();
    set.key_segments(k, &seg);
    const std::size_t head = PathSet::head_segments(r);
    const std::size_t slot = static_cast<std::size_t>(r.ends) *
                                 (kMaxPathLength + 1) +
                             r.up;
    if (stamp[slot] != r.source + 1) {
      stamp[slot] = r.source + 1;
      head_hash[slot] = hash_segments(fnv1a64_begin(), seg.data(), head);
    }
    const std::uint64_t h = hash_segments(head_hash[slot], seg.data() + head,
                                          seg.size() - head);
    ids.push_back(find(h, seg.data(), seg.size()));
  }
  return ids;
}

void PathVocab::insert_into_table(std::uint32_t id) {
  const std::uint32_t mask = static_cast<std::uint32_t>(table_.size()) - 1;
  std::uint32_t probe = static_cast<std::uint32_t>(entries_[id].hash) & mask;
  while (table_[probe] != 0) probe = (probe + 1) & mask;
  table_[probe] = id + 1;
}

void PathVocab::rehash(std::size_t min_slots) {
  table_.assign(table_size_for(min_slots), 0);
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    insert_into_table(id);
  }
}

std::int32_t PathVocab::add(const PathContext& pc) {
  const std::int32_t existing = lookup(pc);
  if (existing != kUnknown) return existing;

  const std::size_t key_len =
      pc.source_value.size() + pc.path.size() + pc.target_value.size() + 2;
  if (blob_.size() + key_len > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("PathVocab: key blob exceeds 4 GiB");
  }

  VocabEntryRec e;
  e.hash = PathVocabView::hash_of(pc);
  e.offset = static_cast<std::uint32_t>(blob_.size());
  e.length = static_cast<std::uint32_t>(key_len);
  e.source_len = static_cast<std::uint32_t>(pc.source_value.size());
  e.path_len = static_cast<std::uint32_t>(pc.path.size());
  blob_.append(pc.source_value);
  blob_.push_back('|');
  blob_.append(pc.path);
  blob_.push_back('|');
  blob_.append(pc.target_value);

  const auto id = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(e);
  if (table_.empty() || entries_.size() * 2 > table_.size()) {
    rehash(entries_.size());
  } else {
    insert_into_table(id);
  }
  return static_cast<std::int32_t>(id);
}

}  // namespace jsrev::paths
