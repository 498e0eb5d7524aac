#include "paths/vocab.h"

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
