#include "src/axes/node_table.h"

namespace xpe {

void NodeTable::Reset(EvalArena* arena, uint32_t num_keys) {
  ids_.Reset(arena);
  num_keys_ = num_keys;
  const EvalArena::KeySlots keys = arena->AcquireKeySlots(num_keys);
  slots_ = keys.slots;
  stamp_ = keys.stamp;
  cells_ = 0;
  bound_ = true;
}

void NodeTable::BeginRow(uint32_t key) {
  open_key_ = key;
  open_begin_ = ids_.size();
}

void NodeTable::CommitRow() {
  KeySlot& slot = slots_[open_key_];
  if (slot.stamp == stamp_) cells_ -= slot.size;
  slot.offset = open_begin_;
  // A sorted duplicate-free row of NodeIds: its length fits a NodeId.
  slot.size = static_cast<uint32_t>(ids_.size() - open_begin_);
  slot.stamp = stamp_;
  cells_ += slot.size;
}

void NodeTable::SetRow(uint32_t key, std::span<const xml::NodeId> ids) {
  BeginRow(key);
  ids_.append(ids.data(), ids.size());
  CommitRow();
}

void NodeTable::CopyRows(const NodeTable& other) {
  for (uint32_t k = 0; k < other.num_keys_ && k < num_keys_; ++k) {
    if (other.has_row(k)) SetRow(k, other.Row(k));
  }
}

void NodeTable::UnionRowsInto(std::span<const xml::NodeId> keys,
                              std::vector<xml::NodeId>* out) const {
  out->clear();
  for (xml::NodeId key : keys) {
    const std::span<const xml::NodeId> row = Row(key);
    out->insert(out->end(), row.begin(), row.end());
  }
  if (keys.size() > 1) SortUnique(out);  // one row is sorted already
}

NodeSet NodeTable::RowAsNodeSet(uint32_t key) const {
  // Rows are sorted and duplicate-free by construction.
  return NodeSet::FromSorted(Row(key));
}

}  // namespace xpe
