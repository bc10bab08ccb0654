#include "src/axes/node_table.h"

namespace xpe {

void NodeTable::Reset(EvalArena* arena, uint32_t num_keys) {
  ids_.Reset(arena);
  num_keys_ = num_keys;
  rows_ = static_cast<RowRef*>(
      arena->Allocate(sizeof(RowRef) * num_keys, alignof(RowRef)));
  for (uint32_t k = 0; k < num_keys; ++k) rows_[k] = RowRef{};
  row_open_ = false;
  cells_ = 0;
  bound_ = true;
}

void NodeTable::BeginRow(uint32_t key) {
  open_key_ = key;
  open_begin_ = ids_.size();
  row_open_ = true;
}

void NodeTable::CommitRow() {
  RowRef& row = rows_[open_key_];
  if (row.size > 0) cells_ -= static_cast<uint64_t>(row.size);
  row.offset = open_begin_;
  row.size = static_cast<ptrdiff_t>(ids_.size() - open_begin_);
  cells_ += static_cast<uint64_t>(row.size);
  row_open_ = false;
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
  SortUnique(out);
}

NodeSet NodeTable::RowAsNodeSet(uint32_t key) const {
  std::span<const xml::NodeId> row = Row(key);
  // Rows are sorted and duplicate-free by construction, so the NodeSet
  // constructor's sort pass is a no-op scan.
  return NodeSet(std::vector<xml::NodeId>(row.begin(), row.end()));
}

}  // namespace xpe
