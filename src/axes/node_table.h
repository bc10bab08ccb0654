#ifndef XPE_AXES_NODE_TABLE_H_
#define XPE_AXES_NODE_TABLE_H_

#include <span>
#include <vector>

#include "src/axes/arena.h"
#include "src/axes/node_set.h"
#include "src/xml/node.h"

namespace xpe {

/// A flat context-value table: the paper's per-expression pair relation
/// {(origin, target)} stored as one contiguous arena-backed NodeId buffer
/// plus per-key row references, replacing the seed's std::vector<NodeSet>
/// (one heap vector per row, thousands of small allocations per
/// evaluation). Keys are dense — a document NodeId for per-origin
/// relations, a list index for vectorized context lists.
///
/// Rows are append-only and immutable once committed; at most one row is
/// open at a time (its ids go to the tail of the shared buffer). Rows may
/// be committed for keys in any order, which is what the lazy per-origin
/// filling of MINCONTEXT needs. Each row must be pushed in ascending
/// NodeId order (document order), matching NodeSet::PushBackOrdered;
/// adjacent duplicates are dropped.
///
/// All storage comes from the bound EvalArena: the table dies (without
/// destructors) when the arena is Reset, and a reused evaluator session
/// re-serves it from retained blocks with zero heap allocations.
class NodeTable {
 public:
  NodeTable() = default;

  // Move-only (like ArenaVector): copies would share the id buffer and
  // row array, and a SetRow through either alias would corrupt the
  // other. Engines hand tables across generations with std::move.
  NodeTable(const NodeTable&) = delete;
  NodeTable& operator=(const NodeTable&) = delete;
  NodeTable(NodeTable&& other) noexcept { *this = std::move(other); }
  NodeTable& operator=(NodeTable&& other) noexcept {
    ids_ = std::move(other.ids_);
    rows_ = other.rows_;
    num_keys_ = other.num_keys_;
    open_key_ = other.open_key_;
    open_begin_ = other.open_begin_;
    row_open_ = other.row_open_;
    bound_ = other.bound_;
    cells_ = other.cells_;
    other.rows_ = nullptr;
    other.num_keys_ = 0;
    other.bound_ = false;
    other.cells_ = 0;
    return *this;
  }

  /// (Re)binds to `arena` with `num_keys` keys and no rows.
  void Reset(EvalArena* arena, uint32_t num_keys);

  /// True once Reset() has been called (tables are created lazily).
  bool initialized() const { return bound_; }
  uint32_t num_keys() const { return num_keys_; }

  bool has_row(uint32_t key) const { return rows_[key].size >= 0; }
  /// The committed row for `key`; empty span when absent.
  std::span<const xml::NodeId> Row(uint32_t key) const {
    const RowRef& row = rows_[key];
    if (row.size <= 0) return {};
    return {ids_.data() + row.offset, static_cast<size_t>(row.size)};
  }

  /// Row building. BeginRow/PushOrdered/CommitRow stream one key's ids;
  /// SetRow copies a prebuilt sorted-unique list in one shot. Re-setting
  /// an existing key's row abandons the old ids in the buffer.
  void BeginRow(uint32_t key);
  void PushOrdered(xml::NodeId id) {
    if (ids_.size() > open_begin_ && ids_.back() == id) return;
    ids_.push_back(id);
  }
  void CommitRow();
  void SetRow(uint32_t key, std::span<const xml::NodeId> ids);
  void SetRow(uint32_t key, const NodeSet& set) {
    SetRow(key, std::span<const xml::NodeId>(set.ids()));
  }

  /// Copies every committed row of `other` (same num_keys assumed).
  void CopyRows(const NodeTable& other);

  /// The union of the rows of `keys`, sorted and duplicate-free, into a
  /// caller-owned buffer (cleared first).
  void UnionRowsInto(std::span<const xml::NodeId> keys,
                     std::vector<xml::NodeId>* out) const;

  /// Total ids stored across committed rows — the "table cells" the
  /// space instrumentation counts.
  uint64_t cells() const { return cells_; }

  /// Row(key) as an owning NodeSet (for the Value boundary).
  NodeSet RowAsNodeSet(uint32_t key) const;

 private:
  struct RowRef {
    size_t offset = 0;
    ptrdiff_t size = -1;  // -1: no row committed for this key
  };

  ArenaVector<xml::NodeId> ids_;
  RowRef* rows_ = nullptr;
  uint32_t num_keys_ = 0;
  uint32_t open_key_ = 0;
  size_t open_begin_ = 0;
  bool row_open_ = false;
  bool bound_ = false;
  uint64_t cells_ = 0;
};

}  // namespace xpe

#endif  // XPE_AXES_NODE_TABLE_H_
