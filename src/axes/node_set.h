#ifndef XPE_AXES_NODE_SET_H_
#define XPE_AXES_NODE_SET_H_

#include <span>
#include <string>
#include <vector>

#include "src/xml/node.h"

namespace xpe {

/// "No limit" for every node-count bound: ResultSpec::node_limit() of
/// the full-result modes, and the `limit` argument of the step kernels
/// (scan, index and parallel) that stop after that many
/// document-order-first nodes.
inline constexpr uint64_t kNoNodeLimit = ~uint64_t{0};

/// A set of nodes of one document, stored as a sorted (= document-ordered,
/// see xml::NodeId) duplicate-free vector. This is the 2^dom element the
/// paper's set-valued semantics ranges over; keeping it sorted makes
/// first<doc O(1), set algebra O(n), and membership O(log n).
class NodeSet {
 public:
  NodeSet() = default;
  /// Takes ownership of `ids`, sorting and deduplicating as needed.
  explicit NodeSet(std::vector<xml::NodeId> ids);

  static NodeSet Single(xml::NodeId id) { return NodeSet({id}); }
  /// Copies an already sorted duplicate-free id sequence (e.g. a
  /// NodeTable row or pooled scratch buffer).
  static NodeSet FromSorted(std::span<const xml::NodeId> ids);
  /// All ids in [0, size): the paper's `dom` (attributes included; callers
  /// that need tree-only sets filter by kind).
  static NodeSet Universe(xml::NodeId size);

  bool empty() const { return ids_.empty(); }
  size_t size() const { return ids_.size(); }
  xml::NodeId operator[](size_t i) const { return ids_[i]; }

  /// First node in document order — the paper's first<doc. Set must be
  /// non-empty.
  xml::NodeId First() const { return ids_.front(); }

  bool Contains(xml::NodeId id) const;

  /// Set algebra; operands may belong to the same document only.
  NodeSet Union(const NodeSet& other) const;
  NodeSet Intersect(const NodeSet& other) const;
  NodeSet Difference(const NodeSet& other) const;

  bool operator==(const NodeSet& other) const { return ids_ == other.ids_; }

  /// Appends an id known to be larger than all current members.
  void PushBackOrdered(xml::NodeId id);

  const std::vector<xml::NodeId>& ids() const { return ids_; }

  std::vector<xml::NodeId>::const_iterator begin() const {
    return ids_.begin();
  }
  std::vector<xml::NodeId>::const_iterator end() const { return ids_.end(); }

  /// "{1, 5, 7}" — for test failure messages.
  std::string ToString() const;

 private:
  std::vector<xml::NodeId> ids_;
};

/// Set algebra over sorted duplicate-free id sequences writing into a
/// caller-owned buffer (cleared first; must not alias an input). These
/// are the allocation-free work-horses of the session-pooled engines:
/// `out` is typically an EvalWorkspace scratch buffer whose capacity
/// survives across evaluations.
void UnionInto(std::span<const xml::NodeId> a, std::span<const xml::NodeId> b,
               std::vector<xml::NodeId>* out);
void IntersectInto(std::span<const xml::NodeId> a,
                   std::span<const xml::NodeId> b,
                   std::vector<xml::NodeId>* out);
void DifferenceInto(std::span<const xml::NodeId> a,
                    std::span<const xml::NodeId> b,
                    std::vector<xml::NodeId>* out);
/// Sorts and deduplicates in place (for buffers filled out of order).
void SortUnique(std::vector<xml::NodeId>* ids);

/// A dense membership bitmap over one document's nodes, O(|D|) to build
/// and to convert. Only the axis algorithms of axis.h that scan the whole
/// document anyway (forward child, the sibling axes) use it for their
/// marking passes; the others gather only what their input reaches.
class NodeBitmap {
 public:
  explicit NodeBitmap(xml::NodeId universe_size)
      : bits_(universe_size, 0) {}
  NodeBitmap(xml::NodeId universe_size, const NodeSet& init)
      : NodeBitmap(universe_size) {
    for (xml::NodeId id : init) bits_[id] = 1;
  }

  bool Test(xml::NodeId id) const { return bits_[id] != 0; }
  void Set(xml::NodeId id) { bits_[id] = 1; }
  void Clear(xml::NodeId id) { bits_[id] = 0; }
  xml::NodeId size() const { return static_cast<xml::NodeId>(bits_.size()); }

  /// Converts to the sorted NodeSet representation in O(|D|).
  NodeSet ToNodeSet() const;

 private:
  std::vector<uint8_t> bits_;
};

}  // namespace xpe

#endif  // XPE_AXES_NODE_SET_H_
