#ifndef XPE_INDEX_INDEX_TIER_H_
#define XPE_INDEX_INDEX_TIER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "src/xml/node.h"

namespace xpe::succinct {
class EliasFanoList;
class SuccinctDocumentIndex;
}  // namespace xpe::succinct

namespace xpe::index {

class DocumentIndex;

/// The per-document index storage choice. Both tiers answer the same
/// kernel-facing surface (PostingsView + IndexView below) and are
/// bit-identical in results — the trade is memory for latency:
///
///   kHot    flat sorted vector<NodeId> postings + a depth array
///           (index::DocumentIndex). ~9 bytes/node; postings walks are
///           pointer-chasing-free array scans.
///   kDense  Elias-Fano postings + a balanced-parentheses tree
///           (succinct::SuccinctDocumentIndex). ~1 byte/node — an
///           order of magnitude more documents pinned per GB — at a
///           small constant-factor decode cost per posting touched.
enum class IndexTier : uint8_t {
  kHot = 0,
  kDense = 1,
};

/// "hot" / "dense" (stable names: the serve API and bench output use
/// them).
const char* IndexTierToString(IndexTier tier);

/// Parses "hot" / "dense". Returns false (and leaves *out alone) on
/// anything else.
bool ParseIndexTier(std::string_view text, IndexTier* out);

/// One sorted postings list, tier-erased. Flat postings are a span over
/// the DocumentIndex vectors; dense postings point at an Elias-Fano
/// list. The step kernels dispatch once per step on is_flat() and run a
/// tier-specialized loop, so the hot path stays the exact array code it
/// was before the tier existed.
class PostingsView {
 public:
  PostingsView() = default;
  explicit PostingsView(std::span<const xml::NodeId> flat)
      : flat_(flat), size_(flat.size()) {}
  explicit PostingsView(const succinct::EliasFanoList* dense);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_flat() const { return dense_ == nullptr; }

  /// The flat span (valid only when is_flat()).
  std::span<const xml::NodeId> flat() const { return flat_; }
  /// The dense list (valid only when !is_flat()).
  const succinct::EliasFanoList* dense() const { return dense_; }

  /// The k-th id, ascending document order (`k < size()`).
  xml::NodeId Get(size_t k) const;
  /// Index of the first id >= v (== size() when none).
  size_t LowerBound(xml::NodeId v) const;
  /// Number of ids in [lo, hi): O(log size) on both tiers — the
  /// dispatcher's kCount fast path.
  uint64_t CountInRange(xml::NodeId lo, xml::NodeId hi) const;
  /// Copies ids [k0, k1) into out (the whole-list copy behind
  /// MINCONTEXT's SeedCandidates and IndexedApplyNodeTestInto).
  void Decode(size_t k0, size_t k1, xml::NodeId* out) const;

 private:
  std::span<const xml::NodeId> flat_;
  const succinct::EliasFanoList* dense_ = nullptr;
  size_t size_ = 0;
};

/// A document's index under one tier, tier-erased: the full
/// kernel-facing surface (named postings + universes + depths). Cheap
/// to copy (two pointers); obtained from
/// xml::Document::index_view(tier).
class IndexView {
 public:
  IndexView() = default;
  explicit IndexView(const DocumentIndex* hot) : hot_(hot) {}
  explicit IndexView(const succinct::SuccinctDocumentIndex* dense)
      : dense_(dense) {}

  IndexTier tier() const {
    return hot_ != nullptr ? IndexTier::kHot : IndexTier::kDense;
  }
  const DocumentIndex* hot() const { return hot_; }
  const succinct::SuccinctDocumentIndex* dense() const { return dense_; }

  PostingsView ElementsNamed(uint32_t name_id) const;
  PostingsView AttributesNamed(uint32_t name_id) const;
  PostingsView all_elements() const;
  PostingsView all_attributes() const;

  /// Node depth (root = 0): array read on hot, paren excess on dense.
  uint32_t depth(xml::NodeId id) const;

  size_t MemoryUsageBytes() const;

 private:
  const DocumentIndex* hot_ = nullptr;
  const succinct::SuccinctDocumentIndex* dense_ = nullptr;
};

}  // namespace xpe::index

#endif  // XPE_INDEX_INDEX_TIER_H_
