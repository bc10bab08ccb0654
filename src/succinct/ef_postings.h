#ifndef XPE_SUCCINCT_EF_POSTINGS_H_
#define XPE_SUCCINCT_EF_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/succinct/bitvector.h"

namespace xpe::succinct {

/// An Elias-Fano encoded sorted id list — the dense tier's postings
/// representation. A list of m ids below universe u takes
/// m * (2 + log2(u/m)) bits plus the bitvector directory, against 32
/// bits per id for the flat tier; on real documents that is 3-8x
/// smaller.
///
/// The split: each value contributes its low l = floor(log2(u/m)) bits
/// verbatim to a packed array, and its high bits as a unary gap in a
/// bitvector (bit (v >> l) + k set for the k-th value). Random access
/// Get(k) is one Select1 + one packed read; LowerBound is a binary
/// search over Get, so PostingsView::CountInRange(lo, hi) — the
/// O(log n) subtree counting the dispatcher's kCount fast path rides
/// on — is two binary searches and never touches more than O(log m)
/// elements.
///
/// Immutable after construction; safe for concurrent reads.
class EliasFanoList {
 public:
  EliasFanoList() = default;

  /// `values` must be sorted ascending (duplicates allowed); every value
  /// must be < `universe`.
  EliasFanoList(std::span<const uint32_t> values, uint64_t universe);

  size_t size() const { return m_; }

  /// The k-th value, 0-based (`k < size()`).
  uint32_t Get(size_t k) const;

  /// Index of the first value >= v (== size() when none).
  size_t LowerBound(uint32_t v) const { return LowerBoundFrom(0, v); }
  size_t LowerBoundFrom(size_t from, uint32_t v) const;

  /// Sequential decoder. One Select1 to open, then each step is a word
  /// walk over the high bits — O(1) amortized, no per-element select.
  class Cursor {
   public:
    /// Opens at value k (`k <= list->size()`; at size() it is spent).
    Cursor(const EliasFanoList* list, size_t k);

    uint32_t Value() const {
      return static_cast<uint32_t>(
          ((static_cast<uint64_t>(high_pos_) - k_) << list_->l_) |
          list_->Low(k_));
    }
    void Next();

   private:
    const EliasFanoList* list_;
    size_t k_;
    size_t high_pos_ = 0;  // position of the k_-th set high bit
  };

  /// Copies values [k0, k1) into `out` (PostingsView::Decode on the
  /// dense tier, behind MINCONTEXT's SeedCandidates and
  /// IndexedApplyNodeTestInto; the flat tier's equivalent is
  /// std::copy_n).
  void Decode(size_t k0, size_t k1, uint32_t* out) const;

  /// Calls `f(value)` for values [k0, k1) in order; stops early when f
  /// returns false.
  template <typename F>
  bool Scan(size_t k0, size_t k1, F&& f) const {
    Cursor c(this, k0);
    for (size_t k = k0; k < k1; ++k, c.Next()) {
      if (!f(c.Value())) return false;
    }
    return true;
  }

  size_t MemoryUsageBytes() const;

 private:
  friend class Cursor;

  /// The packed low l_ bits of the k-th value.
  uint64_t Low(size_t k) const {
    if (l_ == 0) return 0;
    const size_t b = k * l_;
    uint64_t v = low_[b >> 6] >> (b & 63);
    if ((b & 63) + l_ > 64) v |= low_[(b >> 6) + 1] << (64 - (b & 63));
    return v & ((uint64_t{1} << l_) - 1);
  }

  size_t m_ = 0;
  uint32_t l_ = 0;
  BitVector high_;
  std::vector<uint64_t> low_;
};

}  // namespace xpe::succinct

#endif  // XPE_SUCCINCT_EF_POSTINGS_H_
