#ifndef XPE_SUCCINCT_BITVECTOR_H_
#define XPE_SUCCINCT_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xpe::succinct {

/// A plain bitvector with near-O(1) select, the high-bits layer of the
/// dense tier's Elias-Fano postings (ef_postings.h).
///
/// Space: the bits plus a small directory — one cumulative popcount per
/// 512-bit superblock, and one superblock pointer per 512 ones (the
/// "sampled select" of the SXSI line: samples narrow the superblock
/// binary search to a constant-length window, the final word scan is at
/// most 8 popcounts).
///
/// Build protocol: construct with the size, Set() bits in any order, then
/// Finish() exactly once. After Finish the structure is immutable and
/// safe for concurrent reads (the tier contract: Document publishes it
/// through a once_flag, queries only read).
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t n) : words_((n + 63) / 64, 0) {}

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  /// Builds the superblock directory and select samples. Call once,
  /// after the last Set.
  void Finish();

  /// Position of the k-th set bit, 0-based (`k` below the number of set
  /// bits). Valid after Finish.
  size_t Select1(uint64_t k) const;

  /// Raw word access for sequential decoders (Elias-Fano cursors walk
  /// the high bits directly instead of paying one Select1 per element).
  const std::vector<uint64_t>& words() const { return words_; }

  size_t MemoryUsageBytes() const;

 private:
  /// 8 words = 512 bits per superblock; one select sample per 512 ones.
  static constexpr size_t kWordsPerSuper = 8;
  static constexpr uint64_t kSelectSample = 512;

  std::vector<uint64_t> words_;
  /// super_[j] = set bits before superblock j.
  std::vector<uint64_t> super_;
  /// select_samples_[j] = superblock containing the (j*512)-th one.
  std::vector<uint32_t> select_samples_;
};

}  // namespace xpe::succinct

#endif  // XPE_SUCCINCT_BITVECTOR_H_
