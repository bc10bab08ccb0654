#include "src/succinct/bitvector.h"

#include <bit>

namespace xpe::succinct {

void BitVector::Finish() {
  const size_t n_words = words_.size();
  super_.assign((n_words + kWordsPerSuper - 1) / kWordsPerSuper, 0);
  uint64_t ones = 0;
  for (size_t w = 0; w < n_words; ++w) {
    if (w % kWordsPerSuper == 0) super_[w / kWordsPerSuper] = ones;
    ones += static_cast<uint64_t>(std::popcount(words_[w]));
  }

  // One sample per kSelectSample ones: the superblock that holds the
  // (j * kSelectSample)-th one. Select1 binary-searches super_ between
  // consecutive samples, so the search window is O(1) superblocks.
  select_samples_.assign(ones / kSelectSample + 1, 0);
  size_t sb = 0;
  for (size_t j = 0; j < select_samples_.size(); ++j) {
    const uint64_t k = j * kSelectSample;
    while (sb + 1 < super_.size() && super_[sb + 1] <= k) ++sb;
    select_samples_[j] = static_cast<uint32_t>(sb);
  }
}

namespace {

/// Position of the k-th set bit of `word` (0-based; `word` has > k set
/// bits).
inline size_t SelectInWord(uint64_t word, uint64_t k) {
  for (;; word &= word - 1) {
    if (k == 0) return static_cast<size_t>(std::countr_zero(word));
    --k;
  }
}

}  // namespace

size_t BitVector::Select1(uint64_t k) const {
  // Narrow to the sampled superblock window, then binary-search super_
  // for the last superblock whose cumulative rank is <= k.
  size_t lo = select_samples_[k / kSelectSample];
  const uint64_t next_sample = k / kSelectSample + 1;
  size_t hi = next_sample < select_samples_.size()
                  ? select_samples_[next_sample] + 1
                  : super_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (super_[mid] <= k) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  uint64_t r = super_[lo];
  for (size_t w = lo * kWordsPerSuper;; ++w) {
    const uint64_t c = static_cast<uint64_t>(std::popcount(words_[w]));
    if (r + c > k) return (w << 6) + SelectInWord(words_[w], k - r);
    r += c;
  }
}

size_t BitVector::MemoryUsageBytes() const {
  return words_.capacity() * sizeof(uint64_t) +
         super_.capacity() * sizeof(uint64_t) +
         select_samples_.capacity() * sizeof(uint32_t);
}

}  // namespace xpe::succinct
