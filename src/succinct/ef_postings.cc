#include "src/succinct/ef_postings.h"

#include <bit>

namespace xpe::succinct {

EliasFanoList::EliasFanoList(std::span<const uint32_t> values,
                             uint64_t universe)
    : m_(values.size()) {
  if (m_ == 0) return;
  const uint64_t u = universe < 1 ? 1 : universe;
  const uint64_t per = u / m_;
  l_ = per <= 1 ? 0 : static_cast<uint32_t>(std::bit_width(per) - 1);

  high_ = BitVector(m_ + (u >> l_) + 1);
  for (size_t k = 0; k < m_; ++k) {
    high_.Set((static_cast<uint64_t>(values[k]) >> l_) + k);
  }
  high_.Finish();

  if (l_ > 0) {
    // +1 spare word so the straddling read in Low() never runs off the
    // end.
    low_.assign((m_ * l_ + 63) / 64 + 1, 0);
    const uint64_t mask = (uint64_t{1} << l_) - 1;
    for (size_t k = 0; k < m_; ++k) {
      const uint64_t lo = values[k] & mask;
      const size_t b = k * l_;
      low_[b >> 6] |= lo << (b & 63);
      if ((b & 63) + l_ > 64) low_[(b >> 6) + 1] |= lo >> (64 - (b & 63));
    }
  }
}

uint32_t EliasFanoList::Get(size_t k) const {
  return static_cast<uint32_t>(((high_.Select1(k) - k) << l_) | Low(k));
}

size_t EliasFanoList::LowerBoundFrom(size_t from, uint32_t v) const {
  size_t lo = from, hi = m_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Get(mid) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

EliasFanoList::Cursor::Cursor(const EliasFanoList* list, size_t k)
    : list_(list), k_(k) {
  if (k_ < list_->m_) high_pos_ = list_->high_.Select1(k_);
}

void EliasFanoList::Cursor::Next() {
  ++k_;
  if (k_ >= list_->m_) return;
  const std::vector<uint64_t>& words = list_->high_.words();
  size_t w = (high_pos_ + 1) >> 6;
  uint64_t cur = words[w] & (~uint64_t{0} << ((high_pos_ + 1) & 63));
  while (cur == 0) cur = words[++w];
  high_pos_ = (w << 6) + static_cast<size_t>(std::countr_zero(cur));
}

void EliasFanoList::Decode(size_t k0, size_t k1, uint32_t* out) const {
  Cursor c(this, k0);
  for (size_t k = k0; k < k1; ++k, c.Next()) *out++ = c.Value();
}

size_t EliasFanoList::MemoryUsageBytes() const {
  return high_.MemoryUsageBytes() + low_.capacity() * sizeof(uint64_t);
}

}  // namespace xpe::succinct
