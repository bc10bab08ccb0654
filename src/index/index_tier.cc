#include "src/index/index_tier.h"

#include <algorithm>

#include "src/index/document_index.h"
#include "src/succinct/succinct_index.h"

namespace xpe::index {

const char* IndexTierToString(IndexTier tier) {
  switch (tier) {
    case IndexTier::kHot:
      return "hot";
    case IndexTier::kDense:
      return "dense";
  }
  return "unknown";
}

bool ParseIndexTier(std::string_view text, IndexTier* out) {
  if (text == "hot") {
    *out = IndexTier::kHot;
    return true;
  }
  if (text == "dense") {
    *out = IndexTier::kDense;
    return true;
  }
  return false;
}

PostingsView::PostingsView(const succinct::EliasFanoList* dense)
    : dense_(dense), size_(dense->size()) {}

size_t PostingsView::LowerBound(xml::NodeId v) const {
  if (is_flat()) {
    return static_cast<size_t>(
        std::lower_bound(flat_.begin(), flat_.end(), v) - flat_.begin());
  }
  return dense_->LowerBound(v);
}

uint64_t PostingsView::CountInRange(xml::NodeId lo, xml::NodeId hi) const {
  if (lo >= hi) return 0;
  return LowerBound(hi) - LowerBound(lo);
}

void PostingsView::Decode(size_t k0, size_t k1, xml::NodeId* out) const {
  if (k0 >= k1) return;
  if (is_flat()) {
    std::copy(flat_.begin() + k0, flat_.begin() + k1, out);
  } else {
    dense_->Decode(k0, k1, out);
  }
}

namespace {

PostingsView Flat(const std::vector<xml::NodeId>& postings) {
  return PostingsView(std::span<const xml::NodeId>(postings));
}

PostingsView Dense(const succinct::EliasFanoList& postings) {
  return PostingsView(&postings);
}

}  // namespace

PostingsView IndexView::ElementsNamed(uint32_t name_id) const {
  return hot_ != nullptr ? Flat(hot_->ElementsNamed(name_id))
                         : Dense(dense_->ElementsNamed(name_id));
}

PostingsView IndexView::AttributesNamed(uint32_t name_id) const {
  return hot_ != nullptr ? Flat(hot_->AttributesNamed(name_id))
                         : Dense(dense_->AttributesNamed(name_id));
}

PostingsView IndexView::all_elements() const {
  return hot_ != nullptr ? Flat(hot_->all_elements())
                         : Dense(dense_->all_elements());
}

PostingsView IndexView::all_attributes() const {
  return hot_ != nullptr ? Flat(hot_->all_attributes())
                         : Dense(dense_->all_attributes());
}

}  // namespace xpe::index
