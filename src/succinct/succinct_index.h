#ifndef XPE_SUCCINCT_SUCCINCT_INDEX_H_
#define XPE_SUCCINCT_SUCCINCT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/succinct/ef_postings.h"
#include "src/xml/document.h"

namespace xpe::succinct {

/// The dense index tier: the postings index::DocumentIndex holds, in a
/// fraction of the space. Per-name element/attribute postings and the
/// all-elements/all-attributes lists are Elias-Fano encoded; like the
/// flat tier it stores no tree (the kernels navigate the Document's own
/// node records).
///
/// The constructor packs a transient flat index::DocumentIndex, freed
/// before it returns. Immutable afterward; safe for concurrent reads,
/// published by Document through a once_flag exactly like the flat
/// index.
class SuccinctDocumentIndex {
 public:
  explicit SuccinctDocumentIndex(const xml::Document& doc);

  /// Elements with name `name_id`, ascending (= document order).
  /// Out-of-range ids (including xml::kNoString) yield the empty list.
  const EliasFanoList& ElementsNamed(uint32_t name_id) const {
    return name_id < element_postings_.size() ? element_postings_[name_id]
                                              : empty_;
  }
  const EliasFanoList& AttributesNamed(uint32_t name_id) const {
    return name_id < attribute_postings_.size()
               ? attribute_postings_[name_id]
               : empty_;
  }

  const EliasFanoList& all_elements() const { return elements_; }
  const EliasFanoList& all_attributes() const { return attributes_; }

  size_t MemoryUsageBytes() const;

 private:
  std::vector<EliasFanoList> element_postings_;
  std::vector<EliasFanoList> attribute_postings_;
  EliasFanoList elements_;
  EliasFanoList attributes_;
  EliasFanoList empty_;
};

}  // namespace xpe::succinct

#endif  // XPE_SUCCINCT_SUCCINCT_INDEX_H_
