#ifndef XPE_INDEX_DOCUMENT_INDEX_H_
#define XPE_INDEX_DOCUMENT_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/xml/document.h"
#include "src/xml/node.h"

namespace xpe::index {

/// An immutable per-document search index, built in one O(|D|) preorder
/// pass: for every interned name, the document-ordered NodeId list of
/// elements (and, separately, attributes) carrying that name, plus the
/// full element and attribute id lists for `*` node tests. Since NodeIds
/// are preorder ranks, each postings list is sorted, and any subtree
/// restriction is a binary-searchable contiguous range of it. Tree
/// navigation (parent, subtree_end, siblings) stays with the Document's
/// own node records; the index holds postings only.
///
/// DocumentIndex never owns the Document; it holds NodeIds only, so one
/// index serves any number of concurrent read-only evaluations. Obtain the
/// per-document singleton via Document::index() (built lazily, once); the
/// constructor is public for tests and for the dense tier, which packs a
/// transient flat build (succinct_index.h). The index-accelerated step
/// kernels live in step_index.h.
///
/// Concurrency: the structure is immutable after the constructor returns,
/// and the once_flag in Document::index() publishes it, so first-touch
/// under contention is race-free — asserted by batch_test's contention
/// cases under the TSan CI job. Servers that want the O(|D|) build out of
/// query latency entirely call Document::WarmCaches() up front.
class DocumentIndex {
 public:
  explicit DocumentIndex(const xml::Document& doc);

  DocumentIndex(const DocumentIndex&) = delete;
  DocumentIndex& operator=(const DocumentIndex&) = delete;

  /// Document-ordered ids of elements whose tag has interned id
  /// `name_id`; empty for xml::kNoString / out-of-range ids.
  const std::vector<xml::NodeId>& ElementsNamed(uint32_t name_id) const {
    return name_id < element_postings_.size() ? element_postings_[name_id]
                                              : empty_;
  }
  /// Document-ordered ids of attributes named `name_id`.
  const std::vector<xml::NodeId>& AttributesNamed(uint32_t name_id) const {
    return name_id < attribute_postings_.size() ? attribute_postings_[name_id]
                                                : empty_;
  }

  /// All element / attribute ids in document order (the `*` postings).
  const std::vector<xml::NodeId>& all_elements() const { return elements_; }
  const std::vector<xml::NodeId>& all_attributes() const {
    return attributes_;
  }

  /// Heap footprint of the postings, for the space benchmarks and the
  /// serve tier's index_bytes.
  size_t MemoryUsageBytes() const;

 private:
  std::vector<std::vector<xml::NodeId>> element_postings_;
  std::vector<std::vector<xml::NodeId>> attribute_postings_;
  std::vector<xml::NodeId> elements_;
  std::vector<xml::NodeId> attributes_;
  std::vector<xml::NodeId> empty_;
};

}  // namespace xpe::index

#endif  // XPE_INDEX_DOCUMENT_INDEX_H_
