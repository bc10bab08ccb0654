#include "src/succinct/succinct_index.h"

#include "src/index/document_index.h"

namespace xpe::succinct {

using xml::NodeId;

SuccinctDocumentIndex::SuccinctDocumentIndex(const xml::Document& doc) {
  const index::DocumentIndex flat(doc);
  const NodeId n = doc.size();
  const uint32_t names = doc.name_count();
  element_postings_.reserve(names);
  attribute_postings_.reserve(names);
  for (uint32_t name = 0; name < names; ++name) {
    element_postings_.emplace_back(flat.ElementsNamed(name), n);
    attribute_postings_.emplace_back(flat.AttributesNamed(name), n);
  }
  elements_ = EliasFanoList(flat.all_elements(), n);
  attributes_ = EliasFanoList(flat.all_attributes(), n);
}

size_t SuccinctDocumentIndex::MemoryUsageBytes() const {
  size_t bytes = elements_.MemoryUsageBytes() + attributes_.MemoryUsageBytes();
  for (const EliasFanoList& postings : element_postings_) {
    bytes += sizeof(postings) + postings.MemoryUsageBytes();
  }
  for (const EliasFanoList& postings : attribute_postings_) {
    bytes += sizeof(postings) + postings.MemoryUsageBytes();
  }
  return bytes;
}

}  // namespace xpe::succinct
