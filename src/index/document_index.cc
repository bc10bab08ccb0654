#include "src/index/document_index.h"

namespace xpe::index {

using xml::kNoString;
using xml::NodeId;
using xml::NodeKind;

DocumentIndex::DocumentIndex(const xml::Document& doc) {
  const NodeId n = doc.size();
  const uint32_t names = doc.name_count();
  element_postings_.resize(names);
  attribute_postings_.resize(names);

  for (NodeId id = 0; id < n; ++id) {
    const uint32_t name = doc.name_id(id);
    switch (doc.kind(id)) {
      case NodeKind::kElement:
        elements_.push_back(id);
        if (name != kNoString) element_postings_[name].push_back(id);
        break;
      case NodeKind::kAttribute:
        attributes_.push_back(id);
        if (name != kNoString) attribute_postings_[name].push_back(id);
        break;
      default:
        break;
    }
  }
}

size_t DocumentIndex::MemoryUsageBytes() const {
  size_t bytes =
      (elements_.capacity() + attributes_.capacity()) * sizeof(NodeId);
  for (const auto& postings : element_postings_) {
    bytes += sizeof(postings) + postings.capacity() * sizeof(NodeId);
  }
  for (const auto& postings : attribute_postings_) {
    bytes += sizeof(postings) + postings.capacity() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace xpe::index
