#include "src/xml/document.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "src/analyze/summary.h"
#include "src/common/numeric.h"
#include "src/common/str_util.h"
#include "src/index/document_index.h"
#include "src/index/index_tier.h"
#include "src/succinct/succinct_index.h"

namespace xpe::xml {

/// See the declaration in document.h: the immovable synchronization
/// primitives of the lazy caches, boxed so Document stays move-only.
struct Document::LazyCaches {
  std::once_flag id_axis_once;
  std::once_flag index_once;
  std::once_flag succinct_once;
  std::once_flag summary_once;
  std::once_flag number_once;
  std::unique_ptr<index::DocumentIndex> document_index;
  std::unique_ptr<succinct::SuccinctDocumentIndex> succinct_index;
  std::unique_ptr<analyze::StructuralSummary> summary;
};

Document::Document() : caches_(std::make_unique<LazyCaches>()) {}
Document::~Document() = default;
Document::Document(Document&&) noexcept = default;
Document& Document::operator=(Document&&) noexcept = default;

const char* NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kRoot:
      return "root";
    case NodeKind::kElement:
      return "element";
    case NodeKind::kAttribute:
      return "attribute";
    case NodeKind::kText:
      return "text";
    case NodeKind::kComment:
      return "comment";
    case NodeKind::kProcessingInstruction:
      return "processing-instruction";
  }
  return "unknown";
}

bool Document::IsAncestor(NodeId ancestor, NodeId node) const {
  if (ancestor == node) return false;
  if (IsAttribute(node)) {
    // An attribute's ancestors are its element and that element's ancestors.
    NodeId owner = parent(node);
    return ancestor == owner || IsAncestor(ancestor, owner);
  }
  // Attribute nodes own no subtree beyond themselves.
  if (IsAttribute(ancestor)) return false;
  return ancestor < node && node < subtree_end(ancestor);
}

std::string_view Document::name(NodeId id) const {
  uint32_t n = nodes_[id].name;
  if (n == kNoString) return {};
  return names_[n];
}

std::string_view Document::content(NodeId id) const {
  uint32_t c = nodes_[id].content;
  if (c == kNoString) return {};
  return contents_[c];
}

uint32_t Document::LookupNameId(std::string_view name) const {
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? kNoString : it->second;
}

std::optional<std::string_view> Document::Attribute(
    NodeId element, std::string_view name) const {
  if (!IsElement(element)) return std::nullopt;
  for (NodeId a = AttrBegin(element); a < AttrEnd(element); ++a) {
    if (this->name(a) == name) return content(a);
  }
  return std::nullopt;
}

std::string Document::StringValue(NodeId id) const {
  switch (kind(id)) {
    case NodeKind::kText:
    case NodeKind::kComment:
    case NodeKind::kProcessingInstruction:
    case NodeKind::kAttribute:
      return std::string(content(id));
    case NodeKind::kRoot:
    case NodeKind::kElement: {
      std::string out;
      for (NodeId n = id; n < subtree_end(id); ++n) {
        if (kind(n) == NodeKind::kText) out += content(n);
      }
      return out;
    }
  }
  return {};
}

void Document::EnsureNumberCache() const {
  std::call_once(caches_->number_once, [this] {
    number_cache_ = std::vector<std::atomic<double>>(nodes_.size());
    number_cached_ = std::vector<std::atomic<uint8_t>>(nodes_.size());
  });
}

double Document::NumberValue(NodeId id) const {
  // Lock-free per-entry memoization: the once_flag sizes the arrays, the
  // release store of the flag publishes the value. Concurrent fillers
  // recompute the same deterministic double, which is harmless.
  EnsureNumberCache();
  if (number_cached_[id].load(std::memory_order_acquire)) {
    return number_cache_[id].load(std::memory_order_relaxed);
  }
  const double value = XPathStringToNumber(StringValue(id));
  number_cache_[id].store(value, std::memory_order_relaxed);
  number_cached_[id].store(1, std::memory_order_release);
  return value;
}

std::vector<NodeId> Document::DerefIds(std::string_view keys) const {
  std::vector<NodeId> out;
  for (std::string_view key : SplitOnWhitespace(keys)) {
    if (auto node = GetElementById(key)) out.push_back(*node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<NodeId> Document::GetElementById(std::string_view key) const {
  auto it = id_index_.find(key);
  if (it == id_index_.end()) return std::nullopt;
  return it->second;
}

void Document::BuildIdAxis() const {
  id_axis_forward_.assign(nodes_.size(), {});
  id_axis_inverse_.assign(nodes_.size(), {});
  for (NodeId x = 0; x < nodes_.size(); ++x) {
    std::vector<NodeId> targets = DerefIds(StringValue(x));
    for (NodeId y : targets) id_axis_inverse_[y].push_back(x);
    id_axis_forward_[x] = std::move(targets);
  }
}

const std::vector<NodeId>& Document::IdAxisInverse(NodeId y) const {
  std::call_once(caches_->id_axis_once, [this] { BuildIdAxis(); });
  return id_axis_inverse_[y];
}

const std::vector<NodeId>& Document::IdAxisForward(NodeId x) const {
  std::call_once(caches_->id_axis_once, [this] { BuildIdAxis(); });
  return id_axis_forward_[x];
}

const index::DocumentIndex& Document::index() const {
  std::call_once(caches_->index_once, [this] {
    caches_->document_index = std::make_unique<index::DocumentIndex>(*this);
  });
  return *caches_->document_index;
}

const succinct::SuccinctDocumentIndex& Document::succinct_index() const {
  std::call_once(caches_->succinct_once, [this] {
    caches_->succinct_index =
        std::make_unique<succinct::SuccinctDocumentIndex>(*this);
  });
  return *caches_->succinct_index;
}

index::IndexView Document::index_view(index::IndexTier tier) const {
  return tier == index::IndexTier::kDense ? index::IndexView(&succinct_index())
                                          : index::IndexView(&index());
}

const analyze::StructuralSummary& Document::summary() const {
  std::call_once(caches_->summary_once, [this] {
    caches_->summary =
        std::make_unique<analyze::StructuralSummary>(analyze::Summarize(*this));
  });
  return *caches_->summary;
}

void Document::WarmCaches() const {
  // First-touch under contention is already safe (once_flags / per-entry
  // atomics), but a server that warms before fan-out gets a fully
  // read-only document: no worker ever pays a lazy O(|D|) build mid-query
  // or serializes behind another's call_once.
  //
  // Only the configured tier is warmed: a dense document must not pull
  // the flat index (~8x the dense tier's bytes on a 53,875-node
  // document) into memory just by being warmed — that would defeat the
  // tier's point. A per-evaluation tier override still works (the other
  // tier builds lazily, under its own once_flag).
  if (index_tier_ == index::IndexTier::kDense) {
    succinct_index();
  } else {
    index();
  }
  if (size() > 0) IdAxisForward(0);  // one call builds both directions
  EnsureNumberCache();
  summary();  // the analyzer's DataGuide — tiny, and read on every query
}

std::string Document::DebugDump() const {
  std::ostringstream os;
  for (NodeId id = 0; id < size(); ++id) {
    os << id << ": " << NodeKindToString(kind(id));
    if (!name(id).empty()) os << " name=" << name(id);
    if (!content(id).empty()) os << " content=\"" << content(id) << "\"";
    os << " parent=" << static_cast<int64_t>(parent(id) == kInvalidNodeId
                                                 ? -1
                                                 : static_cast<int64_t>(parent(id)))
       << " end=" << subtree_end(id) << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// DocumentBuilder

DocumentBuilder::DocumentBuilder(std::string id_attribute_name) {
  doc_.id_attribute_name_ = std::move(id_attribute_name);
  // The document root.
  AppendNode(NodeKind::kRoot, kNoString, kNoString);
  open_.push_back(0);
  children_started_ = true;  // the root never carries attributes
}

uint32_t DocumentBuilder::InternName(std::string_view name) {
  auto [it, inserted] = doc_.name_ids_.emplace(
      std::string(name), static_cast<uint32_t>(doc_.names_.size()));
  if (inserted) doc_.names_.emplace_back(name);
  return it->second;
}

uint32_t DocumentBuilder::AddContent(std::string_view content) {
  doc_.contents_.emplace_back(content);
  return static_cast<uint32_t>(doc_.contents_.size() - 1);
}

NodeId DocumentBuilder::AppendNode(NodeKind kind, uint32_t name,
                                   uint32_t content) {
  NodeId id = static_cast<NodeId>(doc_.nodes_.size());
  NodeRecord rec;
  rec.kind = kind;
  rec.name = name;
  rec.content = content;
  rec.subtree_end = id + 1;
  if (!open_.empty()) {
    NodeId p = open_.back();
    rec.parent = p;
    if (kind != NodeKind::kAttribute) {
      NodeRecord& pr = doc_.nodes_[p];
      if (pr.first_child == kInvalidNodeId) {
        pr.first_child = id;
      } else {
        doc_.nodes_[pr.last_child].next_sibling = id;
        rec.prev_sibling = pr.last_child;
      }
      pr.last_child = id;
    }
  }
  doc_.nodes_.push_back(rec);
  return id;
}

void DocumentBuilder::StartElement(std::string_view name) {
  NodeId id = AppendNode(NodeKind::kElement, InternName(name), kNoString);
  open_.push_back(id);
  children_started_ = false;
}

void DocumentBuilder::EndElement() {
  if (open_.size() <= 1) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::Internal("EndElement without open element");
    }
    return;
  }
  NodeId id = open_.back();
  open_.pop_back();
  doc_.nodes_[id].subtree_end = static_cast<NodeId>(doc_.nodes_.size());
  children_started_ = true;
}

void DocumentBuilder::AddAttribute(std::string_view name,
                                   std::string_view value) {
  if (open_.size() <= 1 || children_started_) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::Internal(
          "AddAttribute must directly follow StartElement");
    }
    return;
  }
  NodeId elem = open_.back();
  AppendNode(NodeKind::kAttribute, InternName(name), AddContent(value));
  ++doc_.nodes_[elem].attr_count;
  if (name == doc_.id_attribute_name_) {
    doc_.id_index_.emplace(std::string(value), elem);  // first wins
  }
}

void DocumentBuilder::AddText(std::string_view text) {
  NodeId p = open_.back();
  NodeId last = doc_.nodes_[p].last_child;
  if (last != kInvalidNodeId && doc_.nodes_[last].kind == NodeKind::kText) {
    doc_.contents_[doc_.nodes_[last].content].append(text);
    return;
  }
  AppendNode(NodeKind::kText, kNoString, AddContent(text));
  children_started_ = true;
}

void DocumentBuilder::AddComment(std::string_view text) {
  AppendNode(NodeKind::kComment, kNoString, AddContent(text));
  children_started_ = true;
}

void DocumentBuilder::AddProcessingInstruction(std::string_view target,
                                               std::string_view content) {
  AppendNode(NodeKind::kProcessingInstruction, InternName(target),
             AddContent(content));
  children_started_ = true;
}

StatusOr<Document> DocumentBuilder::Finish() && {
  XPE_RETURN_IF_ERROR(deferred_error_);
  if (open_.size() != 1) {
    return Status::Internal("Finish with unclosed elements");
  }
  doc_.nodes_[0].subtree_end = static_cast<NodeId>(doc_.nodes_.size());
  return std::move(doc_);
}

}  // namespace xpe::xml
