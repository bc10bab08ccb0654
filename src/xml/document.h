#ifndef XPE_XML_DOCUMENT_H_
#define XPE_XML_DOCUMENT_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/xml/node.h"

namespace xpe::index {
class DocumentIndex;
class IndexView;
enum class IndexTier : uint8_t;
}  // namespace xpe::index

namespace xpe::succinct {
class SuccinctDocumentIndex;
}  // namespace xpe::succinct

namespace xpe::analyze {
class StructuralSummary;
}  // namespace xpe::analyze

namespace xpe::xml {

/// Heterogeneous-lookup hash for the string-keyed maps below: lets
/// find(std::string_view) probe without materializing a std::string per
/// lookup (LookupNameId runs on hot evaluation paths).
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// An immutable XML document: the paper's `dom` plus the functions §2.1
/// defines over it (document order, node tests `T`, `strval`, `deref_ids`).
///
/// Nodes are stored in one preorder arena, so NodeId comparison *is*
/// document-order comparison and every subtree is the contiguous id
/// interval [id, subtree_end(id)). Build documents with DocumentBuilder or
/// the parser (see parser.h); once built, a Document is logically const
/// and safe for concurrent read-only use from any number of threads: the
/// lazily built caches are synchronized — the id-axis tables and the
/// search index behind index() by std::once_flag, the per-node number
/// cache by per-entry release/acquire atomics — so concurrent first-use
/// is fine. Moving a Document concurrent with reads is, as usual, not.
class Document {
 public:
  Document();
  ~Document();

  Document(Document&&) noexcept;
  Document& operator=(Document&&) noexcept;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Total number of nodes, attributes included. This is the paper's |dom|.
  NodeId size() const { return static_cast<NodeId>(nodes_.size()); }

  /// The root node (the document node, not the document element). Always 0.
  NodeId root() const { return 0; }

  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  NodeId first_child(NodeId id) const { return nodes_[id].first_child; }
  NodeId last_child(NodeId id) const { return nodes_[id].last_child; }
  NodeId prev_sibling(NodeId id) const { return nodes_[id].prev_sibling; }
  NodeId next_sibling(NodeId id) const { return nodes_[id].next_sibling; }
  NodeId subtree_end(NodeId id) const { return nodes_[id].subtree_end; }

  bool IsElement(NodeId id) const { return kind(id) == NodeKind::kElement; }
  bool IsAttribute(NodeId id) const { return kind(id) == NodeKind::kAttribute; }
  bool IsText(NodeId id) const { return kind(id) == NodeKind::kText; }

  /// True iff `ancestor` is a proper ancestor of `node` (never true for
  /// self). For attribute nodes, the owner element is an ancestor.
  bool IsAncestor(NodeId ancestor, NodeId node) const;

  /// Element tag / attribute name / PI target, empty for other kinds.
  std::string_view name(NodeId id) const;

  /// Text/comment/PI content or attribute value; empty for other kinds.
  std::string_view content(NodeId id) const;

  /// Interned id of `name`, or kNoString if no node in this document uses
  /// it (useful for O(1) node-test comparisons).
  uint32_t LookupNameId(std::string_view name) const;
  uint32_t name_id(NodeId id) const { return nodes_[id].name; }
  /// Number of distinct interned names (the postings-table width of the
  /// search index).
  uint32_t name_count() const { return static_cast<uint32_t>(names_.size()); }

  /// The per-document search index (per-name element and attribute
  /// postings; see src/index/document_index.h). Built lazily on first
  /// use in O(|D|), guarded by a std::once_flag — concurrent callers all
  /// get the same fully built index.
  const index::DocumentIndex& index() const;

  /// The compressed counterpart of index(): the same postings Elias-Fano
  /// encoded (src/succinct/succinct_index.h), about an eighth of the
  /// flat index's bytes on documents of 40k–54k nodes. Same lazy
  /// once_flag build discipline.
  const succinct::SuccinctDocumentIndex& succinct_index() const;

  /// The tier-erased handle the step kernels evaluate against: wraps
  /// index() for kHot, succinct_index() for kDense (building the chosen
  /// one on first use).
  index::IndexView index_view(index::IndexTier tier) const;

  /// The document's structural summary (strong DataGuide over label
  /// paths; src/analyze/summary.h): the static analyzer proves paths
  /// empty against it and the dispatcher prunes them before any engine
  /// runs. Tiny (one node per distinct label path) and built lazily in
  /// O(|D|) under the same once_flag discipline as index();
  /// WarmCaches() includes it.
  const analyze::StructuralSummary& summary() const;

  /// The index tier this document warms and serves by default
  /// (index::IndexTier::kHot unless configured). Set it before
  /// publishing the document to readers — it is plain configuration
  /// state, not synchronized; EvalOptions::index_tier can still override
  /// it per evaluation (the non-configured tier is then built lazily on
  /// first use).
  index::IndexTier index_tier() const { return index_tier_; }
  void set_index_tier(index::IndexTier tier) { index_tier_ = tier; }

  /// Force-builds every lazy cache (the search index of the configured
  /// tier, id-axis tables, the number-cache arrays) so that all
  /// subsequent use is pure reads. Servers call this once per document
  /// before fanning evaluations out to a worker pool: first-touch under
  /// contention is safe without it (see the class comment), but warming
  /// keeps the O(|D|) builds out of query latency. Idempotent,
  /// thread-safe.
  void WarmCaches() const;

  /// Attribute nodes of an element: the id range
  /// [AttrBegin(e), AttrEnd(e)). Empty range for non-elements.
  NodeId AttrBegin(NodeId element) const { return element + 1; }
  NodeId AttrEnd(NodeId element) const {
    return element + 1 + nodes_[element].attr_count;
  }

  /// Value of the named attribute on `element`, if present.
  std::optional<std::string_view> Attribute(NodeId element,
                                            std::string_view name) const;

  /// The paper's strval: for elements/root the concatenation of all
  /// descendant text; for text/comment/PI/attribute nodes their content.
  /// O(subtree size) per call for elements.
  std::string StringValue(NodeId id) const;

  /// to_number(strval(id)), cached per node (many engines probe the same
  /// nodes repeatedly for `nset RelOp num` comparisons).
  double NumberValue(NodeId id) const;

  /// The paper's deref_ids: interprets `keys` as a whitespace-separated
  /// list of ids and returns the matching nodes in document order.
  /// Id attributes are attributes named `id_attribute_name()` (default
  /// "id", as in the paper's Figure 2 document).
  std::vector<NodeId> DerefIds(std::string_view keys) const;

  /// Single-key lookup behind DerefIds.
  std::optional<NodeId> GetElementById(std::string_view key) const;

  /// Name of the attribute treated as the ID attribute (default "id").
  const std::string& id_attribute_name() const { return id_attribute_name_; }

  /// Nodes x with y in deref_ids(strval(x)) — the inverse of the paper's
  /// id-"axis" (§4). Built lazily on first use, O(sum of strval lengths).
  const std::vector<NodeId>& IdAxisInverse(NodeId y) const;
  /// Nodes reachable from x via the id-"axis", i.e. deref_ids(strval(x)).
  const std::vector<NodeId>& IdAxisForward(NodeId x) const;

  /// Debug rendering: one line per node with id, kind, name and links.
  std::string DebugDump() const;

 private:
  friend class DocumentBuilder;

  /// Synchronization state for the lazy caches: once_flags for the
  /// one-shot builds (id axis, search index, number-cache sizing) and
  /// the index storage itself. Heap-allocated because std::once_flag is
  /// immovable while Document is move-only; defined in document.cc.
  struct LazyCaches;

  void BuildIdAxis() const;
  void EnsureNumberCache() const;

  std::vector<NodeRecord> nodes_;
  std::vector<std::string> names_;        // interned names
  std::vector<std::string> contents_;     // text/comment/PI/attr payloads
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      name_ids_;
  std::unordered_map<std::string, NodeId, StringViewHash, std::equal_to<>>
      id_index_;
  std::string id_attribute_name_ = "id";
  // Value-initialized to index::IndexTier::kHot (= 0); the enum is only
  // forward-declared here.
  index::IndexTier index_tier_{};

  // Lazy caches (see class comment re. thread-safety). The id-axis
  // vectors are published through the once_flag in caches_; the number
  // cache is filled lock-free with per-entry release/acquire pairs
  // (NumberValue is deterministic, so racing fillers store the same
  // value).
  mutable std::vector<std::atomic<double>> number_cache_;
  mutable std::vector<std::atomic<uint8_t>> number_cached_;
  mutable std::vector<std::vector<NodeId>> id_axis_forward_;
  mutable std::vector<std::vector<NodeId>> id_axis_inverse_;
  mutable std::unique_ptr<LazyCaches> caches_;
};

/// Incrementally builds a Document in document order. Used by the XML
/// parser, the synthetic-document generators and tests.
///
/// Usage:
///   DocumentBuilder b;
///   b.StartElement("a");
///     b.AddAttribute("id", "10");
///     b.AddText("hello");
///   b.EndElement();
///   XPE_ASSIGN_OR_RETURN(Document doc, std::move(b).Finish());
///
/// Attributes must be added before any child of the open element.
class DocumentBuilder {
 public:
  explicit DocumentBuilder(std::string id_attribute_name = "id");

  /// Opens a child element of the current node.
  void StartElement(std::string_view name);
  /// Closes the innermost open element.
  void EndElement();
  /// Adds an attribute to the element just opened. Must precede children.
  void AddAttribute(std::string_view name, std::string_view value);
  /// Appends a text node. Consecutive AddText calls coalesce into one node.
  void AddText(std::string_view text);
  /// Appends a comment node.
  void AddComment(std::string_view text);
  /// Appends a processing-instruction node.
  void AddProcessingInstruction(std::string_view target,
                                std::string_view content);

  /// Number of nodes created so far (root included).
  NodeId node_count() const { return static_cast<NodeId>(doc_.nodes_.size()); }

  /// Finalizes the document. Fails if elements remain open or the builder
  /// was misused (duplicate id values are not an error; first one wins,
  /// mirroring XML's "behavior is unspecified" with a deterministic pick).
  StatusOr<Document> Finish() &&;

 private:
  uint32_t InternName(std::string_view name);
  uint32_t AddContent(std::string_view content);
  NodeId AppendNode(NodeKind kind, uint32_t name, uint32_t content);

  Document doc_;
  std::vector<NodeId> open_;  // stack of open elements (root at [0])
  bool children_started_ = false;
  Status deferred_error_;
};

}  // namespace xpe::xml

#endif  // XPE_XML_DOCUMENT_H_
