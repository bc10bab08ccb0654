#include "src/core/step_common.h"

#include <algorithm>

#include "src/index/step_index.h"

namespace xpe {

using xml::Document;
using xml::NodeId;
using xml::NodeKind;
using xpath::NodeTest;

bool MatchesNodeTest(const Document& doc, Axis axis, const NodeTest& test,
                     NodeId node) {
  const NodeKind kind = doc.kind(node);
  const NodeKind principal =
      axis == Axis::kAttribute ? NodeKind::kAttribute : NodeKind::kElement;
  switch (test.kind) {
    case NodeTest::Kind::kAny:
      return kind == principal;
    case NodeTest::Kind::kName:
      return kind == principal && doc.name(node) == test.name;
    case NodeTest::Kind::kText:
      return kind == NodeKind::kText;
    case NodeTest::Kind::kComment:
      return kind == NodeKind::kComment;
    case NodeTest::Kind::kPi:
      return kind == NodeKind::kProcessingInstruction &&
             (test.name.empty() || doc.name(node) == test.name);
    case NodeTest::Kind::kNode:
      return true;
  }
  return false;
}

NodeSet ApplyNodeTest(const Document& doc, Axis axis, const NodeTest& test,
                      const NodeSet& nodes) {
  // node() keeps everything; avoid the copy loop.
  if (test.kind == NodeTest::Kind::kNode) return nodes;
  NodeSet out;
  for (NodeId n : nodes) {
    if (MatchesNodeTest(doc, axis, test, n)) out.PushBackOrdered(n);
  }
  return out;
}

void ApplyNodeTestInto(const Document& doc, Axis axis, const NodeTest& test,
                       std::span<const NodeId> nodes,
                       std::vector<NodeId>* out) {
  out->clear();
  for (NodeId n : nodes) {
    if (MatchesNodeTest(doc, axis, test, n)) out->push_back(n);
  }
}

std::vector<NodeId> OrderForAxis(Axis axis, const NodeSet& set) {
  std::vector<NodeId> out(set.ids());
  if (AxisIsReverse(axis)) std::reverse(out.begin(), out.end());
  return out;
}

void OrderForAxisInto(Axis axis, std::span<const NodeId> set,
                      std::vector<NodeId>* out) {
  out->assign(set.begin(), set.end());
  if (AxisIsReverse(axis)) std::reverse(out->begin(), out->end());
}

NodeSet StepCandidates(const Document& doc, Axis axis, const NodeTest& test,
                       NodeId origin) {
  return ApplyNodeTest(doc, axis, test,
                       EvalAxis(doc, axis, NodeSet::Single(origin)));
}

StepContext::StepContext(const Document& doc, const EvalOptions& options)
    : doc(doc),
      use_index(options.use_index),
      tier(options.index_tier.value_or(doc.index_tier())),
      parallel(exec::MakePolicy(options.parallel, options.result.mode)),
      node_limit(options.result.node_limit()),
      profile(options.profile),
      stats_(options.stats != nullptr ? options.stats : &own_stats_),
      budget_(options.budget) {}

Status StepContext::Charge(uint64_t n) {
  if (budget_ > 0 && used_ + n > budget_) n = budget_ + 1 - used_;
  used_ += n;
  stats_->contexts_evaluated += n;
  if (budget_ > 0 && used_ > budget_) {
    return Status::ResourceExhausted("evaluation budget exceeded");
  }
  return Status::OK();
}

void StepContext::RecordStep(xpath::AstId step_id, uint64_t t0,
                             uint64_t frontier, uint64_t produced,
                             uint64_t visited, bool indexed,
                             uint32_t workers) const {
  stats_->nodes_visited += visited;
  if (indexed) ++stats_->indexed_steps;
  if (profile != nullptr) {
    profile->RecordStep(step_id, obs::MonotonicNanos() - t0, frontier,
                        produced, visited, indexed, std::max(workers, 1u));
  }
}

StepKernel::StepKernel(const StepContext& sc, const xpath::AstNode& step,
                       xpath::AstId step_id)
    : sc_(sc), step_(step), step_id_(step_id) {
  if (sc.use_index && step.index_eligible) {
    postings_ = index::StepPostings(sc.doc, sc.doc.index_view(sc.tier),
                                    step.axis, step.test);
    has_postings_ = true;
  }
}

void RestrictByNodeTestInto(const StepContext& sc, const xpath::AstNode& step,
                            xpath::AstId step_id, std::span<const NodeId> nodes,
                            std::vector<NodeId>* out) {
  const uint64_t t0 = sc.StepStart();
  const Document& doc = sc.doc;
  const bool indexed = sc.use_index && index::NodeTestIndexable(step.test);
  uint32_t workers = 0;
  if (indexed) {
    const index::IndexView view = doc.index_view(sc.tier);
    if (sc.parallel.active()) {
      workers = exec::ParallelRestrict(sc.parallel, doc, &view, step.axis,
                                       step.test, nodes, out);
    }
    if (workers == 0) {
      index::IndexedApplyNodeTestInto(doc, view, step.axis, step.test, nodes,
                                      out);
    }
  } else if (step.test.kind == NodeTest::Kind::kNode) {
    out->assign(nodes.begin(), nodes.end());
  } else {
    if (sc.parallel.active()) {
      workers = exec::ParallelRestrict(sc.parallel, doc, /*index=*/nullptr,
                                       step.axis, step.test, nodes, out);
    }
    if (workers == 0) ApplyNodeTestInto(doc, step.axis, step.test, nodes, out);
  }
  // Input+output in every branch (and in StepKernel), so index-on/off
  // and parallel-on/off comparisons of nodes_visited measure one
  // quantity.
  sc.RecordStep(step_id, t0, nodes.size(), out->size(),
                nodes.size() + out->size(), indexed, workers);
}

void StepKernel::EvalInto(std::span<const NodeId> x, std::vector<NodeId>* out,
                          uint64_t limit) const {
  const uint64_t t0 = sc_.StepStart();
  const Document& doc = sc_.doc;
  const bool indexed =
      has_postings_ &&
      index::IndexedStepWorthwhile(doc, postings_, step_.axis, x);
  uint32_t workers = 0;
  // The nodes examined past the frontier: the output on the indexed
  // path, the full pre-node-test axis image on the scan path (the
  // parallel scan reconstructs the count the sequential path
  // materializes, so nodes_visited is parallel-invariant).
  uint64_t examined = 0;
  if (indexed) {
    if (sc_.parallel.active()) {
      workers = exec::ParallelIndexedStep(sc_.parallel, doc, postings_,
                                          step_.axis, step_.test, x, out,
                                          limit);
    }
    if (workers == 0) {
      index::IndexedStepOverPostingsInto(doc, postings_, step_.axis,
                                         step_.test, x, out, limit);
    }
    examined = out->size();
  } else {
    ++sc_.stats().axis_evals;
    if (sc_.parallel.active()) {
      workers = exec::ParallelDescendantScan(sc_.parallel, doc, step_.axis,
                                             step_.test, x, out, limit,
                                             &examined);
    }
    if (workers == 0) {
      const NodeSet image = EvalAxis(doc, step_.axis, NodeSet::FromSorted(x));
      examined = image.size();
      ApplyNodeTestInto(doc, step_.axis, step_.test, image.ids(), out);
      if (limit != kNoNodeLimit && out->size() > limit) out->resize(limit);
    }
  }
  sc_.RecordStep(step_id_, t0, x.size(), out->size(), x.size() + examined,
                 indexed, workers);
}

}  // namespace xpe
