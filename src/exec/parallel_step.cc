#include "src/exec/parallel_step.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/core/step_common.h"
#include "src/exec/executor.h"
#include "src/index/step_index.h"

namespace xpe::exec {

using xml::Document;
using xml::NodeId;
using xpath::NodeTest;

ParallelPolicy MakePolicy(const ParallelOptions& options, ResultMode mode) {
  ParallelPolicy policy;
  if (!options.enabled || Executor::InParallelRegion()) return policy;
  policy.max_workers = options.max_workers != 0
                           ? options.max_workers
                           : std::thread::hardware_concurrency();
  if (policy.max_workers < 1) policy.max_workers = 1;
  policy.min_work = options.min_frontier < 1 ? 1 : options.min_frontier;
  // Only kExists may cancel: any `limit` nodes decide it. kFirst/kLimit
  // need the document-order-first nodes, which requires every chunk.
  policy.cancel_on_limit = mode == ResultMode::kExists;
  return policy;
}

uint32_t PlanChunks(uint64_t work, const ParallelPolicy& policy,
                    uint64_t* chunk_size) {
  if (!policy.active() || work < policy.min_work) return 0;
  // A few chunks per worker so stealing can balance skewed chunks, but
  // never chunks so small the fan-out overhead dominates (min_work/4),
  // and never more than ~4 chunks per worker even for huge work.
  uint64_t chunk = work / (uint64_t{policy.max_workers} * 4);
  const uint64_t floor = policy.min_work / 4;
  if (chunk < floor) chunk = floor;
  if (chunk < 1) chunk = 1;
  uint64_t n = (work + chunk - 1) / chunk;
  if (n > 1024) {  // backstop for absurd max_workers values
    chunk = (work + 1023) / 1024;
    n = (work + chunk - 1) / chunk;
  }
  if (n < 2) return 0;
  *chunk_size = chunk;
  return static_cast<uint32_t>(n);
}

void KWayMergeUnique(std::span<const std::vector<NodeId>> runs,
                     std::vector<NodeId>* out, uint64_t limit) {
  out->clear();
  if (limit == 0) return;
  std::vector<size_t> pos(runs.size(), 0);
  for (;;) {
    bool any = false;
    NodeId best = 0;
    for (size_t k = 0; k < runs.size(); ++k) {
      if (pos[k] >= runs[k].size()) continue;
      const NodeId head = runs[k][pos[k]];
      if (!any || head < best) {
        best = head;
        any = true;
      }
    }
    if (!any) return;
    out->push_back(best);
    // Advance every run whose head equals `best` — this is the dedup
    // (parent-axis chunks can produce the same node).
    for (size_t k = 0; k < runs.size(); ++k) {
      if (pos[k] < runs[k].size() && runs[k][pos[k]] == best) ++pos[k];
    }
    if (out->size() >= limit) return;
  }
}

namespace {

/// A disjoint ascending run of work units mapped onto ids: either a
/// postings-index range (indexed descendant) or a node-id range (scan
/// descendant). `cum` is the cumulative unit count through this range,
/// so the range holding global work position p is the first one with
/// cum > p (upper_bound).
struct WorkRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t cum = 0;
};

/// The frontier's disjoint maximal subtree intervals — the exact skip
/// logic of index::DescendantStep and of the sequential IntervalSweep's
/// merged marking, so chunk domains match the sequential kernels'
/// coverage node for node. Interval extents are [origin(+1),
/// subtree_end(origin)) with `map(begin, end)` turning an id interval
/// into work units (identity for scans, a postings subrange for the
/// indexed path).
template <typename MapFn>
uint64_t CoveredRanges(const Document& doc, bool or_self,
                       std::span<const NodeId> x, MapFn map,
                       std::vector<WorkRange>* ranges) {
  uint64_t total = 0;
  NodeId covered_end = 0;
  for (NodeId origin : x) {
    if (origin < covered_end) continue;  // inside the previous interval
    covered_end = doc.subtree_end(origin);
    const NodeId begin = or_self ? origin : origin + 1;
    if (begin >= covered_end) continue;
    WorkRange r = map(begin, covered_end);
    if (r.begin >= r.end) continue;
    total += r.end - r.begin;
    r.cum = total;
    ranges->push_back(r);
  }
  return total;
}

/// The subrange [*lo, *hi) of `ranges[range_idx]` covering global work
/// positions [p, p_end), clamped to the range's extent.
size_t FindRange(const std::vector<WorkRange>& ranges, uint64_t p) {
  size_t lo = 0, hi = ranges.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (ranges[mid].cum > p) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

uint32_t ParallelIndexedStep(const ParallelPolicy& policy, const Document& doc,
                             const index::PostingsView& postings, Axis axis,
                             const NodeTest& test, std::span<const NodeId> x,
                             std::vector<NodeId>* out, uint64_t limit) {
  if (!policy.active() || x.empty() || postings.empty() || limit == 0) {
    return 0;  // the sequential kernel's trivial-input fast paths
  }

  if (axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf) {
    // The sequential kernel's output is postings restricted to the
    // frontier's disjoint maximal subtree intervals — already sorted
    // and duplicate-free, so the parallel form is a partitioned copy
    // into prefix-summed final positions. No per-chunk tables, no
    // merge, and the limit is a cap on the copied prefix.
    std::vector<WorkRange> ranges;
    const uint64_t total = CoveredRanges(
        doc, axis == Axis::kDescendantOrSelf, x,
        [&](NodeId begin, NodeId end) {
          WorkRange r;
          r.begin = postings.LowerBound(begin);
          r.end = postings.LowerBound(end);
          return r;
        },
        &ranges);
    const uint64_t produced = std::min(total, limit);
    uint64_t chunk = 0;
    const uint32_t n_chunks = PlanChunks(produced, policy, &chunk);
    if (n_chunks == 0) return 0;
    out->resize(produced);
    Executor::Shared().Run(
        n_chunks, policy.max_workers, [&](uint32_t t, uint32_t) {
          uint64_t p = uint64_t{t} * chunk;
          const uint64_t p_end = std::min(p + chunk, produced);
          size_t r = FindRange(ranges, p);
          while (p < p_end) {
            const uint64_t before = r == 0 ? 0 : ranges[r - 1].cum;
            const uint64_t take =
                std::min(ranges[r].cum - p, p_end - p);
            const size_t k0 =
                static_cast<size_t>(ranges[r].begin + p - before);
            postings.Decode(k0, k0 + static_cast<size_t>(take),
                            out->data() + p);
            p += take;
            ++r;
          }
        });
    return std::min<uint32_t>(policy.max_workers, n_chunks);
  }

  if (axis != Axis::kSelf && axis != Axis::kChild && axis != Axis::kParent &&
      axis != Axis::kAttribute) {
    // ancestor(-or-self) rescans all postings per chunk (anti-parallel);
    // following/preceding chunk outputs overlap almost entirely.
    return 0;
  }

  // Frontier partitioning: each chunk of origins runs the sequential
  // kernel into its own run; runs interleave (child/attribute) or can
  // repeat nodes (parent), so they k-way merge with dedup. Each chunk
  // obeys `limit` individually — the true document-order prefix of the
  // union is contained in the per-chunk prefixes.
  uint64_t chunk = 0;
  const uint32_t n_chunks = PlanChunks(x.size(), policy, &chunk);
  if (n_chunks == 0) return 0;
  std::vector<std::vector<NodeId>> runs(n_chunks);
  std::atomic<bool> cancel{false};
  const bool cancelable = policy.cancel_on_limit && limit != kNoNodeLimit;
  Executor::Shared().Run(
      n_chunks, policy.max_workers, [&](uint32_t t, uint32_t) {
        if (cancelable && cancel.load(std::memory_order_acquire)) return;
        const size_t lo = static_cast<size_t>(uint64_t{t} * chunk);
        const size_t len = std::min<size_t>(x.size() - lo, chunk);
        index::IndexedStepOverPostingsInto(doc, postings, axis, test,
                                           x.subspan(lo, len), &runs[t],
                                           limit);
        if (cancelable && runs[t].size() >= limit) {
          cancel.store(true, std::memory_order_release);
        }
      });
  KWayMergeUnique(runs, out, limit);
  return std::min<uint32_t>(policy.max_workers, n_chunks);
}

uint32_t ParallelDescendantScan(const ParallelPolicy& policy,
                                const Document& doc, Axis axis,
                                const NodeTest& test,
                                std::span<const NodeId> x,
                                std::vector<NodeId>* out, uint64_t limit,
                                uint64_t* image_size) {
  if (axis != Axis::kDescendant && axis != Axis::kDescendantOrSelf) return 0;
  if (!policy.active() || x.empty()) return 0;
  const bool or_self = axis == Axis::kDescendantOrSelf;

  // The axis image is the union of the frontier's subtree intervals
  // minus attribute nodes — except that descendant-or-self keeps
  // attribute *origins* (EvalAxis computes sweep(attrs=false) ∪ x).
  std::vector<WorkRange> ranges;
  const uint64_t total = CoveredRanges(doc, or_self, x,
                                       [](NodeId begin, NodeId end) {
                                         WorkRange r;
                                         r.begin = begin;
                                         r.end = end;
                                         return r;
                                       },
                                       &ranges);
  uint64_t chunk = 0;
  const uint32_t n_chunks = PlanChunks(total, policy, &chunk);
  if (n_chunks == 0) return 0;

  // Chunks scan disjoint ascending id subranges of the union: matches
  // concatenate in document order, and per-chunk attribute exclusion
  // counts reconstruct the image size the sequential path would have
  // materialized. No cancellation here — the sequential scan also
  // visits the whole image under a limit (it truncates afterwards), and
  // the driver's nodes_visited must come out identical.
  std::vector<std::vector<NodeId>> runs(n_chunks);
  std::vector<uint64_t> excluded(n_chunks, 0);
  Executor::Shared().Run(
      n_chunks, policy.max_workers, [&](uint32_t t, uint32_t) {
        uint64_t p = uint64_t{t} * chunk;
        const uint64_t p_end = std::min(p + chunk, total);
        std::vector<NodeId>& run = runs[t];
        size_t r = FindRange(ranges, p);
        while (p < p_end) {
          const uint64_t before = r == 0 ? 0 : ranges[r - 1].cum;
          const NodeId id_lo =
              static_cast<NodeId>(ranges[r].begin + (p - before));
          const uint64_t take = std::min(ranges[r].cum - p, p_end - p);
          for (NodeId id = id_lo; id < id_lo + take; ++id) {
            if (doc.IsAttribute(id) &&
                !(or_self && std::binary_search(x.begin(), x.end(), id))) {
              ++excluded[t];  // not in the axis image
              continue;
            }
            if (MatchesNodeTest(doc, axis, test, id)) run.push_back(id);
          }
          p += take;
          ++r;
        }
      });
  uint64_t image = total;
  out->clear();
  size_t matched = 0;
  for (uint32_t t = 0; t < n_chunks; ++t) {
    image -= excluded[t];
    matched += runs[t].size();
  }
  out->reserve(std::min<uint64_t>(matched, limit));
  for (const std::vector<NodeId>& run : runs) {
    if (out->size() >= limit) break;
    const size_t take =
        std::min<uint64_t>(run.size(), limit - out->size());
    out->insert(out->end(), run.begin(), run.begin() + take);
  }
  *image_size = image;
  return std::min<uint32_t>(policy.max_workers, n_chunks);
}

uint32_t ParallelRestrict(const ParallelPolicy& policy, const Document& doc,
                          const index::IndexView* index, Axis axis,
                          const NodeTest& test, std::span<const NodeId> nodes,
                          std::vector<NodeId>* out) {
  if (!policy.active()) return 0;
  if (index != nullptr && nodes.size() == doc.size()) {
    // The sequential kernel answers the universe shape with one copy of
    // the postings; chunked intersections would only be slower.
    return 0;
  }
  uint64_t chunk = 0;
  const uint32_t n_chunks = PlanChunks(nodes.size(), policy, &chunk);
  if (n_chunks == 0) return 0;
  std::vector<std::vector<NodeId>> runs(n_chunks);
  Executor::Shared().Run(
      n_chunks, policy.max_workers, [&](uint32_t t, uint32_t) {
        const size_t lo = static_cast<size_t>(uint64_t{t} * chunk);
        const size_t len = std::min<size_t>(nodes.size() - lo, chunk);
        if (index != nullptr) {
          index::IndexedApplyNodeTestInto(doc, *index, axis, test,
                                          nodes.subspan(lo, len), &runs[t]);
        } else {
          ApplyNodeTestInto(doc, axis, test, nodes.subspan(lo, len),
                            &runs[t]);
        }
      });
  // Chunk inputs are disjoint ascending slices of a sorted set, so the
  // outputs concatenate — already sorted, already duplicate-free.
  out->clear();
  size_t total = 0;
  for (const std::vector<NodeId>& run : runs) total += run.size();
  out->reserve(total);
  for (const std::vector<NodeId>& run : runs) {
    out->insert(out->end(), run.begin(), run.end());
  }
  return std::min<uint32_t>(policy.max_workers, n_chunks);
}

}  // namespace xpe::exec
