#include "src/exec/parallel_step.h"

#include <algorithm>
#include <thread>

#include "src/core/step_common.h"
#include "src/exec/executor.h"

namespace xpe::exec {

using xml::Document;
using xml::NodeId;
using xpath::NodeTest;

ParallelPolicy MakePolicy(const ParallelOptions& options) {
  ParallelPolicy policy;
  if (!options.enabled || Executor::InParallelRegion()) return policy;
  policy.max_workers = options.max_workers != 0
                           ? options.max_workers
                           : std::thread::hardware_concurrency();
  if (policy.max_workers < 1) policy.max_workers = 1;
  policy.min_work = options.min_frontier < 1 ? 1 : options.min_frontier;
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

namespace {

/// A disjoint ascending node-id range of the scan domain, starting at
/// `begin`. `cum` is the cumulative length through this range, so the
/// range holding global work position p is the first one with cum > p.
struct WorkRange {
  NodeId begin = 0;
  uint64_t cum = 0;
};

/// The frontier's disjoint maximal subtree intervals [origin(+1),
/// subtree_end(origin)) — the exact skip logic of the sequential
/// IntervalSweep's merged marking, so chunk domains match the
/// sequential kernel's coverage node for node. Returns their summed
/// length.
uint64_t CoveredRanges(const Document& doc, bool or_self,
                       std::span<const NodeId> x,
                       std::vector<WorkRange>* ranges) {
  uint64_t total = 0;
  NodeId covered_end = 0;
  for (NodeId origin : x) {
    if (origin < covered_end) continue;  // inside the previous interval
    covered_end = doc.subtree_end(origin);
    const NodeId begin = or_self ? origin : origin + 1;
    if (begin >= covered_end) continue;
    total += covered_end - begin;
    ranges->push_back({begin, total});
  }
  return total;
}

/// The index of the range holding global work position `p`: the first
/// range whose cumulative length exceeds it.
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

uint32_t ParallelDescendantScan(const ParallelPolicy& policy,
                                const Document& doc, Axis axis,
                                const NodeTest& test,
                                std::span<const NodeId> x,
                                std::vector<NodeId>* out,
                                uint64_t* image_size) {
  if (axis != Axis::kDescendant && axis != Axis::kDescendantOrSelf) return 0;
  if (!policy.active() || x.empty()) return 0;
  const bool or_self = axis == Axis::kDescendantOrSelf;

  // The axis image is the union of the frontier's subtree intervals
  // minus attribute nodes — except that descendant-or-self keeps
  // attribute *origins* (EvalAxis computes sweep(attrs=false) ∪ x).
  std::vector<WorkRange> ranges;
  const uint64_t total = CoveredRanges(doc, or_self, x, &ranges);
  uint64_t chunk = 0;
  const uint32_t n_chunks = PlanChunks(total, policy, &chunk);
  if (n_chunks == 0) return 0;

  // Chunks scan disjoint ascending id subranges of the union: matches
  // concatenate in document order, and per-chunk attribute exclusion
  // counts reconstruct the image size the sequential path would have
  // materialized, so the caller's nodes_visited comes out identical.
  std::vector<std::vector<NodeId>> runs(n_chunks);
  std::vector<uint64_t> excluded(n_chunks, 0);
  Executor::Shared().Run(n_chunks, policy.max_workers, [&](uint32_t t) {
    uint64_t p = uint64_t{t} * chunk;
    const uint64_t p_end = std::min(p + chunk, total);
    std::vector<NodeId>& run = runs[t];
    size_t r = FindRange(ranges, p);
    while (p < p_end) {
      const uint64_t before = r == 0 ? 0 : ranges[r - 1].cum;
      const NodeId id_lo = static_cast<NodeId>(ranges[r].begin + (p - before));
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
  size_t matched = 0;
  for (uint32_t t = 0; t < n_chunks; ++t) {
    image -= excluded[t];
    matched += runs[t].size();
  }
  out->clear();
  out->reserve(matched);
  for (const std::vector<NodeId>& run : runs) {
    out->insert(out->end(), run.begin(), run.end());
  }
  *image_size = image;
  return std::min<uint32_t>(policy.max_workers, n_chunks);
}

}  // namespace xpe::exec
