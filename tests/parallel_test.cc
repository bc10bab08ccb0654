// Intra-query parallelism (src/exec/): the partitioned descendant scan
// must be invisible except in wall-clock — results, EvalStats and
// profiler accounting bit-identical to sequential evaluation.
//
// Three layers of coverage:
//  - executor unit tests: every task runs exactly once, degenerate
//    shapes run inline on the caller, nested Run calls run inline
//    (InParallelRegion), the shared pool is a process-wide singleton;
//  - the parallel differential: one corpus over all six engines × index
//    configs × all five result modes × worker counts 1/2/4/8, holding
//    the Value AND the EvalStats rendering equal to a parallel-off run —
//    parallelism may only ever change wall-clock, never answers or
//    accounting;
//  - composition: Exists still short-circuits with parallel options
//    set, budgets still trip inside a partitioned scan, profiler rows
//    still reconcile and show that only descendant scans partition, and
//    BatchEvaluator workers with parallel items share the one
//    process-wide pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/executor.h"
#include "src/exec/parallel_step.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::MustCompile;

// --- executor ---------------------------------------------------------------

TEST(ExecutorTest, RunsEveryTaskExactlyOnce) {
  exec::Executor executor(/*pool_threads=*/3);
  constexpr uint32_t kTasks = 1000;
  std::vector<std::atomic<uint32_t>> hits(kTasks);
  executor.Run(kTasks, /*max_workers=*/4, [&](uint32_t task) {
    EXPECT_LT(task, kTasks);
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint32_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[t].load(), 1u) << "task " << t;
  }
}

TEST(ExecutorTest, TaskEffectsAreVisibleAfterRun) {
  exec::Executor executor(/*pool_threads=*/2);
  std::vector<uint64_t> cells(256, 0);  // plain writes, disjoint per task
  executor.Run(256, 8, [&](uint32_t task) { cells[task] = task + 1; });
  for (uint32_t t = 0; t < 256; ++t) EXPECT_EQ(cells[t], t + 1u);
}

TEST(ExecutorTest, ZeroAndOneTaskShapesWork) {
  exec::Executor executor(/*pool_threads=*/2);
  executor.Run(0, 4, [&](uint32_t) { FAIL() << "no tasks exist"; });
  uint32_t ran = 0;
  const std::thread::id caller = std::this_thread::get_id();
  executor.Run(1, 4, [&](uint32_t task) {
    EXPECT_EQ(task, 0u);
    // A single task runs inline on the caller.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 1u);
}

TEST(ExecutorTest, EmptyPoolRunsInlineInTaskOrder) {
  exec::Executor executor(/*pool_threads=*/0);
  EXPECT_EQ(executor.pool_threads(), 0u);
  std::vector<uint32_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  executor.Run(8, 4, [&](uint32_t task) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(task);
  });
  ASSERT_EQ(order.size(), 8u);
  for (uint32_t t = 0; t < 8; ++t) EXPECT_EQ(order[t], t);
}

TEST(ExecutorTest, NestedRunRunsInlineOnTheCallingThread) {
  exec::Executor executor(/*pool_threads=*/2);
  EXPECT_FALSE(exec::Executor::InParallelRegion());
  std::atomic<uint32_t> inner_total{0};
  std::atomic<bool> saw_region{false};
  executor.Run(4, 4, [&](uint32_t) {
    if (exec::Executor::InParallelRegion()) saw_region.store(true);
    const std::thread::id outer_thread = std::this_thread::get_id();
    // A Run from inside a task must not recurse into the pool.
    executor.Run(3, 4, [&](uint32_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_TRUE(saw_region.load());
  EXPECT_EQ(inner_total.load(), 12u);
  EXPECT_FALSE(exec::Executor::InParallelRegion());
}

TEST(ExecutorTest, SharedPoolIsAProcessWideSingleton) {
  exec::Executor& a = exec::Executor::Shared();
  exec::Executor& b = exec::Executor::Shared();
  EXPECT_EQ(&a, &b);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(a.pool_threads(), hw > 1 ? hw - 1 : 0);
}

// --- policy / chunk planning ------------------------------------------------

TEST(ParallelPolicyTest, DisabledOrNestedStaysSequential) {
  exec::ParallelOptions off;
  EXPECT_FALSE(exec::MakePolicy(off).active());

  exec::ParallelOptions on;
  on.enabled = true;
  on.max_workers = 4;
  EXPECT_TRUE(exec::MakePolicy(on).active());

  // From inside an executor task the policy must resolve to sequential,
  // whatever the options say — nested parallel regions run inline.
  exec::Executor executor(/*pool_threads=*/1);
  executor.Run(1, 1,
               [&](uint32_t) { EXPECT_FALSE(exec::MakePolicy(on).active()); });
}

TEST(ParallelPolicyTest, PlanChunksHonorsTheCutoff) {
  exec::ParallelPolicy policy;
  policy.max_workers = 4;
  policy.min_work = 1000;
  uint64_t chunk = 0;
  EXPECT_EQ(exec::PlanChunks(999, policy, &chunk), 0u) << "under the cutoff";
  const uint32_t n = exec::PlanChunks(100000, policy, &chunk);
  EXPECT_GE(n, 2u);
  EXPECT_GE(chunk, policy.min_work / 4);
  EXPECT_GE(uint64_t{n} * chunk, 100000u) << "chunks must cover the work";

  exec::ParallelPolicy sequential;  // max_workers = 1
  EXPECT_EQ(exec::PlanChunks(100000, sequential, &chunk), 0u);
}

// --- the parallel differential ----------------------------------------------

/// Queries chosen so the partitioned descendant scan fires in every
/// engine (`//a`, `//a//b`, descendants inside predicates and scalars)
/// beside the steps that always run sequentially: postings walks,
/// child, parent, ancestor and following steps, and Wadler backward
/// restrictions.
const char* kParallelCorpus[] = {
    "//a",
    "//a/b",
    "//a//b",
    "//b/parent::a",
    "//c/ancestor::a",
    "//a/following::b",
    "//a[b]//c",
    "//a[.//c]/b",
    "//b[position() = 2]",
    "count(//a//b)",
    "boolean(//a[c])",
};

/// Attribute-axis spellings need a document that has attributes
/// (MakeRandomDocument generates none); the bibliography corpus does.
/// descendant-or-self from attribute origins keeps the origins, the one
/// attribute node a descendant scan's image holds.
const char* kAttributeCorpus[] = {
    "//book/@year",
    "//book[@year]/title",
    "count(//@id)",
    "//@year/descendant-or-self::node()",
};

struct ParallelDiffCase {
  EngineKind engine;
  /// With the index on, steps the postings answer run sequentially and
  /// the rest may still take the partitioned scan; results and stats
  /// must match a parallel-off run on every tier either way.
  test::IndexConfig index;
};

/// Every engine on every index config, except the naive engine, which
/// ignores the index and runs once.
std::vector<ParallelDiffCase> ParallelDiffCases() {
  std::vector<ParallelDiffCase> cases;
  for (EngineKind engine : AllEngines()) {
    for (const test::IndexConfig& index : test::kIndexConfigs) {
      if (engine != EngineKind::kNaive || !index.use_index) {
        cases.push_back({engine, index});
      }
    }
  }
  return cases;
}

/// The table-filling engines pay |D|²-and-worse per evaluation, so they
/// get a small document; the linear engines get one large enough that
/// the descendant scan genuinely partitions. min_frontier = 1 in the
/// differential makes the small documents chunk too.
int DifferentialDocSize(EngineKind engine) {
  switch (engine) {
    case EngineKind::kOptMinContext:
    case EngineKind::kCoreXPath:
      return 1200;
    default:
      return 90;
  }
}

class ParallelDifferentialTest
    : public testing::TestWithParam<ParallelDiffCase> {};

void ExpectParallelMatchesSequential(const xml::Document& doc,
                                     std::span<const char* const> corpus,
                                     const ParallelDiffCase& c) {
  doc.WarmCaches();
  for (const char* query : corpus) {
    const xpath::CompiledQuery plan = MustCompile(query);
    if (!test::EngineRuns(c.engine, plan)) continue;
    for (const test::ModeConfig& mode : test::kModeConfigs) {
      if (mode.mode != ResultMode::kFull &&
          plan.result_type() != xpath::ValueType::kNodeSet) {
        continue;
      }
      const test::Cell cell = test::MakeCell(query, c.engine, c.index, mode);
      EvalStats want_stats;
      EvalOptions opts = cell.options;
      opts.stats = &want_stats;
      StatusOr<Value> want = Evaluate(plan, doc, {}, opts);
      ASSERT_TRUE(want.ok()) << cell.label << ": " << want.status().ToString();

      for (uint32_t workers : {1u, 2u, 4u, 8u}) {
        const std::string label =
            cell.label + " workers " + std::to_string(workers);
        EvalStats got_stats;
        EvalOptions popts = opts;
        popts.stats = &got_stats;
        popts.parallel.enabled = true;
        popts.parallel.max_workers = workers;
        popts.parallel.min_frontier = 1;  // force the partitioned scan
        StatusOr<Value> got = Evaluate(plan, doc, {}, popts);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        EXPECT_TRUE(got->StructurallyEquals(*want)) << label;
        EXPECT_EQ(got_stats.ToString(), want_stats.ToString()) << label;
      }
    }
  }
}

TEST_P(ParallelDifferentialTest, ResultsAndStatsMatchSequential) {
  const xml::Document doc = xml::MakeRandomDocument(
      DifferentialDocSize(GetParam().engine), {"a", "b", "c", "x"},
      /*seed=*/11);
  ExpectParallelMatchesSequential(doc, kParallelCorpus, GetParam());
}

TEST_P(ParallelDifferentialTest, AttributeStepsMatchSequential) {
  const xml::Document doc = xml::MakeBibliographyDocument(
      DifferentialDocSize(GetParam().engine) / 8);
  ExpectParallelMatchesSequential(doc, kAttributeCorpus, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ParallelDifferentialTest, testing::ValuesIn(ParallelDiffCases()),
    [](const testing::TestParamInfo<ParallelDiffCase>& info) {
      std::string name = EngineKindToString(info.param.engine);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_" + info.param.index.label;
    });

// --- early termination under parallel eval ----------------------------------

TEST(ParallelEarlyTerminationTest, ExistsStillShortCircuits) {
  // One "x" needle per 99 fillers over 20k elements: the indexed
  // descendant probe stops at the first posting. Exists must keep doing
  // so with parallel options set, and read the same counters as a
  // sequential run. (The scan path is exempt from the "far fewer nodes"
  // claim even sequentially: it materializes the full axis image under
  // any limit, and the partitioned scan reproduces that accounting —
  // covered by the differential above.)
  std::vector<std::string> labels = {"x"};
  for (int i = 0; i < 99; ++i) {
    labels.push_back("abcde" + std::to_string(i % 5));
  }
  const xml::Document doc = xml::MakeRandomDocument(20000, labels, /*seed=*/3);
  doc.WarmCaches();
  const xpath::CompiledQuery plan = MustCompile("//x");  // fuses to descendant

  xpath::CompileOptions unoptimized;
  unoptimized.optimize = false;
  const xpath::CompiledQuery unopt = MustCompile("//x", unoptimized);

  for (EngineKind engine :
       {EngineKind::kCoreXPath, EngineKind::kOptMinContext}) {
    const exec::ParallelOptions par = {
        .enabled = true, .max_workers = 4, .min_frontier = 1};
    EvalOptions opts;
    opts.engine = engine;
    opts.result.mode = ResultMode::kExists;

    EvalStats seq_exists;
    opts.stats = &seq_exists;
    ASSERT_TRUE(Evaluate(plan, doc, {}, opts).value().boolean());

    EvalStats par_exists;
    opts.stats = &par_exists;
    opts.parallel = par;
    ASSERT_TRUE(Evaluate(plan, doc, {}, opts).value().boolean());

    // The whole-document yardstick: the unoptimized normal form's full
    // materialization walks >= |D| nodes, parallel or not.
    EvalStats par_full;
    EvalOptions full;
    full.engine = engine;
    full.stats = &par_full;
    full.parallel = par;
    ASSERT_TRUE(Evaluate(unopt, doc, {}, full).ok());
    ASSERT_GE(par_full.nodes_visited, static_cast<uint64_t>(doc.size()))
        << EngineKindToString(engine);

    EXPECT_EQ(par_exists.ToString(), seq_exists.ToString())
        << EngineKindToString(engine);
    EXPECT_LT(par_exists.nodes_visited * 100, par_full.nodes_visited)
        << EngineKindToString(engine);
  }
}

// --- budget parity ----------------------------------------------------------

TEST(ParallelBudgetTest, BudgetsTripIdenticallyUnderParallelEval) {
  const xml::Document doc =
      xml::MakeRandomDocument(500, {"a", "b"}, /*seed=*/5);
  const xpath::CompiledQuery plan = MustCompile("//a//b");
  for (EngineKind engine :
       {EngineKind::kCoreXPath, EngineKind::kOptMinContext}) {
    EvalOptions opts;
    opts.engine = engine;
    // Index off: the descendant steps take the partitioned scan.
    opts.use_index = false;
    opts.parallel = {.enabled = true, .max_workers = 4, .min_frontier = 1};

    opts.budget = 1;
    StatusOr<Value> tripped = Evaluate(plan, doc, {}, opts);
    ASSERT_FALSE(tripped.ok()) << EngineKindToString(engine);
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted)
        << EngineKindToString(engine);

    opts.budget = 1'000'000'000'000;
    EXPECT_TRUE(Evaluate(plan, doc, {}, opts).ok())
        << EngineKindToString(engine);
  }
}

// --- profiler reconciliation ------------------------------------------------

TEST(ParallelProfilerTest, StepRowsReconcileAndReportWorkers) {
  const xml::Document doc =
      xml::MakeRandomDocument(4000, {"a", "b", "x"}, /*seed=*/9);
  doc.WarmCaches();
  for (bool use_index : {true, false}) {
    const std::string label = use_index ? "index on" : "index off";
    Query q = *Query::Compile("//a/b");
    q.With(EngineKind::kCoreXPath)
        .WithIndex(use_index)
        .WithParallel({.enabled = true, .max_workers = 4, .min_frontier = 1});
    const obs::ProfileReport report = *q.Profile(doc);
    ASSERT_FALSE(report.data.steps().empty()) << label;
    // The rows must reconcile exactly as they do sequentially...
    EXPECT_EQ(report.data.nodes_visited_total(), report.stats.nodes_visited)
        << label;
    // ... and only descendant scans partition: with the index on every
    // step answers from postings and runs sequentially, and with it off,
    // min_frontier = 1 on a 4k-element document splits exactly the
    // descendant steps.
    bool any_partitioned = false;
    for (const obs::QueryProfile::Step& step : report.data.steps()) {
      const xpath::AstNode& node = q.plan().tree().node(step.ast_id);
      const bool descendant = node.axis == Axis::kDescendant ||
                              node.axis == Axis::kDescendantOrSelf;
      EXPECT_GE(step.workers_used, 1u) << label;
      EXPECT_EQ(step.workers_used > 1, !use_index && descendant)
          << label << ": step " << step.ast_id << " on "
          << AxisToString(node.axis) << " ran on " << step.workers_used
          << " workers";
      any_partitioned |= step.workers_used > 1;
    }
    EXPECT_EQ(any_partitioned, !use_index) << label;
    EXPECT_NE(report.data.ToString().find("workers"), std::string::npos)
        << label;
  }
}

// --- BatchEvaluator composition --------------------------------------------

TEST(ParallelBatchComposeTest, BatchWorkersWithParallelItemsStayCorrect) {
  const xml::Document doc =
      xml::MakeRandomDocument(800, {"a", "b", "c", "x"}, /*seed=*/21);
  doc.WarmCaches();
  const char* queries[] = {"//a//b", "//x", "count(//a[b])", "//a[.//c]/b"};

  std::vector<batch::BatchItem> items;
  for (int rep = 0; rep < 8; ++rep) {
    for (const char* q : queries) {
      items.push_back(batch::BatchItem{q, &doc, EvalContext{}});
    }
  }

  std::vector<Value> reference;
  for (const batch::BatchItem& item : items) {
    reference.push_back(
        *Evaluate(MustCompile(item.query), doc, item.context, EvalOptions{}));
  }

  // Batch workers × intra-query parallelism: both layers draw on the one
  // process-wide executor pool, so this oversubscribed shape must still
  // produce sequential-identical results (and, under the TSan CI job,
  // race-free ones). Index off, so the descendant steps take the
  // partitioned scan.
  batch::BatchOptions options;
  options.workers = 4;
  options.eval.use_index = false;
  options.eval.parallel = {
      .enabled = true, .max_workers = 4, .min_frontier = 1};
  batch::BatchEvaluator pool(options);
  const std::vector<batch::BatchResult> results = pool.EvaluateAll(items);
  ASSERT_EQ(results.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(results[i].value.ok()) << items[i].query;
    EXPECT_TRUE(results[i].value->StructurallyEquals(reference[i]))
        << items[i].query << " item " << i;
  }
}

}  // namespace
}  // namespace xpe
