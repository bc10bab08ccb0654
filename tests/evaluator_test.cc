// Evaluator sessions: pooled-memory reuse must be invisible in results
// (wrapper equivalence), safe across back-to-back heterogeneous
// evaluations, allocation-stable in steady state, and race-free when one
// session per thread shares a Document.

#include <gtest/gtest.h>

#include <thread>

#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::MustCompile;
using test::MustParse;
using xml::NodeId;

TEST(EvalArenaTest, AllocateExtendReset) {
  EvalArena arena;
  auto* a = static_cast<uint32_t*>(arena.Allocate(4 * sizeof(uint32_t), 4));
  ASSERT_NE(a, nullptr);
  a[0] = 7;
  // The most recent allocation extends in place while its block has room.
  EXPECT_TRUE(arena.TryExtend(a, 4 * sizeof(uint32_t), 8 * sizeof(uint32_t)));
  EXPECT_EQ(a[0], 7u);
  // A newer allocation ends the extendability of the older one.
  void* b = arena.Allocate(16, 8);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(
      arena.TryExtend(a, 8 * sizeof(uint32_t), 16 * sizeof(uint32_t)));

  const size_t reserved = arena.bytes_reserved();
  const uint64_t blocks = arena.block_allocations();
  EXPECT_GT(reserved, 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // Reset retains the blocks: the same workload re-runs without a single
  // new block allocation.
  (void)arena.Allocate(64, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.block_allocations(), blocks);
}

TEST(EvalArenaTest, ArenaVectorGrowsAcrossBlocks) {
  EvalArena arena;
  ArenaVector<NodeId> v(&arena);
  for (NodeId i = 0; i < 10'000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 10'000u);
  for (NodeId i = 0; i < 10'000; ++i) {
    ASSERT_EQ(v[i], i) << "element " << i << " lost during growth";
  }
}

TEST(NodeTableTest, RowsInAnyKeyOrder) {
  EvalArena arena;
  NodeTable table;
  table.Reset(&arena, 5);
  EXPECT_TRUE(table.initialized());
  EXPECT_FALSE(table.has_row(3));

  const NodeId row3[] = {1, 4};
  table.SetRow(3, row3);
  table.BeginRow(0);
  table.PushOrdered(2);
  table.PushOrdered(2);  // adjacent duplicate dropped
  table.PushOrdered(9);
  table.CommitRow();
  table.SetRow(1, std::span<const NodeId>{});  // committed empty row

  EXPECT_TRUE(table.has_row(0));
  EXPECT_TRUE(table.has_row(1));
  EXPECT_TRUE(table.has_row(3));
  EXPECT_FALSE(table.has_row(2));
  EXPECT_EQ(table.RowAsNodeSet(0).ToString(), "{2, 9}");
  EXPECT_EQ(table.RowAsNodeSet(3).ToString(), "{1, 4}");
  EXPECT_TRUE(table.Row(1).empty());
  EXPECT_TRUE(table.Row(2).empty());
  EXPECT_EQ(table.cells(), 4u);

  // Re-setting a row replaces it and keeps the cell count truthful.
  const NodeId row3b[] = {0};
  table.SetRow(3, row3b);
  EXPECT_EQ(table.RowAsNodeSet(3).ToString(), "{0}");
  EXPECT_EQ(table.cells(), 3u);
}

/// A table's key slots come from arrays the arena pools across Reset():
/// whichever table takes an array next, of fewer or more keys, sees no
/// row an earlier holder committed, and two tables of one generation
/// never share one.
TEST(NodeTableTest, PooledKeySlotsHoldNoStaleRows) {
  EvalArena arena;
  const NodeId row[] = {1, 2};
  auto expect_empty = [](const NodeTable& table, const char* label) {
    EXPECT_EQ(table.cells(), 0u) << label;
    for (uint32_t k = 0; k < table.num_keys(); ++k) {
      EXPECT_FALSE(table.has_row(k)) << label << " key " << k;
      EXPECT_TRUE(table.Row(k).empty()) << label << " key " << k;
    }
  };
  NodeTable first;
  first.Reset(&arena, 64);
  for (uint32_t k = 0; k < 64; ++k) first.SetRow(k, row);
  NodeTable sibling;
  sibling.Reset(&arena, 64);
  expect_empty(sibling, "same generation");
  const uint64_t blocks = arena.block_allocations();
  const size_t reserved = arena.bytes_reserved();

  // Fewer keys: the pooled array is reused, under a fresh stamp.
  arena.Reset();
  NodeTable smaller;
  smaller.Reset(&arena, 16);
  EXPECT_EQ(arena.block_allocations(), blocks);
  EXPECT_EQ(arena.bytes_used(), 16 * sizeof(KeySlot));
  expect_empty(smaller, "smaller");
  for (uint32_t k = 0; k < 16; k += 2) smaller.SetRow(k, row);

  // More keys: the array grows, and the growth is counted like a block.
  arena.Reset();
  NodeTable larger;
  larger.Reset(&arena, 256);
  EXPECT_EQ(arena.block_allocations(), blocks + 1);
  EXPECT_EQ(arena.bytes_reserved(), reserved + 192 * sizeof(KeySlot));
  expect_empty(larger, "larger");
  for (uint32_t k = 0; k < 256; ++k) larger.SetRow(k, row);

  // Back to the first size: no allocation, still no stale row.
  arena.Reset();
  NodeTable again;
  again.Reset(&arena, 64);
  EXPECT_EQ(arena.block_allocations(), blocks + 1);
  expect_empty(again, "again");
}

/// Back-to-back evaluations of different queries, documents, engines and
/// contexts on ONE session must match the one-shot wrapper bit-for-bit.
TEST(EvaluatorTest, ReuseAcrossQueriesAndDocumentsMatchesOneShot) {
  const xml::Document doc_a =
      xml::MakeRandomDocument(40, {"a", "b", "c"}, 1234);
  const xml::Document doc_b = MustParse(
      "<r><a id='n1'>100</a><b><c/><c/></b><a>100</a><b ref='n1'/></r>");
  const char* queries[] = {
      "//a",
      "//b[last()]",
      "//a[. = 100]",
      "count(//c) + sum(//a)",
      "//b/preceding-sibling::*",
      "//*[@id]",
      "//a[position() != last()]",
      "(//b)[2]",
  };
  Evaluator session;
  for (EngineKind engine :
       {EngineKind::kBottomUp, EngineKind::kTopDown, EngineKind::kMinContext,
        EngineKind::kOptMinContext}) {
    for (const xml::Document* doc : {&doc_a, &doc_b}) {
      for (const char* query : queries) {
        xpath::CompiledQuery compiled = MustCompile(query);
        EvalOptions options;
        options.engine = engine;
        StatusOr<Value> oneshot = Evaluate(compiled, *doc, {}, options);
        StatusOr<Value> reused = session.Evaluate(compiled, *doc, {}, options);
        ASSERT_TRUE(oneshot.ok()) << query << ": "
                                  << oneshot.status().ToString();
        ASSERT_TRUE(reused.ok()) << query << ": "
                                 << reused.status().ToString();
        EXPECT_TRUE(reused->StructurallyEquals(*oneshot))
            << "query:   " << query
            << "\nengine:  " << EngineKindToString(engine)
            << "\noneshot: " << oneshot->Repr()
            << "\nreused:  " << reused->Repr();
      }
    }
  }
}

/// Non-node-set results and non-root contexts through a session.
TEST(EvaluatorTest, SessionHandlesScalarResultsAndContexts) {
  const xml::Document doc = MustParse("<r><a/><a/><b/></r>");
  Evaluator session;
  StatusOr<NodeSet> b_nodes = session.EvaluateNodeSet(MustCompile("//b"), doc);
  ASSERT_TRUE(b_nodes.ok()) << b_nodes.status().ToString();
  ASSERT_EQ(b_nodes->size(), 1u);
  xpath::CompiledQuery count = MustCompile("count(../a)");
  EvalContext ctx;
  ctx.node = b_nodes->First();
  StatusOr<Value> v = session.Evaluate(count, doc, ctx);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->number(), 2.0);

  StatusOr<NodeSet> bad =
      session.EvaluateNodeSet(MustCompile("1 + 1"), doc, {});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Error paths must not poison the session.
  StatusOr<NodeSet> good = session.EvaluateNodeSet(MustCompile("//a"), doc);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->size(), 2u);
}

/// A warmed-up session stops allocating arena blocks: repeating the same
/// evaluation must not grow the arena.
TEST(EvaluatorTest, SteadyStateAllocatesNoNewArenaBlocks) {
  const xml::Document doc = xml::MakeGrownPaperDocument(8);
  // The predicate is an inner path, so MINCONTEXT builds real arena
  // tables (outermost paths alone stay set-valued per §3.1); top-down
  // builds its per-step pair relation on the arena for any path.
  xpath::CompiledQuery query = MustCompile("//a[b]/descendant::c");
  for (EngineKind engine :
       {EngineKind::kMinContext, EngineKind::kTopDown}) {
    Evaluator session;
    EvalOptions options;
    options.engine = engine;
    for (int warmup = 0; warmup < 2; ++warmup) {
      ASSERT_TRUE(session.Evaluate(query, doc, {}, options).ok());
    }
    const uint64_t blocks = session.arena_block_allocations();
    const size_t reserved = session.arena_bytes_reserved();
    EXPECT_GT(blocks, 0u) << EngineKindToString(engine);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(session.Evaluate(query, doc, {}, options).ok());
    }
    EXPECT_EQ(session.arena_block_allocations(), blocks)
        << EngineKindToString(engine);
    EXPECT_EQ(session.arena_bytes_reserved(), reserved)
        << EngineKindToString(engine);
  }
}

/// The same holds for the analytics shapes whose tables are all key
/// space: an aggregate predicate (count of an inner path per origin) and
/// a scalar over two absolute paths. Their key-slot arrays are counted in
/// the session's reserved bytes and block allocations, and a warmed
/// session re-running both grows neither.
TEST(EvaluatorTest, WarmSessionReusesKeySlotArrays) {
  const xml::Document doc = xml::MakeAuctionDocument(120, 1);
  const xpath::CompiledQuery queries[] = {
      MustCompile("/site/open_auctions/open_auction[count(bidder) > 2]"),
      MustCompile("sum(//current) div count(//open_auction)"),
  };
  Evaluator session;
  ASSERT_TRUE(session.Evaluate(queries[0], doc).ok());
  // The inner path's relation table and its step relation: |D| keys each.
  EXPECT_GE(session.arena_bytes_reserved(), 2 * doc.size() * sizeof(KeySlot));
  for (int warmup = 0; warmup < 2; ++warmup) {
    for (const xpath::CompiledQuery& query : queries) {
      ASSERT_TRUE(session.Evaluate(query, doc).ok());
    }
  }
  const uint64_t blocks = session.arena_block_allocations();
  const size_t reserved = session.arena_bytes_reserved();
  for (int i = 0; i < 5; ++i) {
    for (const xpath::CompiledQuery& query : queries) {
      ASSERT_TRUE(session.Evaluate(query, doc).ok());
    }
  }
  EXPECT_EQ(session.arena_block_allocations(), blocks);
  EXPECT_EQ(session.arena_bytes_reserved(), reserved);
}

/// One session per thread over one shared Document: results identical to
/// single-threaded, no crashes/races (the Document's lazy caches are the
/// only shared mutable state).
TEST(EvaluatorTest, OneSessionPerThreadOverSharedDocument) {
  const xml::Document doc =
      xml::MakeRandomDocument(60, {"a", "b", "c"}, 4321);
  const char* queries[] = {
      "//a//b",
      "//b[last()]",
      "//c/following-sibling::*",
      "count(//a[b])",
      "//*[@id]",
  };
  // Expected values single-threaded, before any thread touches the
  // document's caches (forces the lazy builds to race in the threads).
  std::vector<Value> expected;
  std::vector<xpath::CompiledQuery> compiled;
  for (const char* query : queries) {
    compiled.push_back(MustCompile(query));
  }
  {
    const xml::Document expectation_doc =
        xml::MakeRandomDocument(60, {"a", "b", "c"}, 4321);
    for (const xpath::CompiledQuery& q : compiled) {
      StatusOr<Value> v = Evaluate(q, expectation_doc, {}, {});
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      expected.push_back(std::move(v).value());
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Evaluator session;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t qi = 0; qi < compiled.size(); ++qi) {
          EvalOptions options;
          options.engine = (t % 2 == 0) ? EngineKind::kOptMinContext
                                        : EngineKind::kTopDown;
          StatusOr<Value> v =
              session.Evaluate(compiled[qi], doc, {}, options);
          if (!v.ok() || !v->StructurallyEquals(expected[qi])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace xpe
