// The xpe::batch concurrency contract: a shared PlanCache in front of a
// fixed pool of per-worker Evaluator sessions, evaluating N queries × M
// shared read-only documents concurrently with deterministic, item-order
// results and race-free aggregated stats. The threaded cases here are
// the ones the TSan CI job exists for: any unsynchronized access on the
// shared read path (Document lazy caches, shared plans, result slots)
// fails there even if the values happen to come out right.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using batch::BatchEvaluator;
using batch::BatchItem;
using batch::BatchOptions;
using batch::BatchResult;
using batch::PlanCache;
using batch::SharedPlan;
using test::MustCompile;
using test::MustParse;

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache(8);
  bool hit = true;
  StatusOr<SharedPlan> first = cache.GetOrCompile("//a", &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  StatusOr<SharedPlan> second = cache.GetOrCompile("//a", &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get()) << "hit must return the same plan";
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, CanonicalKeySharesOnePlanAcrossSpellings) {
  // All three spell the same normalized query; the canonical level must
  // collapse them onto one plan object under distinct source keys.
  PlanCache cache(8);
  SharedPlan abbreviated = *cache.GetOrCompile("//a[2]");
  SharedPlan spaced = *cache.GetOrCompile("  //a[ 2 ]");
  SharedPlan unabbreviated = *cache.GetOrCompile(
      "/descendant-or-self::node()/child::a[position() = 2]");
  EXPECT_EQ(abbreviated.get(), spaced.get());
  EXPECT_EQ(abbreviated.get(), unabbreviated.get());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u) << "three source aliases";
  EXPECT_EQ(stats.canonical_shares, 2u) << "two spellings adopted plan #1";
}

TEST(PlanCacheTest, CanonicalKeyIsTheNormalizedRendering) {
  const xpath::CompiledQuery a = MustCompile("//a[2]");
  const xpath::CompiledQuery b =
      MustCompile("/descendant-or-self::node()/child::a[position() = 2]");
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  EXPECT_EQ(a.canonical_key(), a.tree().ToString());
  EXPECT_NE(a.source(), b.source());
}

TEST(PlanCacheTest, BindingsDistinguishCanonicalKeys) {
  // Bindings are substituted by the normalizer, so the same text under
  // different bindings has different canonical keys (and caches must be
  // per-binding-environment, which PlanCache enforces by construction).
  xpath::CompileOptions opt1;
  opt1.bindings["x"] = xpath::ScalarBinding::Number(1);
  xpath::CompileOptions opt2;
  opt2.bindings["x"] = xpath::ScalarBinding::Number(2);
  const xpath::CompiledQuery q1 = MustCompile("//a[$x]", opt1);
  const xpath::CompiledQuery q2 = MustCompile("//a[$x]", opt2);
  EXPECT_NE(q1.canonical_key(), q2.canonical_key());
}

TEST(PlanCacheTest, LruEvictionBoundsEntries) {
  PlanCache cache(2);
  ASSERT_TRUE(cache.GetOrCompile("//a").ok());
  ASSERT_TRUE(cache.GetOrCompile("//b").ok());
  ASSERT_TRUE(cache.GetOrCompile("//a").ok());  // touch //a
  ASSERT_TRUE(cache.GetOrCompile("//c").ok());  // evicts //b (LRU)
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  bool hit = false;
  ASSERT_TRUE(cache.GetOrCompile("//a", &hit).ok());
  EXPECT_TRUE(hit) << "//a was touched, must have survived";
  ASSERT_TRUE(cache.GetOrCompile("//b", &hit).ok());
  EXPECT_FALSE(hit) << "//b was the LRU victim";
}

TEST(PlanCacheTest, CompileErrorsAreReturnedAndNotCached) {
  PlanCache cache(8);
  StatusOr<SharedPlan> bad = cache.GetOrCompile("//a[");
  ASSERT_FALSE(bad.ok());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.failures, 1u);
  // Still an error the second time (and not a stale cache hit).
  bool hit = true;
  StatusOr<SharedPlan> again = cache.GetOrCompile("//a[", &hit);
  EXPECT_FALSE(again.ok());
  EXPECT_FALSE(hit);
}

TEST(PlanCacheTest, EvictedPlanSurvivesForInFlightHolders) {
  PlanCache cache(1);
  SharedPlan held = *cache.GetOrCompile("//a");
  ASSERT_TRUE(cache.GetOrCompile("//b").ok());  // evicts //a
  EXPECT_EQ(cache.stats().entries, 1u);
  // The held plan is still fully usable after eviction.
  const xml::Document doc = MustParse("<r><a/><a/></r>");
  StatusOr<NodeSet> result = EvaluateNodeSet(*held, doc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(PlanCacheTest, CanonicalLevelStaysBoundedUnderChurn) {
  // A stream of never-repeating queries through a tiny cache: the
  // source level is LRU-capped, and the canonical dedup level must not
  // grow without bound either (expired entries are swept).
  PlanCache cache(2);
  for (int i = 0; i < 200; ++i) {
    const std::string q = "//a[" + std::to_string(i + 1) + "]";
    ASSERT_TRUE(cache.GetOrCompile(q).ok());
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.canonical_entries, stats.entries + cache.capacity());
}

TEST(PlanCacheTest, ConcurrentGetOrCompileConvergesOnOnePlan) {
  // Many threads race first-touch compiles of a small query set; every
  // thread must end with a working plan and the cache must stay
  // consistent. (TSan checks the synchronization, asserts the values.)
  PlanCache cache(64);
  constexpr int kThreads = 8;
  const char* queries[] = {"//a", "//b", "//a/b", "count(//a)", "//a[2]"};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        for (const char* q : queries) {
          StatusOr<SharedPlan> plan = cache.GetOrCompile(q);
          if (!plan.ok() || *plan == nullptr) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Racing compiles may briefly produce duplicate plan objects, but the
  // cache itself converges on one entry per query.
  EXPECT_EQ(cache.stats().entries, 5u);
  for (const char* q : queries) {
    EXPECT_NE(cache.Lookup(q), nullptr) << q;
  }
}

// ---------------------------------------------------------------------------
// BatchEvaluator
// ---------------------------------------------------------------------------

/// Sequential reference: the free one-shot Evaluate over the same items.
std::vector<Value> SequentialReference(const std::vector<BatchItem>& items,
                                       const EvalOptions& options) {
  std::vector<Value> out;
  out.reserve(items.size());
  for (const BatchItem& item : items) {
    xpath::CompiledQuery q = MustCompile(item.query);
    StatusOr<Value> v = Evaluate(q, *item.doc, item.context, options);
    EXPECT_TRUE(v.ok()) << item.query << ": " << v.status().ToString();
    out.push_back(v.ok() ? std::move(v).value() : Value());
  }
  return out;
}

std::vector<BatchItem> MixedWorkload(
    const std::vector<const xml::Document*>& docs) {
  const char* queries[] = {
      "//a",
      "//a/b",
      "//b[last()]",
      "//a[b and c]",
      "count(//a)",
      "//a[position() mod 2 = 0]",
      "//c/following-sibling::*",
      "sum(//b) + count(//c)",
      "//*[@id]",
      "//a | //c",
  };
  std::vector<BatchItem> items;
  for (int round = 0; round < 3; ++round) {
    for (const xml::Document* doc : docs) {
      for (const char* q : queries) {
        items.push_back(BatchItem{q, doc, EvalContext{}});
      }
    }
  }
  return items;
}

TEST(BatchEvaluatorTest, MatchesSequentialReferenceInItemOrder) {
  const xml::Document doc_a = xml::MakeRandomDocument(40, {"a", "b", "c"}, 7);
  const xml::Document doc_b = xml::MakeRandomDocument(25, {"a", "b", "c"}, 99);
  const std::vector<BatchItem> items = MixedWorkload({&doc_a, &doc_b});

  for (int workers : {1, 2, 4, 8}) {
    BatchOptions options;
    options.workers = workers;
    BatchEvaluator pool(options);
    ASSERT_EQ(pool.workers(), workers);
    const std::vector<BatchResult> results = pool.EvaluateAll(items);
    const std::vector<Value> expected =
        SequentialReference(items, options.eval);
    ASSERT_EQ(results.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      ASSERT_TRUE(results[i].value.ok())
          << "workers=" << workers << " item " << i << " (" << items[i].query
          << "): " << results[i].value.status().ToString();
      EXPECT_TRUE(results[i].value->StructurallyEquals(expected[i]))
          << "workers=" << workers << " item " << i << " (" << items[i].query
          << ")\nexpected " << expected[i].Repr() << "\nactual "
          << results[i].value->Repr();
    }
  }
}

TEST(BatchEvaluatorTest, DeterministicAcrossRepeatedRuns) {
  const xml::Document doc = xml::MakeRandomDocument(35, {"a", "b", "c"}, 3);
  const std::vector<BatchItem> items = MixedWorkload({&doc});
  BatchOptions options;
  options.workers = 4;
  BatchEvaluator pool(options);
  const std::vector<BatchResult> first = pool.EvaluateAll(items);
  for (int run = 0; run < 5; ++run) {
    const std::vector<BatchResult> again = pool.EvaluateAll(items);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      ASSERT_TRUE(again[i].value.ok());
      EXPECT_TRUE(again[i].value->StructurallyEquals(*first[i].value))
          << "run " << run << " item " << i;
    }
  }
}

TEST(BatchEvaluatorTest, PerItemErrorsDoNotPoisonTheBatch) {
  const xml::Document doc = MustParse("<r><a/><a/></r>");
  std::vector<BatchItem> items = {
      {"//a", &doc, {}},
      {"//a[", &doc, {}},    // syntax error
      {"count(//a)", &doc, {}},
      {"//a", nullptr, {}},  // null document
  };
  BatchOptions options;
  options.workers = 2;
  BatchEvaluator pool(options);
  const std::vector<BatchResult> results = pool.EvaluateAll(items);
  ASSERT_EQ(results.size(), 4u);
  ASSERT_TRUE(results[0].value.ok());
  EXPECT_EQ(results[0].value->node_set().size(), 2u);
  EXPECT_FALSE(results[1].value.ok());
  EXPECT_EQ(results[1].value.status().code(), StatusCode::kParseError);
  ASSERT_TRUE(results[2].value.ok());
  EXPECT_EQ(results[2].value->number(), 2.0);
  EXPECT_FALSE(results[3].value.ok());
  EXPECT_EQ(results[3].value.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.last_batch_stats().errors, 2u);
}

TEST(BatchEvaluatorTest, StatsAggregateAcrossWorkersAndCacheWarms) {
  const xml::Document doc = xml::MakeRandomDocument(30, {"a", "b", "c"}, 11);
  const std::vector<BatchItem> items = MixedWorkload({&doc});
  BatchOptions options;
  options.workers = 4;
  BatchEvaluator pool(options);

  pool.EvaluateAll(items);
  const batch::BatchStats cold = pool.last_batch_stats();
  EXPECT_EQ(cold.items, items.size());
  EXPECT_EQ(cold.errors, 0u);
  EXPECT_EQ(cold.plan_cache_hits + cold.plan_cache_misses, items.size());
  EXPECT_GT(cold.eval.contexts_evaluated, 0u);

  pool.EvaluateAll(items);
  const batch::BatchStats warm = pool.last_batch_stats();
  EXPECT_EQ(warm.plan_cache_misses, 0u) << "second batch must be fully warm";
  EXPECT_EQ(warm.plan_cache_hits, items.size());
}

TEST(BatchEvaluatorTest, AllEnginesRunUnderTheBatch) {
  const xml::Document doc = xml::MakeRandomDocument(20, {"a", "b", "c"}, 5);
  for (EngineKind engine :
       {EngineKind::kBottomUp, EngineKind::kTopDown, EngineKind::kMinContext,
        EngineKind::kOptMinContext}) {
    std::vector<BatchItem> items;
    for (int i = 0; i < 12; ++i) items.push_back({"//a[b]/b", &doc, {}});
    BatchOptions options;
    options.workers = 3;
    options.eval.engine = engine;
    BatchEvaluator pool(options);
    const std::vector<BatchResult> results = pool.EvaluateAll(items);
    xpath::CompiledQuery q = MustCompile("//a[b]/b");
    EvalOptions ref_opts;
    ref_opts.engine = engine;
    StatusOr<Value> expected = Evaluate(q, doc, EvalContext{}, ref_opts);
    ASSERT_TRUE(expected.ok());
    for (const BatchResult& r : results) {
      ASSERT_TRUE(r.value.ok()) << EngineKindToString(engine);
      EXPECT_TRUE(r.value->StructurallyEquals(*expected))
          << EngineKindToString(engine);
    }
  }
}

TEST(BatchEvaluatorTest, EmptyBatchAndReuseAfterIt) {
  const xml::Document doc = MustParse("<r><a/></r>");
  BatchOptions options;
  options.workers = 2;
  BatchEvaluator pool(options);
  EXPECT_TRUE(pool.EvaluateAll({}).empty());
  const std::vector<BatchResult> results =
      pool.EvaluateAll({{"//a", &doc, {}}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].value.ok());
}

TEST(BatchEvaluatorTest, NonRootContextsAreHonored) {
  const xml::Document doc =
      MustParse("<r><a id='1'><b/></a><a id='2'><b/><b/></a></r>");
  // Context node: each <a> in turn, query relative to it.
  std::vector<BatchItem> items;
  for (xml::NodeId n = 0; n < doc.size(); ++n) {
    if (doc.IsElement(n) && doc.name(n) == "a") {
      EvalContext ctx;
      ctx.node = n;
      items.push_back({"count(b)", &doc, ctx});
    }
  }
  ASSERT_EQ(items.size(), 2u);
  BatchOptions options;
  options.workers = 2;
  BatchEvaluator pool(options);
  const std::vector<BatchResult> results = pool.EvaluateAll(items);
  ASSERT_TRUE(results[0].value.ok());
  ASSERT_TRUE(results[1].value.ok());
  EXPECT_EQ(results[0].value->number(), 1.0);
  EXPECT_EQ(results[1].value->number(), 2.0);
}

// ---------------------------------------------------------------------------
// Shared-document contention (the TSan cases)
// ---------------------------------------------------------------------------

TEST(SharedDocumentContentionTest, FirstTouchIndexBuildUnderContention) {
  // A *fresh* document per round: all threads race the lazy index /
  // id-axis / number-cache builds on first touch.
  for (int round = 0; round < 5; ++round) {
    const xml::Document doc =
        xml::MakeRandomDocument(60, {"a", "b", "c"}, 1000 + round);
    size_t elements = 0;
    for (xml::NodeId id = 0; id < doc.size(); ++id) {
      elements += doc.IsElement(id);
    }
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        const index::DocumentIndex& idx = doc.index();  // racing first touch
        if (idx.all_elements().size() != elements) failures.fetch_add(1);
        if (doc.IdAxisForward(0).size() > doc.size()) failures.fetch_add(1);
        xpath::CompiledQuery q = MustCompile("//a[. = 100]/b");
        Evaluator session;
        StatusOr<Value> v = session.Evaluate(q, doc, EvalContext{}, {});
        if (!v.ok()) failures.fetch_add(1);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
  }
}

TEST(SharedDocumentContentionTest, WarmCachesIsIdempotentAndComplete) {
  const xml::Document doc = xml::MakeRandomDocument(40, {"a", "b", "c"}, 77);
  doc.WarmCaches();
  doc.WarmCaches();  // idempotent
  // After warming, evaluation answers match an unwarmed document's.
  const xml::Document cold = xml::MakeRandomDocument(40, {"a", "b", "c"}, 77);
  for (const char* q : {"//a[b]", "id(//a)", "//*[. = 100]"}) {
    xpath::CompiledQuery compiled = MustCompile(q);
    StatusOr<Value> warm_v = Evaluate(compiled, doc, EvalContext{}, {});
    StatusOr<Value> cold_v = Evaluate(compiled, cold, EvalContext{}, {});
    ASSERT_TRUE(warm_v.ok());
    ASSERT_TRUE(cold_v.ok());
    EXPECT_TRUE(warm_v->StructurallyEquals(*cold_v)) << q;
  }
}

TEST(SharedDocumentContentionTest, ColdDocumentsThroughTheBatchPool) {
  // warm_documents=false: the pool's workers themselves race first
  // touch on each document's lazy caches mid-evaluation.
  const xml::Document doc_a = xml::MakeRandomDocument(50, {"a", "b", "c"}, 21);
  const xml::Document doc_b = xml::MakeAuctionDocument(6, 21);
  std::vector<BatchItem> items;
  for (int i = 0; i < 16; ++i) {
    items.push_back({"//a[. = 100]", &doc_a, {}});
    items.push_back({"id(//itemref)/name", &doc_b, {}});
  }
  BatchOptions options;
  options.workers = 8;
  options.warm_documents = false;
  BatchEvaluator pool(options);
  const std::vector<BatchResult> results = pool.EvaluateAll(items);
  const std::vector<Value> expected = SequentialReference(items, options.eval);
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(results[i].value.ok()) << i;
    EXPECT_TRUE(results[i].value->StructurallyEquals(expected[i])) << i;
  }
}

TEST(SharedDocumentContentionTest, ConcurrentBatchesOnSeparatePools) {
  // Two pools over the same documents from two client threads: the
  // documents and plans are shared across pools, sessions are not.
  const xml::Document doc = xml::MakeRandomDocument(40, {"a", "b", "c"}, 13);
  const std::vector<BatchItem> items = MixedWorkload({&doc});
  const std::vector<Value> expected = SequentialReference(items, {});
  auto run_pool = [&](std::atomic<int>* failures) {
    BatchOptions options;
    options.workers = 3;
    BatchEvaluator pool(options);
    const std::vector<BatchResult> results = pool.EvaluateAll(items);
    for (size_t i = 0; i < items.size(); ++i) {
      if (!results[i].value.ok() ||
          !results[i].value->StructurallyEquals(expected[i])) {
        failures->fetch_add(1);
      }
    }
  };
  std::atomic<int> failures{0};
  std::thread one([&] { run_pool(&failures); });
  std::thread two([&] { run_pool(&failures); });
  one.join();
  two.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace xpe
