#ifndef XPE_TESTS_TEST_UTIL_H_
#define XPE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/xpe.h"

namespace xpe::test {

/// Compiles or fails the test with the compile error.
inline xpath::CompiledQuery MustCompile(
    std::string_view query, const xpath::CompileOptions& options = {}) {
  StatusOr<xpath::CompiledQuery> compiled = xpath::Compile(query, options);
  EXPECT_TRUE(compiled.ok()) << "query: " << query << "\n"
                             << compiled.status().ToString();
  if (!compiled.ok()) std::abort();
  return std::move(compiled).value();
}

/// Parses or fails the test with the parse error.
inline xml::Document MustParse(std::string_view text,
                               const xml::ParseOptions& options = {}) {
  StatusOr<xml::Document> doc = xml::Parse(text, options);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) std::abort();
  return std::move(doc).value();
}

/// Evaluates a node-set query and renders each result node as its "id"
/// attribute value when present (the paper's x10..x24 notation), or
/// "#<NodeId>" otherwise. Non-OK evaluations fail the test.
inline std::vector<std::string> EvalIds(
    const xpath::CompiledQuery& query, const xml::Document& doc,
    EngineKind engine = EngineKind::kOptMinContext,
    const EvalContext& ctx = {}) {
  EvalOptions options;
  options.engine = engine;
  StatusOr<NodeSet> result = EvaluateNodeSet(query, doc, ctx, options);
  EXPECT_TRUE(result.ok()) << "query: " << query.source() << " engine "
                           << EngineKindToString(engine) << "\n"
                           << result.status().ToString();
  if (!result.ok()) return {"<error>"};
  std::vector<std::string> ids;
  for (xml::NodeId n : *result) {
    auto id = doc.Attribute(n, "id");
    ids.push_back(id ? std::string(*id) : "#" + std::to_string(n));
  }
  return ids;
}

inline std::vector<std::string> EvalIds(
    std::string_view query, const xml::Document& doc,
    EngineKind engine = EngineKind::kOptMinContext,
    const EvalContext& ctx = {}) {
  return EvalIds(MustCompile(query), doc, engine, ctx);
}

/// Evaluates a query expected to produce a scalar; fails the test on
/// error.
inline Value EvalValue(std::string_view query, const xml::Document& doc,
                       EngineKind engine = EngineKind::kOptMinContext,
                       const EvalContext& ctx = {}) {
  xpath::CompiledQuery compiled = MustCompile(query);
  EvalOptions options;
  options.engine = engine;
  StatusOr<Value> result = Evaluate(compiled, doc, ctx, options);
  EXPECT_TRUE(result.ok()) << "query: " << query << "\n"
                           << result.status().ToString();
  if (!result.ok()) return Value();
  return std::move(result).value();
}

/// The engines every conformance test runs against.
inline std::vector<EngineKind> ConformanceEngines() {
  return {EngineKind::kNaive, EngineKind::kBottomUp, EngineKind::kTopDown,
          EngineKind::kMinContext, EngineKind::kOptMinContext};
}

/// Pretty parameter names for INSTANTIATE_TEST_SUITE_P over engines.
struct EngineName {
  template <typename T>
  std::string operator()(const testing::TestParamInfo<T>& info) const {
    std::string name = EngineKindToString(std::get<EngineKind>(info.param));
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    return name;
  }
};

// --- The differential matrices' shared axes ---------------------------------

/// The index axis: no index at all, the flat hot tier, and the succinct
/// dense tier. The tiers must be invisible in results and bit-identical
/// to each other in EvalStats (same kernels, same counting).
struct IndexConfig {
  const char* label;
  bool use_index;
  index::IndexTier tier;  // meaningful only when use_index
};
inline constexpr IndexConfig kIndexConfigs[] = {
    {"scan", false, index::IndexTier::kHot},
    {"hot", true, index::IndexTier::kHot},
    {"dense", true, index::IndexTier::kDense},
};
/// Index off, and on over the hot tier.
inline constexpr std::span<const IndexConfig> kIndexOffOn =
    std::span(kIndexConfigs).first(2);

/// The result-mode axis: every mode once, kLimit with a limit below most
/// corpus results.
struct ModeConfig {
  ResultMode mode;
  uint64_t limit;
};
inline constexpr ModeConfig kModeConfigs[] = {
    {ResultMode::kFull, 0},   {ResultMode::kFirst, 0},
    {ResultMode::kExists, 0}, {ResultMode::kCount, 0},
    {ResultMode::kLimit, 3},
};

/// One matrix cell: the options to evaluate it with and the label that
/// names it in failure messages.
struct Cell {
  EvalOptions options;
  std::string label;
};

inline Cell MakeCell(std::string_view query, EngineKind engine,
                     const IndexConfig& index,
                     const ModeConfig& mode = kModeConfigs[0]) {
  Cell cell;
  cell.options.engine = engine;
  cell.options.use_index = index.use_index;
  if (index.use_index) cell.options.index_tier = index.tier;
  cell.options.result.mode = mode.mode;
  cell.options.result.limit = mode.limit;
  cell.label = std::string(query) + " on " + EngineKindToString(engine) +
               " index " + index.label + " mode " +
               ResultModeToString(mode.mode);
  return cell;
}

/// Whether a matrix runs `engine` on `plan`: the Core XPath engine only
/// accepts its own fragment.
inline bool EngineRuns(EngineKind engine, const xpath::CompiledQuery& plan) {
  return engine != EngineKind::kCoreXPath ||
         plan.fragment() == xpath::Fragment::kCoreXPath;
}

}  // namespace xpe::test

#endif  // XPE_TESTS_TEST_UTIL_H_
