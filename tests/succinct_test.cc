#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/index/document_index.h"
#include "src/index/index_tier.h"
#include "src/succinct/bitvector.h"
#include "src/succinct/ef_postings.h"
#include "src/succinct/succinct_index.h"
#include "src/xml/document.h"
#include "src/xml/generator.h"

namespace xpe {
namespace {

using index::PostingsView;
using succinct::BitVector;
using succinct::EliasFanoList;
using xml::Document;
using xml::NodeId;

// --- BitVector select vs brute force --------------------------------------

/// Patterns exercising the superblock machinery: empty, all-zero,
/// all-one, sparse, dense, and sizes straddling the 512-bit superblock
/// and the 512-one select-sample boundaries.
std::vector<bool> RandomBits(size_t n, double density, uint32_t seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution bit(density);
  std::vector<bool> bits(n);
  for (size_t i = 0; i < n; ++i) bits[i] = bit(rng);
  return bits;
}

void CheckSelect(const std::vector<bool>& bits) {
  BitVector bv(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bv.Set(i);
  }
  bv.Finish();
  size_t ones = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) {
      ASSERT_EQ(bv.Select1(ones), i) << "Select1(" << ones << ")";
      ++ones;
    }
  }
}

TEST(BitVectorTest, SelectMatchesBruteForce) {
  CheckSelect({});
  CheckSelect({false});
  CheckSelect({true});
  CheckSelect(std::vector<bool>(100, false));
  CheckSelect(std::vector<bool>(100, true));
  // Straddle the 512-bit superblock boundary at every alignment.
  for (size_t n : {63, 64, 65, 511, 512, 513, 1024, 1500}) {
    CheckSelect(RandomBits(n, 0.5, static_cast<uint32_t>(n)));
  }
}

TEST(BitVectorTest, SparseAndDenseDensities) {
  // >512 ones forces multiple select samples; 0.02 keeps samples rare.
  CheckSelect(RandomBits(40000, 0.02, 7));
  CheckSelect(RandomBits(4000, 0.97, 8));
}

TEST(BitVectorTest, AllOnesAcrossManySuperblocks) {
  CheckSelect(std::vector<bool>(3000, true));
}

// --- Elias-Fano postings vs the plain sorted vector -----------------------

std::vector<NodeId> RandomSorted(size_t n, NodeId universe, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<NodeId> dist(0, universe - 1);
  std::vector<NodeId> v(n);
  for (auto& x : v) x = dist(rng);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(EliasFanoTest, GetRoundTrip) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    const std::vector<NodeId> v = RandomSorted(2000, 1 << 20, seed);
    const EliasFanoList ef(v, 1 << 20);
    ASSERT_EQ(ef.size(), v.size());
    for (size_t k = 0; k < v.size(); ++k) {
      ASSERT_EQ(ef.Get(k), v[k]) << "k=" << k;
    }
  }
}

TEST(EliasFanoTest, EdgeShapes) {
  // Empty, singleton, duplicates-of-universe-1 clusters, and dense
  // (l == 0) lists.
  const EliasFanoList empty(std::vector<NodeId>{}, 100);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(PostingsView(&empty).CountInRange(0, 100), 0u);
  const EliasFanoList one(std::vector<NodeId>{42}, 100);
  EXPECT_EQ(one.Get(0), 42u);
  std::vector<NodeId> dense(100);
  for (NodeId i = 0; i < 100; ++i) dense[i] = i;
  const EliasFanoList ef(dense, 100);
  for (size_t k = 0; k < dense.size(); ++k) ASSERT_EQ(ef.Get(k), k);
}

TEST(EliasFanoTest, LowerBoundMatchesStd) {
  const std::vector<NodeId> v = RandomSorted(1500, 1 << 16, 11);
  const EliasFanoList ef(v, 1 << 16);
  for (NodeId q = 0; q < (1 << 16); q += 37) {
    const size_t expect = static_cast<size_t>(
        std::lower_bound(v.begin(), v.end(), q) - v.begin());
    ASSERT_EQ(ef.LowerBound(q), expect) << "q=" << q;
  }
}

TEST(EliasFanoTest, CursorRoundTrip) {
  const std::vector<NodeId> v = RandomSorted(3000, 1 << 18, 13);
  const EliasFanoList ef(v, 1 << 18);
  // Sequential walk from the front and from every 97th value.
  for (size_t k0 = 0; k0 < v.size(); k0 += 97) {
    EliasFanoList::Cursor c(&ef, k0);
    for (size_t k = k0; k < v.size(); ++k, c.Next()) {
      ASSERT_EQ(c.Value(), v[k]) << "k0=" << k0 << " k=" << k;
    }
  }
}

TEST(EliasFanoTest, DecodeMatchesSlice) {
  const std::vector<NodeId> v = RandomSorted(2500, 1 << 17, 19);
  const EliasFanoList ef(v, 1 << 17);
  std::mt19937 rng(23);
  for (int i = 0; i < 100; ++i) {
    size_t a = rng() % (v.size() + 1);
    size_t b = rng() % (v.size() + 1);
    if (a > b) std::swap(a, b);
    std::vector<NodeId> out(b - a);
    ef.Decode(a, b, out.data());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), v.begin() + a));
  }
}

TEST(EliasFanoTest, RandomizedCountInRangeVsLinear) {
  for (uint32_t seed : {29u, 31u, 37u}) {
    const std::vector<NodeId> v = RandomSorted(1200, 1 << 15, seed);
    const EliasFanoList ef(v, 1 << 15);
    std::mt19937 rng(seed * 100);
    for (int i = 0; i < 300; ++i) {
      NodeId lo = rng() % (1 << 15);
      NodeId hi = rng() % (1 << 15);
      if (lo > hi) std::swap(lo, hi);
      size_t linear = 0;
      for (NodeId x : v) {
        if (x >= lo && x < hi) ++linear;
      }
      ASSERT_EQ(PostingsView(&ef).CountInRange(lo, hi), linear)
          << "lo=" << lo << " hi=" << hi;
    }
  }
}

// --- SuccinctDocumentIndex: postings parity with the flat index -----------

TEST(SuccinctIndexTest, PostingsMatchFlatIndex) {
  const Document doc =
      xml::MakeRandomDocument(8000, {"a", "b", "c", "x", "y"}, 47);
  const auto& flat = doc.index();
  const auto& dense = doc.succinct_index();
  for (uint32_t name = 0; name < doc.name_count(); ++name) {
    const std::vector<NodeId>& fe = flat.ElementsNamed(name);
    const EliasFanoList& de = dense.ElementsNamed(name);
    ASSERT_EQ(de.size(), fe.size()) << "name=" << name;
    for (size_t k = 0; k < fe.size(); ++k) ASSERT_EQ(de.Get(k), fe[k]);
    const std::vector<NodeId>& fa = flat.AttributesNamed(name);
    const EliasFanoList& da = dense.AttributesNamed(name);
    ASSERT_EQ(da.size(), fa.size()) << "name=" << name;
    for (size_t k = 0; k < fa.size(); ++k) ASSERT_EQ(da.Get(k), fa[k]);
  }
  ASSERT_EQ(dense.all_elements().size(), flat.all_elements().size());
  ASSERT_EQ(dense.all_attributes().size(), flat.all_attributes().size());
}

// Both tiers hold postings only: 4 bytes per element or attribute on
// the hot tier, an Elias-Fano fraction of that on the dense one.
TEST(SuccinctIndexTest, UsesLessMemoryThanFlat) {
  const Document doc =
      xml::MakeRandomDocument(30000, {"a", "b", "c", "x", "y"}, 53);
  const double nodes = doc.size();
  const double hot = doc.index().MemoryUsageBytes();
  const double dense = doc.succinct_index().MemoryUsageBytes();
  EXPECT_LT(dense, hot);
  EXPECT_LT(hot / nodes, 8.0) << "hot bytes/node over " << nodes << " nodes";
  EXPECT_LT(dense / nodes, 1.0)
      << "dense bytes/node over " << nodes << " nodes";
}

}  // namespace
}  // namespace xpe
