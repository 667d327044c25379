#include <algorithm>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "graph/builder.h"
#include "group/group.h"
#include "order/partial_order.h"
#include "util/parallel.h"
#include "util/rng.h"

// Sanitizer allocators keep freed memory in quarantine, so peak-RSS bounds
// only hold in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define POWER_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define POWER_TEST_SANITIZED 1
#endif
#endif

namespace power {
namespace {

std::set<std::pair<int, int>> EdgeSet(const PairGraph& g) {
  std::set<std::pair<int, int>> edges;
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    for (int c : g.children(static_cast<int>(v))) {
      edges.insert({static_cast<int>(v), c});
    }
  }
  return edges;
}

PackedRows RandomSims(uint64_t seed, size_t n, size_t m, int grid) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (auto& x : v) {
      x = static_cast<double>(rng.UniformIndex(grid + 1)) / grid;
    }
  }
  return PackRows(sims);
}

TEST(BruteForceBuilderTest, PaperExampleEdges) {
  PairGraph g = BuildPairGraph(BruteForceBuilder(), PaperExamplePairs());
  EXPECT_EQ(g.num_vertices(), 18u);
  EXPECT_TRUE(g.IsAcyclic());

  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };
  auto edges = EdgeSet(g);
  // From §3.1: p27 ≻ p34 and p27 ≻ p35.
  EXPECT_TRUE(edges.count({idx(2, 7), idx(3, 4)}));
  EXPECT_TRUE(edges.count({idx(2, 7), idx(3, 5)}));
  // p34 ⪰ p35 but not strictly (identical vectors): no edge either way.
  EXPECT_FALSE(edges.count({idx(3, 4), idx(3, 5)}));
  EXPECT_FALSE(edges.count({idx(3, 5), idx(3, 4)}));
  // Transitive-closure edge p67 -> p12 is materialized (Fig. 1 omits it only
  // for display).
  EXPECT_TRUE(edges.count({idx(6, 7), idx(1, 2)}));
  // From the coloring walk-through: p10,11's descendants are exactly
  // {p27, p26, p34, p35, p89, p37}.
  auto descendants = g.Descendants(idx(10, 11));
  std::vector<int> expected = {idx(2, 7), idx(2, 6), idx(3, 4),
                               idx(3, 5), idx(8, 9), idx(3, 7)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(descendants, expected);
  // And p56's ancestors are exactly {p46, p47, p57, p23, p45, p67, p13}.
  auto ancestors = g.Ancestors(idx(5, 6));
  expected = {idx(4, 6), idx(4, 7), idx(5, 7), idx(2, 3),
              idx(4, 5), idx(6, 7), idx(1, 3)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ancestors, expected);
}

TEST(BuildersTest, AllThreeAgreeOnPaperExample) {
  auto pairs = PaperExamplePairs();
  PairGraph brute = BuildPairGraph(BruteForceBuilder(), pairs);
  PairGraph quick = BuildPairGraph(QuickSortBuilder(123), pairs);
  PairGraph index = BuildPairGraph(RangeTreeBuilder(), pairs);
  EXPECT_EQ(EdgeSet(brute), EdgeSet(quick));
  EXPECT_EQ(EdgeSet(brute), EdgeSet(index));
}

struct BuilderCase {
  size_t n;
  size_t m;
  int grid;
  uint64_t seed;
};

// The discovered ctest name carries the printed parameter: print the
// fields, not gtest's dump of the struct's bytes.
void PrintTo(const BuilderCase& c, std::ostream* os) {
  *os << "n" << c.n << "_m" << c.m << "_grid" << c.grid << "_seed" << c.seed;
}

class BuilderEquivalence : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(BuilderEquivalence, QuickSortAndIndexMatchBruteForce) {
  const BuilderCase& c = GetParam();
  const PackedRows sims = RandomSims(c.seed, c.n, c.m, c.grid);
  PairGraph brute = BruteForceBuilder().Build(sims.rows());
  PairGraph quick = QuickSortBuilder(c.seed * 13 + 1).Build(sims.rows());
  PairGraph index = RangeTreeBuilder().Build(sims.rows());
  auto expected = EdgeSet(brute);
  EXPECT_EQ(EdgeSet(quick), expected);
  EXPECT_EQ(EdgeSet(index), expected);
  EXPECT_TRUE(brute.IsAcyclic());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BuilderEquivalence,
    ::testing::Values(BuilderCase{1, 1, 4, 1}, BuilderCase{2, 2, 1, 2},
                      BuilderCase{10, 2, 3, 3}, BuilderCase{50, 2, 4, 4},
                      BuilderCase{50, 3, 4, 5}, BuilderCase{80, 4, 3, 6},
                      BuilderCase{120, 4, 5, 7}, BuilderCase{60, 6, 2, 8},
                      BuilderCase{200, 3, 10, 9},
                      // Many duplicate vectors (grid=1 -> heavy ties).
                      BuilderCase{100, 3, 1, 10}));

TEST(BuildersTest, EdgesAreExactlyTheStrictDominanceRelation) {
  const PackedRows packed = RandomSims(99, 60, 3, 4);
  const SimilarityRows sims = packed.rows();
  PairGraph g = RangeTreeBuilder().Build(sims);
  for (size_t a = 0; a < sims.n; ++a) {
    std::set<int> children(g.children(static_cast<int>(a)).begin(),
                           g.children(static_cast<int>(a)).end());
    for (size_t b = 0; b < sims.n; ++b) {
      if (a == b) continue;
      EXPECT_EQ(children.count(static_cast<int>(b)) > 0,
                StrictlyDominates(sims.row(a), sims.row(b)))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(BuildersTest, EmptyInput) {
  const SimilarityRows empty;
  EXPECT_EQ(BruteForceBuilder().Build(empty).num_vertices(), 0u);
  EXPECT_EQ(QuickSortBuilder().Build(empty).num_vertices(), 0u);
  EXPECT_EQ(RangeTreeBuilder().Build(empty).num_vertices(), 0u);
}

TEST(BuildersTest, AllEqualVectorsYieldNoEdges) {
  const PackedRows packed =
      PackRows(std::vector<std::vector<double>>(20, {0.5, 0.5}));
  const SimilarityRows sims = packed.rows();
  EXPECT_EQ(BruteForceBuilder().Build(sims).num_edges(), 0u);
  EXPECT_EQ(QuickSortBuilder().Build(sims).num_edges(), 0u);
  EXPECT_EQ(RangeTreeBuilder().Build(sims).num_edges(), 0u);
}

TEST(BuildersTest, TotalOrderChainYieldsCompleteDag) {
  std::vector<std::vector<double>> chain;
  for (int i = 0; i < 10; ++i) {
    chain.push_back({i / 10.0, i / 10.0});
  }
  const PackedRows packed = PackRows(chain);
  const SimilarityRows sims = packed.rows();
  PairGraph g = BruteForceBuilder().Build(sims);
  EXPECT_EQ(g.num_edges(), 45u);  // n*(n-1)/2 closure edges
  PairGraph q = QuickSortBuilder().Build(sims);
  EXPECT_EQ(q.num_edges(), 45u);
  PairGraph r = RangeTreeBuilder().Build(sims);
  EXPECT_EQ(r.num_edges(), 45u);
}

TEST(RangeTreeBuilderTest, ExplicitDimensionsStillCorrect) {
  const PackedRows packed = RandomSims(123, 40, 4, 3);
  const SimilarityRows sims = packed.rows();
  auto expected = EdgeSet(BruteForceBuilder().Build(sims));
  for (int d1 = 0; d1 < 4; ++d1) {
    for (int d2 = 0; d2 < 4; ++d2) {
      PairGraph g = RangeTreeBuilder(d1, d2).Build(sims);
      EXPECT_EQ(EdgeSet(g), expected) << "d1=" << d1 << " d2=" << d2;
    }
  }
}

// This process's peak resident set (VmHWM) in bytes; 0 if unreadable.
size_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6)) << 10;
  }
  return 0;
}

// On an antichain every pivot leaves all other vertices incomparable. The
// builder must loop on that set instead of recursing into it while each
// level's arrays stay alive: 8k (t, 1 - t) vectors used to pin ~275 MB.
TEST(QuickSortBuilderTest, AntichainBuildsInLinearMemory) {
#ifdef POWER_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators keep freed memory";
#endif
  constexpr size_t kN = 8192;
  std::vector<double> values;
  values.reserve(2 * kN);
  for (size_t v = 0; v < kN; ++v) {
    const double t = (static_cast<double>(v) + 0.5) / kN;  // exact dyadic
    values.push_back(t);
    values.push_back(1.0 - t);
  }
  std::vector<uint32_t> index(kN);  // every row distinct
  std::iota(index.begin(), index.end(), 0u);
  ScopedNumThreads one(1);
  const size_t before = PeakRssBytes();
  ASSERT_GT(before, 0u);
  PairGraph g =
      QuickSortBuilder().Build({values.data(), index.data(), kN, 2, kN});
  const size_t growth = PeakRssBytes() - before;
  EXPECT_EQ(g.num_vertices(), kN);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_LT(growth, size_t{32} << 20) << "peak RSS grew by " << (growth >> 20)
                                      << " MB";
}

}  // namespace
}  // namespace power
