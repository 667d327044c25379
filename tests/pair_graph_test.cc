#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "graph/pair_graph.h"
#include "util/parallel.h"

// Sanitizer allocators keep freed memory in quarantine, so RSS bounds only
// hold in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define POWER_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define POWER_TEST_SANITIZED 1
#endif
#endif

namespace power {
namespace {

std::vector<int> ToVec(std::span<const int> s) {
  return std::vector<int>(s.begin(), s.end());
}

// A small diamond: 0 -> {1, 2} -> 3, plus closure edge 0 -> 3.
PairGraph Diamond() {
  PairGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(0, 3);
  g.DedupEdges();
  return g;
}

TEST(PairGraphTest, EdgeAccounting) {
  PairGraph g = Diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(ToVec(g.children(0)), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ToVec(g.parents(3)), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(g.parents(0).empty());
  EXPECT_TRUE(g.children(3).empty());
}

TEST(PairGraphTest, DedupRemovesDuplicates) {
  PairGraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.num_edges(), 2u);
  g.DedupEdges();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(ToVec(g.children(0)), (std::vector<int>{1}));
}

// This process's resident set (VmRSS) in bytes; 0 if unreadable.
size_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) << 10;
  }
  return 0;
}

// A frozen graph must not keep its pending edge list: 6M copies of one edge
// are one 48 MB block, above glibc's 32 MB mmap ceiling, so freeing it
// returns the pages at once and shows in VmRSS.
TEST(PairGraphTest, FreezeReleasesThePendingEdgeList) {
#ifdef POWER_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators keep freed memory";
#endif
  ScopedNumThreads one(1);
  constexpr size_t kEdges = size_t{6} << 20;
  const size_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  PairGraph g(2);
  std::vector<std::vector<std::pair<int, int>>> chunks(1);
  chunks[0].assign(kEdges, {0, 1});
  g.AddEdgeChunks(std::move(chunks));
  EXPECT_EQ(g.num_edges(), kEdges);
  g.DedupEdges();
#if defined(__GLIBC__)
  malloc_trim(0);  // hand back freed heap pages, so only live blocks count
#endif
  const size_t after = ResidentBytes();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_LT(after, before + (size_t{16} << 20))
      << "VmRSS grew by " << ((after - before) >> 20) << " MB";
}

// The diamond's children in CSR form, every list ascending.
std::vector<int64_t> DiamondOffsets() { return {0, 3, 4, 5, 5}; }
std::vector<int> DiamondChildren() { return {1, 2, 3, 3, 3}; }

// Freezing from child lists gives the arrays the pending-edge freeze gives.
TEST(PairGraphTest, FreezeFromChildrenMatchesDedupEdges) {
  PairGraph g(4);
  g.FreezeFromChildren(DiamondOffsets(), DiamondChildren());
  const PairGraph want = Diamond();
  ASSERT_TRUE(g.frozen());
  EXPECT_EQ(g.num_edges(), want.num_edges());
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(ToVec(g.children(v)), ToVec(want.children(v))) << v;
    EXPECT_EQ(ToVec(g.parents(v)), ToVec(want.parents(v))) << v;
  }
  PairGraph empty(0);
  empty.FreezeFromChildren({0}, {});
  EXPECT_TRUE(empty.frozen());
  EXPECT_EQ(empty.num_edges(), 0u);
}

// The freeze checks what it adopts: each malformed input aborts, naming
// what is wrong.
TEST(PairGraphDeathTest, FreezeFromChildrenRefusesMalformedLists) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto freeze = [](std::vector<int64_t> offsets, std::vector<int> children) {
    PairGraph g(4);
    g.FreezeFromChildren(std::move(offsets), std::move(children));
  };
  // Offsets of the wrong size: one short, one over.
  EXPECT_DEATH(freeze({0, 3, 4, 5}, DiamondChildren()),
               "child offsets need num_vertices\\(\\) \\+ 1 entries");
  EXPECT_DEATH(freeze({0, 3, 4, 5, 5, 5}, DiamondChildren()),
               "child offsets need num_vertices\\(\\) \\+ 1 entries");
  // Offsets out of order, not starting at 0, or not ending at the count.
  EXPECT_DEATH(freeze({0, 4, 3, 5, 5}, DiamondChildren()),
               "child offsets must not decrease");
  EXPECT_DEATH(freeze({1, 3, 4, 5, 5}, DiamondChildren()),
               "child offsets must start at 0");
  EXPECT_DEATH(freeze({0, 3, 4, 5, 6}, DiamondChildren()),
               "the last child offset must equal the child edge count");
  // A target out of range, either side.
  EXPECT_DEATH(freeze(DiamondOffsets(), {1, 2, 4, 3, 3}),
               "child out of range");
  EXPECT_DEATH(freeze(DiamondOffsets(), {-1, 2, 3, 3, 3}),
               "child out of range");
  // A self-loop.
  EXPECT_DEATH(freeze(DiamondOffsets(), {1, 2, 3, 1, 3}), "self-loop");
  // A child list out of order, and one that repeats a target.
  EXPECT_DEATH(freeze(DiamondOffsets(), {2, 1, 3, 3, 3}),
               "a child list must be strictly ascending");
  EXPECT_DEATH(freeze(DiamondOffsets(), {1, 1, 3, 3, 3}),
               "a child list must be strictly ascending");
  // A graph that is frozen already, or holds pending edges.
  EXPECT_DEATH(
      {
        PairGraph g = Diamond();
        g.FreezeFromChildren(DiamondOffsets(), DiamondChildren());
      },
      "PairGraph is frozen");
  EXPECT_DEATH(
      {
        PairGraph g(4);
        g.AddEdge(0, 1);
        g.FreezeFromChildren(DiamondOffsets(), DiamondChildren());
      },
      "pending edges freeze through DedupEdges");
}

TEST(PairGraphTest, DescendantsAndAncestors) {
  PairGraph g = Diamond();
  EXPECT_EQ(g.Descendants(0), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(g.Descendants(1), (std::vector<int>{3}));
  EXPECT_TRUE(g.Descendants(3).empty());
  EXPECT_EQ(g.Ancestors(3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(g.Ancestors(1), (std::vector<int>{0}));
  EXPECT_TRUE(g.Ancestors(0).empty());
}

TEST(PairGraphTest, DescendantsFollowTransitiveChains) {
  PairGraph g(4);
  // Chain with only Hasse edges (no closure): reachability must still work.
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.DedupEdges();
  EXPECT_EQ(g.Descendants(0), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(g.Ancestors(3), (std::vector<int>{0, 1, 2}));
}

TEST(PairGraphTest, TopologicalLevelsDiamond) {
  PairGraph g = Diamond();
  auto levels = g.TopologicalLevels(std::vector<bool>(4, true));
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], (std::vector<int>{0}));
  EXPECT_EQ(levels[1], (std::vector<int>{1, 2}));
  EXPECT_EQ(levels[2], (std::vector<int>{3}));
}

TEST(PairGraphTest, TopologicalLevelsRespectActiveMask) {
  PairGraph g = Diamond();
  std::vector<bool> active = {false, true, true, true};
  auto levels = g.TopologicalLevels(active);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(levels[1], (std::vector<int>{3}));
}

TEST(PairGraphTest, TopologicalLevelsEmptyActiveSet) {
  PairGraph g = Diamond();
  EXPECT_TRUE(g.TopologicalLevels(std::vector<bool>(4, false)).empty());
}

TEST(PairGraphTest, IsAcyclic) {
  EXPECT_TRUE(Diamond().IsAcyclic());
  PairGraph cyclic(3);
  cyclic.AddEdge(0, 1);
  cyclic.AddEdge(1, 2);
  cyclic.AddEdge(2, 0);
  cyclic.DedupEdges();
  EXPECT_FALSE(cyclic.IsAcyclic());
}

TEST(PairGraphTest, IsolatedVerticesFormOneLevel) {
  PairGraph g(3);
  g.DedupEdges();
  auto levels = g.TopologicalLevels(std::vector<bool>(3, true));
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace power
