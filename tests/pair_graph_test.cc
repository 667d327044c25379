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
