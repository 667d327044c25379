#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "eval/boundary.h"
#include "graph/builder.h"

namespace power {
namespace {

PairGraph ClosedChain(int n) {
  PairGraph g(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) g.AddEdge(a, b);
  }
  g.DedupEdges();
  return g;
}

TEST(BoundaryTest, ChainHasTwoBoundaryVertices) {
  // GREEN prefix of 3, RED suffix of 3: the last GREEN and the first RED
  // are the boundary (Definition 9's cases 1/2).
  PairGraph g = ClosedChain(6);
  std::vector<bool> green = {true, true, true, false, false, false};
  EXPECT_EQ(BoundaryVertices(g, green), (std::vector<int>{2, 3}));
}

TEST(BoundaryTest, AllGreenChainHasOneBoundary) {
  // Only the sink is a boundary vertex (case 3: no child and GREEN).
  PairGraph g = ClosedChain(5);
  std::vector<bool> green(5, true);
  EXPECT_EQ(BoundaryVertices(g, green), (std::vector<int>{4}));
}

TEST(BoundaryTest, AllRedChainHasOneBoundary) {
  // Only the source (case 4: no parent and RED).
  PairGraph g = ClosedChain(5);
  std::vector<bool> green(5, false);
  EXPECT_EQ(BoundaryVertices(g, green), (std::vector<int>{0}));
}

TEST(BoundaryTest, AntichainIsAllBoundary) {
  PairGraph g(4);
  g.DedupEdges();
  std::vector<bool> green = {true, false, true, false};
  EXPECT_EQ(CountBoundaryVertices(g, green), 4u);
}

TEST(BoundaryTest, PaperExampleLowerBoundIsFour) {
  // §3.2: "we need to ask at least 4 questions (e.g., p12, p10,11, p25,
  // p56) to color all vertices" — the boundary-vertex count on the
  // ungrouped graph is exactly that lower bound.
  Table table = PaperExampleTable();
  auto pairs = PaperExamplePairs();
  PairGraph g = BuildPairGraph(BruteForceBuilder(), pairs);
  std::vector<bool> green(pairs.size());
  for (size_t v = 0; v < pairs.size(); ++v) {
    green[v] = table.record(pairs[v].i).entity_id ==
               table.record(pairs[v].j).entity_id;
  }
  EXPECT_EQ(CountBoundaryVertices(g, green), 4u);
}

TEST(BoundaryTest, EveryAlgorithmAsksAtLeastTheBoundaryCount) {
  // Sanity link to §5.1's argument: SinglePath with a perfect oracle on the
  // paper example asks >= the boundary-vertex count.
  Table table = PaperExampleTable();
  auto pairs = PaperExamplePairs();
  PairGraph g = BuildPairGraph(BruteForceBuilder(), pairs);
  std::vector<bool> green(pairs.size());
  for (size_t v = 0; v < pairs.size(); ++v) {
    green[v] = table.record(pairs[v].i).entity_id ==
               table.record(pairs[v].j).entity_id;
  }
  size_t bound = CountBoundaryVertices(g, green);
  // (The SinglePath question count on this graph is verified to be in
  // [4, 7] by selectors_test; here we only tie it to the bound's value.)
  EXPECT_GE(7u, bound);
  EXPECT_EQ(bound, 4u);
}

}  // namespace
}  // namespace power
