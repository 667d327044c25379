#include <algorithm>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"

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

TEST(GraphStatsTest, ChainStatistics) {
  PairGraph g = ClosedChain(5);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.vertices, 5u);
  EXPECT_EQ(s.edges, 10u);  // full closure
  EXPECT_DOUBLE_EQ(s.comparable_fraction, 1.0);
  EXPECT_EQ(s.height, 5u);
  EXPECT_EQ(s.width, 1u);
  EXPECT_EQ(s.sources, 1u);
  EXPECT_EQ(s.sinks, 1u);
}

TEST(GraphStatsTest, AntichainStatistics) {
  PairGraph g(4);
  g.DedupEdges();
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.edges, 0u);
  EXPECT_DOUBLE_EQ(s.comparable_fraction, 0.0);
  EXPECT_EQ(s.height, 1u);
  EXPECT_EQ(s.width, 4u);
  EXPECT_EQ(s.sources, 4u);
  EXPECT_EQ(s.sinks, 4u);
}

TEST(GraphStatsTest, EmptyGraph) {
  PairGraph g;
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.vertices, 0u);
  EXPECT_EQ(s.height, 0u);
}

TEST(TransitiveReductionTest, ChainReducesToSuccessorEdges) {
  PairGraph g = ClosedChain(5);
  auto reduced = TransitiveReduction(g);
  std::sort(reduced.begin(), reduced.end());
  std::vector<std::pair<int, int>> expected = {{0, 1}, {1, 2}, {2, 3},
                                               {3, 4}};
  EXPECT_EQ(reduced, expected);
}

TEST(TransitiveReductionTest, DiamondKeepsFourEdges) {
  PairGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(0, 3);  // closure edge, must be dropped
  g.DedupEdges();
  auto reduced = TransitiveReduction(g);
  std::sort(reduced.begin(), reduced.end());
  std::vector<std::pair<int, int>> expected = {{0, 1}, {0, 2}, {1, 3},
                                               {2, 3}};
  EXPECT_EQ(reduced, expected);
}

TEST(TransitiveReductionTest, PaperExampleMatchesFigure1Containments) {
  // Fig. 1 omits the p67 -> p12 edge "as there is already a path": the
  // reduction must therefore not contain it, while reachability holds.
  auto pairs = PaperExamplePairs();
  PairGraph g = BuildPairGraph(BruteForceBuilder(), pairs);
  auto reduced = TransitiveReduction(g);
  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };
  bool direct_67_12 = false;
  for (const auto& [u, v] : reduced) {
    if (u == idx(6, 7) && v == idx(1, 2)) direct_67_12 = true;
  }
  EXPECT_FALSE(direct_67_12);
  EXPECT_LT(reduced.size(), g.num_edges());
  // p67 still reaches p12 through the graph.
  auto desc = g.Descendants(idx(6, 7));
  EXPECT_TRUE(std::find(desc.begin(), desc.end(), idx(1, 2)) != desc.end());
}

TEST(GraphStatsTest, PaperExampleComparability) {
  auto pairs = PaperExamplePairs();
  PairGraph g = BuildPairGraph(BruteForceBuilder(), pairs);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.vertices, 18u);
  EXPECT_GT(s.comparable_fraction, 0.1);
  EXPECT_LT(s.comparable_fraction, 0.9);
  EXPECT_GE(s.width, 4u);  // at least the 4 boundary vertices
}

TEST(ToDotTest, RendersLabelsAndEdges) {
  PairGraph g(2);
  g.AddEdge(0, 1);
  g.DedupEdges();
  std::string dot = ToDot(g, {"p12", "p34"});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("p12"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  // Default labels are indices.
  std::string plain = ToDot(g);
  EXPECT_NE(plain.find("label=\"1\""), std::string::npos);
}

}  // namespace
}  // namespace power
