#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "graph/builder.h"
#include "group/grouped_graph.h"
#include "group/split_grouper.h"
#include "order/partial_order.h"
#include "sim/similarity_matrix.h"

namespace power {
namespace {

// The paper example's 18 similarity vectors as rows.
SimilarityRows PaperSims() {
  static const SimilarityTable table = PackSimilarPairs(PaperExamplePairs());
  return table.rows();
}

TEST(GroupedGraphTest, SingletonGroupsRecoverBaseGraph) {
  auto sims = PaperSims();
  GroupedGraph gg = BuildUngrouped(BruteForceBuilder(), sims);
  ASSERT_EQ(gg.groups.size(), sims.n);
  for (size_t v = 0; v < sims.n; ++v) {
    EXPECT_EQ(gg.groups[v].members, (std::vector<int>{static_cast<int>(v)}));
  }
  PairGraph direct = BruteForceBuilder().Build(sims);
  EXPECT_EQ(gg.graph.num_edges(), direct.num_edges());
}

TEST(GroupedGraphTest, GroupEdgesFollowIntervalDominance) {
  auto sims = PaperSims();
  auto groups = SplitGrouper().Group(sims, 0.1);
  GroupedGraph gg = BuildGroupedGraph(groups);
  ASSERT_EQ(gg.groups.size(), groups.size());
  for (size_t a = 0; a < groups.size(); ++a) {
    std::set<int> children(gg.graph.children(static_cast<int>(a)).begin(),
                           gg.graph.children(static_cast<int>(a)).end());
    for (size_t b = 0; b < groups.size(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(children.count(static_cast<int>(b)) > 0,
                GroupStrictlyDominates(groups[a].lower, groups[b].upper));
    }
  }
}

TEST(GroupedGraphTest, GroupDominanceImpliesAllMemberPairsDominate) {
  auto sims = PaperSims();
  auto groups = SplitGrouper().Group(sims, 0.1);
  GroupedGraph gg = BuildGroupedGraph(groups);
  for (size_t a = 0; a < gg.groups.size(); ++a) {
    for (int b : gg.graph.children(static_cast<int>(a))) {
      for (int va : gg.groups[a].members) {
        for (int vb : gg.groups[b].members) {
          EXPECT_TRUE(StrictlyDominates(sims.row(va), sims.row(vb)))
              << "group " << a << " member " << va << " vs group " << b
              << " member " << vb;
        }
      }
    }
  }
}

TEST(GroupedGraphTest, GraphIsAcyclicAndTransitivelyClosed) {
  auto sims = PaperSims();
  GroupedGraph gg = BuildGroupedGraph(SplitGrouper().Group(sims, 0.1));
  EXPECT_TRUE(gg.graph.IsAcyclic());
  // Closure: child-of-child is a direct child.
  for (size_t a = 0; a < gg.groups.size(); ++a) {
    std::set<int> direct(gg.graph.children(static_cast<int>(a)).begin(),
                         gg.graph.children(static_cast<int>(a)).end());
    for (int b : direct) {
      for (int c : gg.graph.children(b)) {
        EXPECT_TRUE(direct.count(c)) << a << "->" << b << "->" << c;
      }
    }
  }
}

TEST(GroupedGraphTest, GroupingShrinksGraph) {
  auto sims = PaperSims();
  GroupedGraph ungrouped = BuildUngrouped(BruteForceBuilder(), sims);
  GroupedGraph grouped = BuildGroupedGraph(SplitGrouper().Group(sims, 0.1));
  EXPECT_LT(grouped.groups.size(), ungrouped.groups.size());
  EXPECT_EQ(grouped.groups.size(), 9u);
}

// Every group's bounds must be one width and never NaN: the build sorts
// them, and a NaN would break the sort's order.
TEST(GroupedGraphDeathTest, RefusesNaNBoundsAndMixedWidths) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto groups = SplitGrouper().Group(PaperSims(), 0.1);
  ASSERT_GT(groups.size(), 2u);
  std::vector<VertexGroup> nan_bound = groups;
  nan_bound[1].upper[0] = std::nan("");
  EXPECT_DEATH(BuildGroupedGraph(nan_bound), "group bounds must not be NaN");
  std::vector<VertexGroup> mixed = groups;
  mixed[2].lower.push_back(0.5);
  mixed[2].upper.push_back(0.5);
  EXPECT_DEATH(BuildGroupedGraph(mixed),
               "every group needs bounds of one width");
}

TEST(GroupedGraphTest, EmptyGroups) {
  GroupedGraph gg = BuildGroupedGraph({});
  EXPECT_EQ(gg.graph.num_vertices(), 0u);
  EXPECT_EQ(gg.groups.size(), 0u);
}

}  // namespace
}  // namespace power
