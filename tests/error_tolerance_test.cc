#include <map>

#include <gtest/gtest.h>

#include "core/error_tolerance.h"
#include "data/paper_example.h"
#include "group/grouped_graph.h"
#include "group/split_grouper.h"
#include "sim/similarity_matrix.h"

namespace power {
namespace {

// Reproduces the paper's §6 / Appendix C scenario: all groups are colored
// except the ones holding p12 and {p24, p25}, which got low-confidence
// answers (BLUE). The histogram pass must color p12 GREEN and p24/p25 RED.
TEST(ErrorToleranceTest, PaperAppendixCScenario) {
  auto pairs = PaperExamplePairs();
  const SimilarityTable packed = PackSimilarPairs(pairs);
  const SimilarityRows sims = packed.rows();
  Table table = PaperExampleTable();

  auto groups = SplitGrouper().Group(sims, 0.1);
  GroupedGraph gg = BuildGroupedGraph(groups);
  ColoringState state(&gg.graph);

  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };
  int blue12 = -1;
  int blue2425 = -1;
  for (size_t g = 0; g < gg.groups.size(); ++g) {
    const auto& members = gg.groups[g].members;
    bool has12 = false;
    bool has24 = false;
    bool truth = table.record(pairs[members[0]].i).entity_id ==
                 table.record(pairs[members[0]].j).entity_id;
    for (int v : members) {
      if (v == idx(1, 2)) has12 = true;
      if (v == idx(2, 4)) has24 = true;
    }
    if (has12) {
      blue12 = static_cast<int>(g);
      state.MarkBlue(blue12);
    } else if (has24) {
      blue2425 = static_cast<int>(g);
      state.MarkBlue(blue2425);
    } else {
      state.ApplyAnswer(static_cast<int>(g), truth, /*propagate=*/false);
    }
  }
  ASSERT_NE(blue12, -1);
  ASSERT_NE(blue2425, -1);

  ErrorToleranceConfig config;
  config.num_histograms = 5;  // the worked example uses width-0.2 bins
  auto resolution = ResolveBlueVertices(gg, state, sims, config);

  std::map<int, Color> resolved;
  for (const auto& [v, c] : resolution) resolved[v] = c;
  ASSERT_EQ(resolved.size(), 3u);
  EXPECT_EQ(resolved.at(idx(1, 2)), Color::kGreen);
  EXPECT_EQ(resolved.at(idx(2, 4)), Color::kRed);
  EXPECT_EQ(resolved.at(idx(2, 5)), Color::kRed);
}

TEST(ErrorToleranceTest, TwentyHistogramsAlsoResolveCorrectly) {
  auto pairs = PaperExamplePairs();
  const SimilarityTable packed = PackSimilarPairs(pairs);
  const SimilarityRows sims = packed.rows();
  Table table = PaperExampleTable();

  GroupedGraph gg = BuildGroupedGraph(SplitGrouper().Group(sims, 0.1));
  ColoringState state(&gg.graph);
  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };

  for (size_t g = 0; g < gg.groups.size(); ++g) {
    const auto& members = gg.groups[g].members;
    bool is_blue = false;
    for (int v : members) {
      if (v == idx(1, 2) || v == idx(2, 4)) is_blue = true;
    }
    if (is_blue) {
      state.MarkBlue(static_cast<int>(g));
    } else {
      bool truth = table.record(pairs[members[0]].i).entity_id ==
                   table.record(pairs[members[0]].j).entity_id;
      state.ApplyAnswer(static_cast<int>(g), truth, false);
    }
  }
  ErrorToleranceConfig config;  // default: 20 equi-width bins
  auto resolution = ResolveBlueVertices(gg, state, sims, config);
  std::map<int, Color> resolved;
  for (const auto& [v, c] : resolution) resolved[v] = c;
  EXPECT_EQ(resolved.at(idx(1, 2)), Color::kGreen);
  EXPECT_EQ(resolved.at(idx(2, 4)), Color::kRed);
}

TEST(ErrorToleranceTest, EquiDepthVariantResolves) {
  auto pairs = PaperExamplePairs();
  const SimilarityTable packed = PackSimilarPairs(pairs);
  const SimilarityRows sims = packed.rows();
  Table table = PaperExampleTable();

  GroupedGraph gg = BuildGroupedGraph(SplitGrouper().Group(sims, 0.1));
  ColoringState state(&gg.graph);
  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };
  for (size_t g = 0; g < gg.groups.size(); ++g) {
    const auto& members = gg.groups[g].members;
    bool is_blue = false;
    for (int v : members) {
      if (v == idx(1, 2)) is_blue = true;
    }
    if (is_blue) {
      state.MarkBlue(static_cast<int>(g));
    } else {
      bool truth = table.record(pairs[members[0]].i).entity_id ==
                   table.record(pairs[members[0]].j).entity_id;
      state.ApplyAnswer(static_cast<int>(g), truth, false);
    }
  }
  ErrorToleranceConfig config;
  config.equi_depth = true;
  config.num_histograms = 5;
  auto resolution = ResolveBlueVertices(gg, state, sims, config);
  ASSERT_EQ(resolution.size(), 1u);
  EXPECT_EQ(resolution[0].first, idx(1, 2));
  EXPECT_EQ(resolution[0].second, Color::kGreen);
}

// Exactly the members of BLUE and uncolored groups are resolved, once each
// and in group order, under both histogram kinds.
TEST(ErrorToleranceTest, ResolvesExactlyTheBlueAndUncoloredMembers) {
  std::vector<std::vector<double>> nested;
  for (int v = 0; v < 90; ++v) {
    nested.push_back({(v % 10) / 9.0, (v * 7 % 11) / 10.0, (v % 4) / 3.0});
  }
  const PackedRows packed = PackRows(nested);
  GroupedGraph gg =
      BuildGroupedGraph(SplitGrouper().Group(packed.rows(), 0.2));
  ColoringState state(&gg.graph);
  // GREEN, RED and BLUE groups in turn; the rest stay uncolored.
  std::vector<int> unresolved;
  for (size_t g = 0; g < gg.groups.size(); ++g) {
    const int v = static_cast<int>(g);
    switch (g % 4) {
      case 0:
        state.ApplyAnswer(v, true, /*propagate=*/false);
        continue;
      case 1:
        state.ApplyAnswer(v, false, /*propagate=*/false);
        continue;
      case 2:
        state.MarkBlue(v);
        break;
    }
    const std::vector<int>& members = gg.groups[g].members;
    unresolved.insert(unresolved.end(), members.begin(), members.end());
  }
  ASSERT_FALSE(unresolved.empty());
  for (bool equi_depth : {false, true}) {
    ErrorToleranceConfig config;
    config.equi_depth = equi_depth;
    std::vector<int> resolved;
    for (const auto& [v, c] :
         ResolveBlueVertices(gg, state, packed.rows(), config)) {
      resolved.push_back(v);
      EXPECT_TRUE(c == Color::kGreen || c == Color::kRed);
    }
    EXPECT_EQ(resolved, unresolved) << "equi_depth=" << equi_depth;
  }
}

TEST(ErrorToleranceTest, NoBlueGroupsYieldsEmptyResolution) {
  const PackedRows packed = PackRows({{0.9, 0.9}, {0.1, 0.1}});
  const SimilarityRows sims = packed.rows();
  GroupedGraph gg = BuildGroupedGraph(SingletonGroups(sims));
  ColoringState state(&gg.graph);
  state.ApplyAnswer(0, true);
  state.ApplyAnswer(1, false);
  EXPECT_TRUE(ResolveBlueVertices(gg, state, sims, {}).empty());
}

TEST(ErrorToleranceTest, AllBlueFallsBackToPrior) {
  // With zero labeled evidence the prior Pr(s) = s decides.
  const PackedRows packed = PackRows({{0.9, 0.9}, {0.1, 0.1}});
  const SimilarityRows sims = packed.rows();
  GroupedGraph gg = BuildGroupedGraph(SingletonGroups(sims));
  ColoringState state(&gg.graph);
  state.MarkBlue(0);
  state.MarkBlue(1);
  auto resolution = ResolveBlueVertices(gg, state, sims, {});
  ASSERT_EQ(resolution.size(), 2u);
  std::map<int, Color> resolved;
  for (const auto& [v, c] : resolution) resolved[v] = c;
  EXPECT_EQ(resolved.at(0), Color::kGreen);
  EXPECT_EQ(resolved.at(1), Color::kRed);
}

}  // namespace
}  // namespace power
