#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "graph/builder.h"
#include "graph/coloring.h"
#include "util/rng.h"

namespace power {
namespace {

// Chain 0 -> 1 -> 2 -> 3 with full closure edges, like the builders emit.
PairGraph Chain4() {
  PairGraph g(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) g.AddEdge(a, b);
  }
  g.DedupEdges();
  return g;
}

TEST(ColoringTest, StartsUncolored) {
  PairGraph g = Chain4();
  ColoringState state(&g);
  EXPECT_EQ(state.num_uncolored(), 4u);
  EXPECT_FALSE(state.AllColored());
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(state.color(v), Color::kUncolored);
    EXPECT_FALSE(state.asked(v));
  }
}

TEST(ColoringTest, GreenPropagatesToAncestors) {
  PairGraph g = Chain4();
  ColoringState state(&g);
  state.ApplyAnswer(2, /*match=*/true);
  EXPECT_EQ(state.color(2), Color::kGreen);
  EXPECT_EQ(state.color(1), Color::kGreen);
  EXPECT_EQ(state.color(0), Color::kGreen);
  EXPECT_EQ(state.color(3), Color::kUncolored);
  EXPECT_TRUE(state.asked(2));
  EXPECT_FALSE(state.asked(1));
}

TEST(ColoringTest, RedPropagatesToDescendants) {
  PairGraph g = Chain4();
  ColoringState state(&g);
  state.ApplyAnswer(1, /*match=*/false);
  EXPECT_EQ(state.color(1), Color::kRed);
  EXPECT_EQ(state.color(2), Color::kRed);
  EXPECT_EQ(state.color(3), Color::kRed);
  EXPECT_EQ(state.color(0), Color::kUncolored);
}

TEST(ColoringTest, ChainBoundaryColorsEverything) {
  PairGraph g = Chain4();
  ColoringState state(&g);
  state.ApplyAnswer(1, true);
  state.ApplyAnswer(2, false);
  EXPECT_TRUE(state.AllColored());
  EXPECT_EQ(state.num_green(), 2u);
  EXPECT_EQ(state.num_red(), 2u);
}

TEST(ColoringTest, NoPropagateFlag) {
  PairGraph g = Chain4();
  ColoringState state(&g);
  state.ApplyAnswer(2, true, /*propagate=*/false);
  EXPECT_EQ(state.color(2), Color::kGreen);
  EXPECT_EQ(state.color(1), Color::kUncolored);
  EXPECT_EQ(state.color(0), Color::kUncolored);
}

TEST(ColoringTest, DirectAnswerOverridesDeduction) {
  PairGraph g = Chain4();
  ColoringState state(&g);
  state.ApplyAnswer(3, true);  // deduces everyone GREEN
  EXPECT_EQ(state.color(1), Color::kGreen);
  // A direct NO on vertex 1 sticks even though a deduction said GREEN.
  state.ApplyAnswer(1, false);
  EXPECT_EQ(state.color(1), Color::kRed);
  // ...and its descendants collect a RED vote: vertex 2 now has 1 green +
  // 1 red vote -> conflict tie -> uncolored again.
  EXPECT_EQ(state.color(2), Color::kUncolored);
}

TEST(ColoringTest, ConflictMajorityWins) {
  // Two parents of one child: both say RED -> child RED even after one
  // GREEN deduction from below is impossible here, so build a W shape:
  // parents 0,1 -> child 2; child 2 -> descendant 3.
  PairGraph g(4);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(0, 3);
  g.AddEdge(1, 3);
  g.DedupEdges();
  ColoringState state(&g);
  state.ApplyAnswer(0, false);  // RED vote on 2 and 3
  state.ApplyAnswer(3, true);   // GREEN vote on 2 (ancestors of 3: 0,1,2)
  // Vertex 2: one RED vote + one GREEN vote -> tie -> uncolored.
  EXPECT_EQ(state.color(2), Color::kUncolored);
  state.ApplyAnswer(1, false);  // second RED vote on 2
  EXPECT_EQ(state.color(2), Color::kRed);
}

TEST(ColoringTest, BlueNeverPropagates) {
  PairGraph g = Chain4();
  ColoringState state(&g);
  state.MarkBlue(1);
  EXPECT_EQ(state.color(1), Color::kBlue);
  EXPECT_TRUE(state.asked(1));
  EXPECT_EQ(state.color(0), Color::kUncolored);
  EXPECT_EQ(state.color(2), Color::kUncolored);
  EXPECT_EQ(state.num_blue(), 1u);
  // BLUE counts as settled for the loop.
  EXPECT_EQ(state.num_uncolored(), 3u);
}

TEST(ColoringTest, UncoloredVerticesList) {
  PairGraph g = Chain4();
  ColoringState state(&g);
  // Asking the sink RED colors only the sink; the rest stay open.
  state.ApplyAnswer(3, false);
  EXPECT_EQ(state.UncoloredVertices(), (std::vector<int>{0, 1, 2}));
  // Asking the source RED colors everything.
  state.ApplyAnswer(0, false);
  EXPECT_TRUE(state.UncoloredVertices().empty());
  EXPECT_TRUE(state.AllColored());
}

TEST(ColoringTest, PaperWalkthroughFigure1) {
  // "if we first ask p10,11 ... color p10,11 and its descendants p27, p26,
  // p34, p35, p89 and p37 RED ... Then if we select p56 ... color p56 and
  // its ancestors p46, p47, p57, p23, p45, p67 and p13 GREEN."
  auto pairs = PaperExamplePairs();
  PairGraph g = BuildPairGraph(BruteForceBuilder(), pairs);
  ColoringState state(&g);
  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };

  state.ApplyAnswer(idx(10, 11), false);
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {10, 11}, {2, 7}, {2, 6}, {3, 4}, {3, 5}, {8, 9}, {3, 7}}) {
    EXPECT_EQ(state.color(idx(a, b)), Color::kRed) << a << "," << b;
  }
  state.ApplyAnswer(idx(5, 6), true);
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {5, 6}, {4, 6}, {4, 7}, {5, 7}, {2, 3}, {4, 5}, {6, 7}, {1, 3}}) {
    EXPECT_EQ(state.color(idx(a, b)), Color::kGreen) << a << "," << b;
  }
  // Remaining uncolored: p12, p24, p25.
  EXPECT_EQ(state.num_uncolored(), 3u);
  EXPECT_EQ(state.color(idx(1, 2)), Color::kUncolored);
  EXPECT_EQ(state.color(idx(2, 4)), Color::kUncolored);
  EXPECT_EQ(state.color(idx(2, 5)), Color::kUncolored);
}

// Satellite check for the incremental counters: after every mutation the
// O(1) counters and the uncolored bitset must agree with a full scan of
// color(v). The random-DAG answer sequence is chosen so that conflict ties
// revert deduced vertices back to UNCOLORED (the §5.3.1 rule), exercising
// the colored -> uncolored transition that a naive "colored count only goes
// up" implementation would get wrong.
TEST(ColoringTest, IncrementalCountersMatchScanUnderRandomAnswers) {
  constexpr int kN = 120;
  Rng rng(2024);
  // Random layered DAG closed under transitivity (edges only go up in index,
  // so it is acyclic by construction).
  PairGraph g(kN);
  std::vector<std::vector<char>> reach(kN, std::vector<char>(kN, 0));
  for (int a = 0; a < kN; ++a) {
    for (int b = a + 1; b < kN; ++b) {
      if (rng.Bernoulli(0.08)) reach[a][b] = 1;
    }
  }
  // Transitive closure (the builders emit the full dominance relation).
  for (int m = 0; m < kN; ++m) {
    for (int a = 0; a < kN; ++a) {
      if (!reach[a][m]) continue;
      for (int b = m + 1; b < kN; ++b) {
        if (reach[m][b]) reach[a][b] = 1;
      }
    }
  }
  for (int a = 0; a < kN; ++a) {
    for (int b = a + 1; b < kN; ++b) {
      if (reach[a][b]) g.AddEdge(a, b);
    }
  }
  g.DedupEdges();

  ColoringState state(&g);
  auto check_against_scan = [&state]() {
    size_t scan[4] = {0, 0, 0, 0};
    std::vector<int> scan_uncolored;
    for (int v = 0; v < kN; ++v) {
      ++scan[static_cast<size_t>(state.color(v))];
      if (state.color(v) == Color::kUncolored) scan_uncolored.push_back(v);
    }
    ASSERT_EQ(state.num_uncolored(), scan[0]);
    ASSERT_EQ(state.num_green(), scan[1]);
    ASSERT_EQ(state.num_red(), scan[2]);
    ASSERT_EQ(state.num_blue(), scan[3]);
    ASSERT_EQ(state.AllColored(), scan[0] == 0);
    ASSERT_EQ(state.UncoloredVertices(), scan_uncolored);
    std::vector<bool> mask;
    state.FillUncoloredMask(&mask);
    ASSERT_EQ(mask.size(), static_cast<size_t>(kN));
    for (int v = 0; v < kN; ++v) {
      ASSERT_EQ(mask[v], state.IsUncolored(v)) << v;
    }
  };

  bool saw_tie_revert = false;
  size_t journal_before = 0;
  for (int step = 0; step < 300; ++step) {
    int v = static_cast<int>(rng.UniformIndex(kN));
    size_t uncolored_before = state.num_uncolored();
    std::vector<Color> colors_before;
    for (int u = 0; u < kN; ++u) colors_before.push_back(state.color(u));
    int action = rng.UniformInt(0, 9);
    if (action < 8) {
      // Alternating YES/NO on random vertices produces vote conflicts.
      state.ApplyAnswer(v, rng.Bernoulli(0.5));
    } else {
      state.MarkBlue(v);
    }
    check_against_scan();
    for (int u = 0; u < kN; ++u) {
      if (colors_before[u] != Color::kUncolored && state.IsUncolored(u)) {
        saw_tie_revert = true;  // a conflict tie reopened a deduced vertex
      }
    }
    // The journal must record exactly the vertices whose color changed
    // (possibly with repeats from intermediate propagation states).
    const auto& journal = state.color_journal();
    std::vector<bool> touched(kN, false);
    for (size_t j = journal_before; j < journal.size(); ++j) {
      touched[journal[j]] = true;
    }
    for (int u = 0; u < kN; ++u) {
      if (colors_before[u] != state.color(u)) {
        ASSERT_TRUE(touched[u]) << "missing journal entry for " << u;
      }
    }
    journal_before = journal.size();
    (void)uncolored_before;
  }
  EXPECT_TRUE(saw_tie_revert)
      << "sequence never exercised the tie -> UNCOLORED transition";
}

TEST(ColorNameTest, AllNamesDistinct) {
  EXPECT_STREQ(ColorName(Color::kGreen), "green");
  EXPECT_STREQ(ColorName(Color::kRed), "red");
  EXPECT_STREQ(ColorName(Color::kBlue), "blue");
  EXPECT_STREQ(ColorName(Color::kUncolored), "uncolored");
}

}  // namespace
}  // namespace power
