#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "graph/builder.h"
#include "group/group.h"
#include "select/selector.h"
#include "util/rng.h"

namespace power {
namespace {

struct LoopResult {
  size_t questions = 0;
  size_t iterations = 0;
};

// Drives a selector against a perfect oracle given per-vertex ground truth.
LoopResult RunLoop(QuestionSelector* selector,
                   const std::function<bool(int)>& truth,
                   ColoringState* state) {
  LoopResult result;
  while (!state->AllColored()) {
    auto batch = selector->NextBatch(*state);
    EXPECT_FALSE(batch.empty());
    if (batch.empty()) break;
    ++result.iterations;
    for (int v : batch) {
      // Batches are posted simultaneously: a vertex stays asked even if an
      // earlier answer in the same batch just deduced its color.
      state->ApplyAnswer(v, truth(v));
      ++result.questions;
    }
  }
  return result;
}

PairGraph ClosedChain(int n) {
  PairGraph g(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) g.AddEdge(a, b);
  }
  g.DedupEdges();
  return g;
}

// Truth on a chain: the first `green_prefix` vertices are matches. This is
// consistent with the partial order (ancestors of a GREEN are GREEN).
std::function<bool(int)> ChainTruth(int green_prefix) {
  return [green_prefix](int v) { return v < green_prefix; };
}

void ExpectChainColoredCorrectly(const ColoringState& state, int n,
                                 int green_prefix) {
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(state.color(v),
              v < green_prefix ? Color::kGreen : Color::kRed)
        << "v=" << v;
  }
}

class AllSelectors : public ::testing::TestWithParam<SelectorKind> {};

TEST_P(AllSelectors, ColorsChainCorrectlyForEveryBoundary) {
  const int kN = 17;
  for (int boundary = 0; boundary <= kN; ++boundary) {
    PairGraph g = ClosedChain(kN);
    ColoringState state(&g);
    auto selector = MakeSelector(GetParam(), 5);
    RunLoop(selector.get(), ChainTruth(boundary), &state);
    ExpectChainColoredCorrectly(state, kN, boundary);
  }
}

TEST_P(AllSelectors, ColorsPaperExampleCorrectly) {
  auto pairs = PaperExamplePairs();
  Table table = PaperExampleTable();
  PairGraph g = BuildPairGraph(BruteForceBuilder(), pairs);
  auto truth = [&](int v) {
    return table.record(pairs[v].i).entity_id ==
           table.record(pairs[v].j).entity_id;
  };
  ColoringState state(&g);
  auto selector = MakeSelector(GetParam(), 9);
  RunLoop(selector.get(), truth, &state);
  for (size_t v = 0; v < pairs.size(); ++v) {
    EXPECT_EQ(state.color(static_cast<int>(v)),
              truth(static_cast<int>(v)) ? Color::kGreen : Color::kRed)
        << "pair (" << pairs[v].i + 1 << "," << pairs[v].j + 1 << ")";
  }
}

TEST_P(AllSelectors, HandlesAntichain) {
  PairGraph g(7);
  g.DedupEdges();
  ColoringState state(&g);
  auto selector = MakeSelector(GetParam(), 13);
  auto result =
      RunLoop(selector.get(), [](int v) { return v % 2 == 0; }, &state);
  // Nothing can be inferred on an antichain: all 7 must be asked.
  EXPECT_EQ(result.questions, 7u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllSelectors,
                         ::testing::Values(SelectorKind::kRandom,
                                           SelectorKind::kSinglePath,
                                           SelectorKind::kMultiPath,
                                           SelectorKind::kTopoSort),
                         [](const auto& param_info) {
                           return SelectorKindName(param_info.param);
                         });

TEST(SinglePathTest, BinarySearchQuestionCountOnChain) {
  const int kN = 64;
  for (int boundary : {0, 1, 13, 32, 63, 64}) {
    PairGraph g = ClosedChain(kN);
    ColoringState state(&g);
    auto selector = MakeSelector(SelectorKind::kSinglePath, 1);
    auto result = RunLoop(selector.get(), ChainTruth(boundary), &state);
    // O(log |P|): binary search over 64 vertices needs at most 7 asks.
    EXPECT_LE(result.questions,
              static_cast<size_t>(std::log2(kN)) + 1)
        << "boundary=" << boundary;
    // SinglePath asks exactly one question per iteration.
    EXPECT_EQ(result.questions, result.iterations);
  }
}

TEST(SinglePathTest, AsksFourQuestionsOnPaperExample) {
  // §3.2: "we need to ask at least 4 questions (e.g., p12, p10,11, p25,
  // p56) to color all vertices" — SinglePath achieves a count near the
  // boundary-vertex lower bound of 4.
  auto pairs = PaperExamplePairs();
  Table table = PaperExampleTable();
  PairGraph g = BuildPairGraph(BruteForceBuilder(), pairs);
  auto truth = [&](int v) {
    return table.record(pairs[v].i).entity_id ==
           table.record(pairs[v].j).entity_id;
  };
  ColoringState state(&g);
  auto selector = MakeSelector(SelectorKind::kSinglePath, 3);
  auto result = RunLoop(selector.get(), truth, &state);
  EXPECT_GE(result.questions, 4u);
  EXPECT_LE(result.questions, 7u);
}

TEST(TopoSortTest, FewIterationsOnChain) {
  const int kN = 128;
  PairGraph g = ClosedChain(kN);
  ColoringState state(&g);
  auto selector = MakeSelector(SelectorKind::kTopoSort, 1);
  auto result = RunLoop(selector.get(), ChainTruth(40), &state);
  // Middle-level bisection: logarithmic iterations on a chain.
  EXPECT_LE(result.iterations, 9u);
}

TEST(MultiPathTest, ParallelismBeatsSinglePathIterations) {
  // Several parallel chains: MultiPath asks one mid per chain per
  // iteration, SinglePath must walk chains one at a time.
  const int kChains = 6;
  const int kLen = 16;
  PairGraph g(kChains * kLen);
  for (int c = 0; c < kChains; ++c) {
    for (int a = 0; a < kLen; ++a) {
      for (int b = a + 1; b < kLen; ++b) {
        g.AddEdge(c * kLen + a, c * kLen + b);
      }
    }
  }
  g.DedupEdges();
  auto truth = [&](int v) { return (v % kLen) < 5; };

  ColoringState s1(&g);
  auto single = MakeSelector(SelectorKind::kSinglePath, 2);
  auto r1 = RunLoop(single.get(), truth, &s1);

  ColoringState s2(&g);
  auto multi = MakeSelector(SelectorKind::kMultiPath, 2);
  auto r2 = RunLoop(multi.get(), truth, &s2);

  EXPECT_LT(r2.iterations, r1.iterations);
  // Both color correctly.
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    Color expected = truth(static_cast<int>(v)) ? Color::kGreen : Color::kRed;
    EXPECT_EQ(s1.color(static_cast<int>(v)), expected);
    EXPECT_EQ(s2.color(static_cast<int>(v)), expected);
  }
}

TEST(MultiPathTest, HandlesComparableMidVerticesAcrossPaths) {
  // Regression: on a grid poset, mid-vertices of *different* disjoint paths
  // are often comparable, so an answer earlier in a batch can deduce the
  // color of a later batch member before it is asked. The loop must ask it
  // anyway (simultaneous posting) and finish with a correct coloring.
  std::vector<std::vector<double>> sims;
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 6; ++y) {
      sims.push_back({x / 5.0, y / 5.0});
    }
  }
  PairGraph g = BruteForceBuilder().Build(PackRows(sims).rows());
  // Up-closed truth: a pair matches iff its coordinates are large enough.
  auto truth = [&](int v) { return sims[v][0] + sims[v][1] >= 1.2; };
  ColoringState state(&g);
  auto selector = MakeSelector(SelectorKind::kMultiPath, 17);
  RunLoop(selector.get(), truth, &state);
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(state.color(static_cast<int>(v)),
              truth(static_cast<int>(v)) ? Color::kGreen : Color::kRed);
  }
}

TEST(SelectorFactoryTest, NamesMatchKinds) {
  for (auto kind : {SelectorKind::kRandom, SelectorKind::kSinglePath,
                    SelectorKind::kMultiPath, SelectorKind::kTopoSort}) {
    auto selector = MakeSelector(kind, 1);
    ASSERT_NE(selector, nullptr);
    EXPECT_STREQ(selector->name(), SelectorKindName(kind));
  }
}

}  // namespace
}  // namespace power
