// Randomized invariant checking of the coloring engine: on random dominance
// graphs, under random interleavings of answers and blue-marks, the
// documented invariants must hold at every step.
#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/coloring.h"
#include "group/group.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace power {
namespace {

PackedRows RandomSims(Rng& rng, size_t n, size_t m) {
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (auto& x : v) x = rng.UniformIndex(5) / 4.0;
  }
  return PackRows(sims);
}

void CheckInvariants(const PairGraph& graph, const ColoringState& state,
                     const std::vector<int>& asked_green,
                     const std::vector<int>& asked_red,
                     const std::vector<int>& marked_blue) {
  // 1. Directly asked vertices keep their answers.
  for (int v : asked_green) {
    EXPECT_EQ(state.color(v), Color::kGreen) << "asked-green " << v;
  }
  for (int v : asked_red) {
    EXPECT_EQ(state.color(v), Color::kRed) << "asked-red " << v;
  }
  for (int v : marked_blue) {
    EXPECT_EQ(state.color(v), Color::kBlue) << "blue " << v;
  }
  // 2. Deduction sanity: a vertex colored GREEN purely by deduction must
  //    have some asked-GREEN descendant; RED-by-deduction some asked-RED
  //    ancestor.
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    int vi = static_cast<int>(v);
    if (state.asked(vi)) continue;
    if (state.color(vi) == Color::kGreen) {
      bool witness = false;
      for (int d : graph.Descendants(vi)) {
        if (std::find(asked_green.begin(), asked_green.end(), d) !=
            asked_green.end()) {
          witness = true;
        }
      }
      EXPECT_TRUE(witness) << "deduced-green " << vi << " has no witness";
    } else if (state.color(vi) == Color::kRed) {
      bool witness = false;
      for (int a : graph.Ancestors(vi)) {
        if (std::find(asked_red.begin(), asked_red.end(), a) !=
            asked_red.end()) {
          witness = true;
        }
      }
      EXPECT_TRUE(witness) << "deduced-red " << vi << " has no witness";
    }
  }
}

TEST(ColoringFuzzTest, RandomAnswerSequencesKeepInvariants) {
  Rng rng(2027);
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = 5 + rng.UniformIndex(25);
    auto sims = RandomSims(rng, n, 2 + rng.UniformIndex(2));
    PairGraph graph = BruteForceBuilder().Build(sims.rows());
    ColoringState state(&graph);

    std::vector<int> asked_green;
    std::vector<int> asked_red;
    std::vector<int> marked_blue;

    size_t ops = 2 * n;
    for (size_t op = 0; op < ops; ++op) {
      int v = static_cast<int>(rng.UniformIndex(n));
      switch (rng.UniformIndex(8)) {
        case 0:
          if (state.color(v) == Color::kUncolored) {
            state.MarkBlue(v);
            marked_blue.push_back(v);
          }
          break;
        default: {
          if (state.asked(v)) break;
          bool match = rng.Bernoulli(0.5);
          state.ApplyAnswer(v, match);
          (match ? asked_green : asked_red).push_back(v);
          break;
        }
      }
      CheckInvariants(graph, state, asked_green, asked_red, marked_blue);
    }

    // Asking every remaining uncolored vertex must terminate the coloring.
    for (int v : state.UncoloredVertices()) {
      if (!state.asked(v)) {
        state.ApplyAnswer(v, rng.Bernoulli(0.5));
      }
    }
    // Any still-uncolored vertices are deduction-conflict ties on unasked
    // vertices; asking them directly settles everything.
    for (int v : state.UncoloredVertices()) {
      state.ApplyAnswer(v, rng.Bernoulli(0.5));
    }
    EXPECT_TRUE(state.AllColored()) << "trial " << trial;
  }
}

// §3.3 propagation on graphs built by the *parallel* builders: a YES colors
// the asked vertex and every ancestor GREEN; a NO colors it and every
// descendant RED; nothing else moves. Run on all parallelized builder kinds
// at 8 threads — if a parallel builder dropped or fabricated a dominance
// edge, propagation would miss an ancestor/descendant here.
TEST(ColoringFuzzTest, ParallelBuiltGraphsKeepPropagationInvariants) {
  ScopedNumThreads scope(8);
  Rng rng(90210);
  const BruteForceBuilder brute;
  const QuickSortBuilder quick(17);
  const RangeTreeBuilder index;
  const GraphBuilder* builders[] = {&brute, &quick, &index};
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 20 + rng.UniformIndex(40);
    auto sims = RandomSims(rng, n, 2 + rng.UniformIndex(3));
    for (const GraphBuilder* builder : builders) {
      PairGraph graph = builder->Build(sims.rows());
      int v = static_cast<int>(rng.UniformIndex(n));
      bool yes = rng.Bernoulli(0.5);
      ColoringState state(&graph);
      state.ApplyAnswer(v, yes);
      EXPECT_EQ(state.color(v), yes ? Color::kGreen : Color::kRed)
          << builder->name();
      auto ancestors = graph.Ancestors(v);
      auto descendants = graph.Descendants(v);
      for (int a : ancestors) {
        EXPECT_EQ(state.color(a), yes ? Color::kGreen : Color::kUncolored)
            << builder->name() << " ancestor " << a << " of " << v;
      }
      for (int d : descendants) {
        EXPECT_EQ(state.color(d), yes ? Color::kUncolored : Color::kRed)
            << builder->name() << " descendant " << d << " of " << v;
      }
      for (size_t u = 0; u < n; ++u) {
        int ui = static_cast<int>(u);
        if (ui == v) continue;
        bool related =
            std::find(ancestors.begin(), ancestors.end(), ui) !=
                ancestors.end() ||
            std::find(descendants.begin(), descendants.end(), ui) !=
                descendants.end();
        if (!related) {
          EXPECT_EQ(state.color(ui), Color::kUncolored)
              << builder->name() << " incomparable vertex " << ui;
        }
      }
    }
  }
}

// Random answer interleavings on parallel-built graphs must satisfy the same
// step-by-step invariants the serial seed graphs do (CheckInvariants above),
// for every parallelized builder kind.
TEST(ColoringFuzzTest, RandomAnswersOnParallelBuiltGraphsKeepInvariants) {
  ScopedNumThreads scope(8);
  Rng rng(60601);
  const QuickSortBuilder quick(23);
  const RangeTreeBuilder index;
  const GraphBuilder* builders[] = {&quick, &index};
  for (int trial = 0; trial < 12; ++trial) {
    size_t n = 10 + rng.UniformIndex(30);
    auto sims = RandomSims(rng, n, 2 + rng.UniformIndex(2));
    for (const GraphBuilder* builder : builders) {
      PairGraph graph = builder->Build(sims.rows());
      ColoringState state(&graph);
      std::vector<int> asked_green;
      std::vector<int> asked_red;
      for (size_t op = 0; op < n; ++op) {
        int v = static_cast<int>(rng.UniformIndex(n));
        if (state.asked(v)) continue;
        bool match = rng.Bernoulli(0.5);
        state.ApplyAnswer(v, match);
        (match ? asked_green : asked_red).push_back(v);
        CheckInvariants(graph, state, asked_green, asked_red, {});
      }
    }
  }
}

TEST(ColoringFuzzTest, PropagationNeverTouchesIncomparableVertices) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 6 + rng.UniformIndex(14);
    auto sims = RandomSims(rng, n, 3);
    PairGraph graph = BruteForceBuilder().Build(sims.rows());
    int v = static_cast<int>(rng.UniformIndex(n));
    ColoringState state(&graph);
    state.ApplyAnswer(v, rng.Bernoulli(0.5));
    auto ancestors = graph.Ancestors(v);
    auto descendants = graph.Descendants(v);
    for (size_t u = 0; u < n; ++u) {
      int ui = static_cast<int>(u);
      if (ui == v) continue;
      bool related =
          std::find(ancestors.begin(), ancestors.end(), ui) !=
              ancestors.end() ||
          std::find(descendants.begin(), descendants.end(), ui) !=
              descendants.end();
      if (!related) {
        EXPECT_EQ(state.color(ui), Color::kUncolored)
            << "incomparable vertex " << ui << " was colored";
      }
    }
  }
}

}  // namespace
}  // namespace power
