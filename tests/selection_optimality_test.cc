// Property tests of the §5.1-§5.2 optimality claims: with a perfect oracle,
// SinglePath's question count is bounded below by the boundary-vertex count
// (Definition 9) and above by the O(B log |V|) bound of Theorem 2's path
// cover + binary search.
#include <cmath>

#include <gtest/gtest.h>

#include "eval/boundary.h"
#include "graph/builder.h"
#include "group/group.h"
#include "select/path_cover.h"
#include "select/selector.h"
#include "util/rng.h"

namespace power {
namespace {

// Random dominance poset over a coarse grid plus a monotone (up-closed)
// ground truth: truth(v) depends monotonically on the similarity vector, so
// the partial-order assumption of §5.1 holds exactly.
struct RandomPoset {
  std::vector<std::vector<double>> sims;
  PairGraph graph;
  std::vector<bool> green;
};

RandomPoset MakePoset(uint64_t seed, size_t n, size_t m) {
  Rng rng(seed);
  RandomPoset poset;
  poset.sims.assign(n, std::vector<double>(m));
  for (auto& v : poset.sims) {
    for (auto& x : v) x = rng.UniformIndex(6) / 5.0;
  }
  poset.graph = BruteForceBuilder().Build(PackRows(poset.sims).rows());
  double threshold = rng.UniformDouble(0.5, 1.5);
  poset.green.resize(n);
  for (size_t v = 0; v < n; ++v) {
    double sum = 0.0;
    for (double x : poset.sims[v]) sum += x;
    poset.green[v] = sum >= threshold * m / 2.0;
  }
  return poset;
}

size_t RunSinglePath(const RandomPoset& poset) {
  ColoringState state(&poset.graph);
  auto selector = MakeSelector(SelectorKind::kSinglePath, 3);
  size_t questions = 0;
  while (!state.AllColored()) {
    auto batch = selector->NextBatch(state);
    for (int v : batch) {
      state.ApplyAnswer(v, poset.green[v]);
      ++questions;
    }
  }
  // The final coloring must equal the ground truth (perfect oracle +
  // monotone truth).
  for (size_t v = 0; v < poset.graph.num_vertices(); ++v) {
    EXPECT_EQ(state.color(static_cast<int>(v)),
              poset.green[v] ? Color::kGreen : Color::kRed);
  }
  return questions;
}

TEST(SelectionOptimalityProperty, SinglePathBetweenBoundsOnRandomPosets) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    RandomPoset poset = MakePoset(seed, 20 + (seed % 4) * 15, 2 + seed % 3);
    size_t n = poset.graph.num_vertices();
    size_t lower = CountBoundaryVertices(poset.graph, poset.green);
    size_t width = MinimumPathCover(poset.graph).size();
    size_t questions = RunSinglePath(poset);

    EXPECT_GE(questions, lower) << "seed=" << seed;
    // O(B log |V|): each of at most B paths costs at most ceil(log2)+1
    // questions; propagation across paths only helps. Generous constant to
    // keep the test robust.
    double upper =
        static_cast<double>(width) * (std::log2(static_cast<double>(n)) + 2);
    EXPECT_LE(static_cast<double>(questions), upper) << "seed=" << seed;
  }
}

TEST(SelectionOptimalityProperty, AllSelectorsMeetTheLowerBound) {
  // Definition 9's argument: no algorithm can beat the boundary count.
  for (uint64_t seed = 40; seed <= 48; ++seed) {
    RandomPoset poset = MakePoset(seed, 30, 2);
    size_t lower = CountBoundaryVertices(poset.graph, poset.green);
    for (SelectorKind kind :
         {SelectorKind::kRandom, SelectorKind::kSinglePath,
          SelectorKind::kMultiPath, SelectorKind::kTopoSort}) {
      ColoringState state(&poset.graph);
      auto selector = MakeSelector(kind, seed);
      size_t questions = 0;
      while (!state.AllColored()) {
        for (int v : selector->NextBatch(state)) {
          state.ApplyAnswer(v, poset.green[v]);
          ++questions;
        }
      }
      EXPECT_GE(questions, lower)
          << SelectorKindName(kind) << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace power
