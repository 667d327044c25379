#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/paper_example.h"
#include "graph/builder.h"
#include "graph/coloring.h"
#include "group/group.h"
#include "select/selector.h"
#include "sim/pair.h"
#include "util/parallel.h"
#include "util/rng.h"

// Loop-trace differential test for the incremental ask-and-color path.
//
// The CSR freeze + incremental selection rewrite must be *byte-identical in
// output*: the same question sequence and the same final coloring as the
// historical scan-based implementation, at any thread count. This file keeps
// a faithful copy of the historical reference — the deque-based
// Hopcroft-Karp, the scan-based coloring state that propagates over sorted
// Ancestors()/Descendants() lists, and the per-round from-scratch selector
// logic — and replays full serve loops for every selector x builder
// combination on seeded random inputs, comparing the recorded trace (every
// batch, in order, plus the final color of every vertex) between the legacy
// reference and the production incremental path at 1, 2 and 8 threads.

namespace power {
namespace {

// ---------------------------------------------------------------------------
// Legacy reference: Hopcroft-Karp exactly as the historical implementation
// (ragged adjacency appended in AddEdge order, deque BFS, recursive DFS).
// ---------------------------------------------------------------------------

constexpr int kLegacyInf = std::numeric_limits<int>::max();

class LegacyHopcroftKarp {
 public:
  LegacyHopcroftKarp(int num_left, int num_right)
      : num_left_(num_left),
        adj_(num_left),
        match_left_(num_left, -1),
        match_right_(num_right, -1),
        dist_(num_left, 0) {}

  void AddEdge(int l, int r) { adj_[l].push_back(r); }

  int Solve() {
    int size = 0;
    while (Bfs()) {
      for (int l = 0; l < num_left_; ++l) {
        if (match_left_[l] == -1 && Dfs(l)) ++size;
      }
    }
    return size;
  }

  const std::vector<int>& match_left() const { return match_left_; }
  const std::vector<int>& match_right() const { return match_right_; }

 private:
  bool Bfs() {
    std::deque<int> queue;
    for (int l = 0; l < num_left_; ++l) {
      if (match_left_[l] == -1) {
        dist_[l] = 0;
        queue.push_back(l);
      } else {
        dist_[l] = kLegacyInf;
      }
    }
    bool found_augmenting = false;
    while (!queue.empty()) {
      int l = queue.front();
      queue.pop_front();
      for (int r : adj_[l]) {
        int next = match_right_[r];
        if (next == -1) {
          found_augmenting = true;
        } else if (dist_[next] == kLegacyInf) {
          dist_[next] = dist_[l] + 1;
          queue.push_back(next);
        }
      }
    }
    return found_augmenting;
  }

  bool Dfs(int l) {
    for (int r : adj_[l]) {
      int next = match_right_[r];
      if (next == -1 || (dist_[next] == dist_[l] + 1 && Dfs(next))) {
        match_left_[l] = r;
        match_right_[r] = l;
        return true;
      }
    }
    dist_[l] = kLegacyInf;
    return false;
  }

  int num_left_;
  std::vector<std::vector<int>> adj_;
  std::vector<int> match_left_;
  std::vector<int> match_right_;
  std::vector<int> dist_;
};

std::vector<std::vector<int>> LegacyMinimumPathCover(
    const PairGraph& graph, const std::vector<bool>& active) {
  const int n = static_cast<int>(graph.num_vertices());
  LegacyHopcroftKarp matcher(n, n);
  for (int v = 0; v < n; ++v) {
    if (!active[v]) continue;
    for (int c : graph.children(v)) {
      if (active[c]) matcher.AddEdge(v, c);
    }
  }
  matcher.Solve();
  const auto& next = matcher.match_left();
  const auto& prev = matcher.match_right();
  std::vector<std::vector<int>> paths;
  for (int v = 0; v < n; ++v) {
    if (!active[v] || prev[v] != -1) continue;
    std::vector<int> path;
    for (int u = v; u != -1; u = next[u]) path.push_back(u);
    paths.push_back(std::move(path));
  }
  return paths;
}

// ---------------------------------------------------------------------------
// Legacy reference: scan-based coloring state. Propagation walks the sorted
// Ancestors()/Descendants() lists in ascending order; every aggregate is a
// full O(|V|) scan, as in the historical implementation.
// ---------------------------------------------------------------------------

class LegacyColoringState {
 public:
  explicit LegacyColoringState(const PairGraph* graph)
      : graph_(graph),
        color_(graph->num_vertices(), Color::kUncolored),
        asked_(graph->num_vertices(), false),
        green_votes_(graph->num_vertices(), 0),
        red_votes_(graph->num_vertices(), 0) {}

  Color color(int v) const { return color_[v]; }

  std::vector<int> UncoloredVertices() const {
    std::vector<int> out;
    for (size_t v = 0; v < color_.size(); ++v) {
      if (color_[v] == Color::kUncolored) out.push_back(static_cast<int>(v));
    }
    return out;
  }

  bool AllColored() const { return UncoloredVertices().empty(); }

  void ApplyAnswer(int v, bool match) {
    asked_[v] = true;
    color_[v] = match ? Color::kGreen : Color::kRed;
    if (match) {
      for (int a : graph_->Ancestors(v)) {
        ++green_votes_[a];
        Recompute(a);
      }
    } else {
      for (int d : graph_->Descendants(v)) {
        ++red_votes_[d];
        Recompute(d);
      }
    }
  }

  const PairGraph& graph() const { return *graph_; }

 private:
  void Recompute(int v) {
    if (asked_[v]) return;
    if (green_votes_[v] > red_votes_[v]) {
      color_[v] = Color::kGreen;
    } else if (red_votes_[v] > green_votes_[v]) {
      color_[v] = Color::kRed;
    } else {
      color_[v] = Color::kUncolored;
    }
  }

  const PairGraph* graph_;
  std::vector<Color> color_;
  std::vector<bool> asked_;
  std::vector<int> green_votes_;
  std::vector<int> red_votes_;
};

// ---------------------------------------------------------------------------
// Legacy reference: per-round from-scratch selector logic.
// ---------------------------------------------------------------------------

class LegacySelector {
 public:
  LegacySelector(SelectorKind kind, uint64_t seed) : kind_(kind), rng_(seed) {}

  std::vector<int> NextBatch(const LegacyColoringState& state) {
    switch (kind_) {
      case SelectorKind::kRandom: {
        std::vector<int> uncolored = state.UncoloredVertices();
        if (uncolored.empty()) return {};
        return {uncolored[rng_.UniformIndex(uncolored.size())]};
      }
      case SelectorKind::kSinglePath: {
        std::vector<int> remaining;
        for (int v : current_path_) {
          if (state.color(v) == Color::kUncolored) remaining.push_back(v);
        }
        if (remaining.empty()) {
          auto [active, any] = ActiveMask(state);
          if (!any) return {};
          auto paths = LegacyMinimumPathCover(state.graph(), active);
          auto longest = std::max_element(
              paths.begin(), paths.end(),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
          remaining = *longest;
        }
        current_path_ = remaining;
        return {current_path_[current_path_.size() / 2]};
      }
      case SelectorKind::kMultiPath: {
        auto [active, any] = ActiveMask(state);
        if (!any) return {};
        std::vector<int> batch;
        for (const auto& path : LegacyMinimumPathCover(state.graph(), active)) {
          batch.push_back(path[path.size() / 2]);
        }
        return batch;
      }
      case SelectorKind::kTopoSort: {
        auto [active, any] = ActiveMask(state);
        if (!any) return {};
        auto levels = state.graph().TopologicalLevels(active);
        return levels[(levels.size() - 1) / 2];
      }
    }
    return {};
  }

 private:
  std::pair<std::vector<bool>, bool> ActiveMask(
      const LegacyColoringState& state) {
    std::vector<bool> active(state.graph().num_vertices(), false);
    bool any = false;
    for (size_t v = 0; v < active.size(); ++v) {
      if (state.color(static_cast<int>(v)) == Color::kUncolored) {
        active[v] = true;
        any = true;
      }
    }
    return {std::move(active), any};
  }

  SelectorKind kind_;
  Rng rng_;
  std::vector<int> current_path_;
};

// ---------------------------------------------------------------------------
// Trace capture. A trace is the flat question sequence with round markers
// plus the final color of every vertex — if two loops produce equal traces,
// they asked the same questions in the same rounds and converged to the same
// coloring.
// ---------------------------------------------------------------------------

struct LoopTrace {
  std::vector<std::vector<int>> rounds;  // batch per round, in ask order
  std::vector<Color> final_colors;

  bool operator==(const LoopTrace&) const = default;
};

constexpr uint64_t kSelectorSeed = 777;
constexpr int kMaxRounds = 10000;

// Deterministic oracle: a pair matches iff its mean similarity clears tau.
// Monotone under dominance, so the coloring never sees vote conflicts from
// the oracle itself (conflicts still happen transiently within a round).
bool OracleMatch(std::span<const double> sims, double tau) {
  double sum = 0.0;
  for (double s : sims) sum += s;
  return sum / static_cast<double>(sims.size()) >= tau;
}

PackedRows RandomSims(int n, int attrs, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n);
  for (auto& row : sims) {
    row.resize(attrs);
    for (double& s : row) s = rng.UniformDouble(0.0, 1.0);
  }
  return PackRows(sims);
}

void RunLegacyLoop(const PairGraph& graph, SimilarityRows sims,
                   SelectorKind kind, double tau, LoopTrace* trace) {
  LegacyColoringState state(&graph);
  LegacySelector selector(kind, kSelectorSeed);
  int rounds = 0;
  while (!state.AllColored()) {
    ASSERT_LT(rounds++, kMaxRounds) << "legacy loop failed to converge";
    std::vector<int> batch = selector.NextBatch(state);
    ASSERT_FALSE(batch.empty());
    // Whole batch is one crowd round: gather all answers, then apply in
    // batch order (mirrors PowerFramework::RunOnPairs).
    std::vector<bool> answers;
    for (int v : batch) answers.push_back(OracleMatch(sims.row(v), tau));
    for (size_t b = 0; b < batch.size(); ++b) {
      state.ApplyAnswer(batch[b], answers[b]);
    }
    trace->rounds.push_back(std::move(batch));
  }
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    trace->final_colors.push_back(state.color(static_cast<int>(v)));
  }
}

void RunIncrementalLoop(const PairGraph& graph, SimilarityRows sims,
                        SelectorKind kind, double tau, LoopTrace* trace) {
  ColoringState state(&graph);
  std::unique_ptr<QuestionSelector> selector =
      MakeSelector(kind, kSelectorSeed);
  int rounds = 0;
  while (!state.AllColored()) {
    ASSERT_LT(rounds++, kMaxRounds) << "incremental loop failed to converge";
    std::vector<int> batch = selector->NextBatch(state);
    ASSERT_FALSE(batch.empty());
    std::vector<bool> answers;
    for (int v : batch) answers.push_back(OracleMatch(sims.row(v), tau));
    for (size_t b = 0; b < batch.size(); ++b) {
      state.ApplyAnswer(batch[b], answers[b]);
    }
    trace->rounds.push_back(std::move(batch));
  }
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    trace->final_colors.push_back(state.color(static_cast<int>(v)));
  }
}

std::unique_ptr<GraphBuilder> MakeBuilder(BuilderKind kind) {
  switch (kind) {
    case BuilderKind::kBruteForce:
      return std::make_unique<BruteForceBuilder>();
    case BuilderKind::kQuickSort:
      return std::make_unique<QuickSortBuilder>(31);
    case BuilderKind::kRangeTree:
      return std::make_unique<RangeTreeBuilder>();
  }
  return nullptr;
}

struct TraceCase {
  SelectorKind selector;
  BuilderKind builder;
};

// The discovered ctest name carries the printed parameter: print the
// fields, not gtest's dump of the struct's bytes.
void PrintTo(const TraceCase& c, std::ostream* os) {
  *os << SelectorKindName(c.selector) << "_" << BuilderKindName(c.builder);
}

std::string TraceCaseName(const testing::TestParamInfo<TraceCase>& info) {
  return std::string(SelectorKindName(info.param.selector)) + "_" +
         BuilderKindName(info.param.builder);
}

class SelectionLoopTrace : public testing::TestWithParam<TraceCase> {};

TEST_P(SelectionLoopTrace, IncrementalMatchesLegacyAtEveryThreadCount) {
  const auto [selector, builder] = GetParam();
  constexpr int kVertices = 90;
  constexpr int kAttrs = 2;
  constexpr double kTau = 0.5;
  for (uint64_t seed : {11u, 97u}) {
    const PackedRows packed = RandomSims(kVertices, kAttrs, seed);
    const SimilarityRows sims = packed.rows();

    // Legacy reference trace, serial, on a serially built graph.
    LoopTrace legacy;
    {
      ScopedNumThreads scope(1);
      PairGraph graph = MakeBuilder(builder)->Build(sims);
      RunLegacyLoop(graph, sims, selector, kTau, &legacy);
      if (testing::Test::HasFatalFailure()) return;
    }
    ASSERT_FALSE(legacy.rounds.empty());

    // The incremental path must reproduce it bit-for-bit at every thread
    // count, with the graph also built at that thread count.
    for (int threads : {1, 2, 8}) {
      ScopedNumThreads scope(threads);
      PairGraph graph = MakeBuilder(builder)->Build(sims);
      ASSERT_EQ(graph.num_vertices(), static_cast<size_t>(kVertices));
      LoopTrace incremental;
      RunIncrementalLoop(graph, sims, selector, kTau, &incremental);
      if (testing::Test::HasFatalFailure()) return;
      EXPECT_EQ(incremental.rounds, legacy.rounds)
          << "question sequence diverged at " << threads
          << " threads, seed " << seed;
      EXPECT_TRUE(incremental.final_colors == legacy.final_colors)
          << "final coloring diverged at " << threads << " threads, seed "
          << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault-trace differential: the ask-and-color loop over a *flaky* oracle
// whose failures eventually succeed must be byte-identical to the fault-free
// loop — same question count, same iterations, same matched pairs — because
// RunOnPairs holds a round's answered votes, re-asks only the unanswered
// residue, and applies the completed round atomically.
// ---------------------------------------------------------------------------

// Wraps a deterministic inner oracle and drops each pair's first asks with
// probability `drop_prob`, guaranteeing success once a pair has been asked
// `max_drops` times. Failures are in-band: VoteResult::total_votes == 0,
// the platform's partial-round signal. Deterministic: the drop pattern is a
// pure function of the seed and the ask sequence.
class FlakyOracle : public PairOracle {
 public:
  FlakyOracle(PairOracle* inner, double drop_prob, int max_drops,
              uint64_t seed)
      : inner_(inner), drop_prob_(drop_prob), max_drops_(max_drops),
        rng_(seed) {}

  VoteResult Ask(int i, int j) override {
    int& drops = drops_[PairKey(i, j)];
    if (drops < max_drops_ && rng_.Bernoulli(drop_prob_)) {
      ++drops;
      ++total_drops_;
      return VoteResult{};  // unanswered round
    }
    return inner_->Ask(i, j);
  }

  size_t total_drops() const { return total_drops_; }

 private:
  PairOracle* inner_;
  double drop_prob_;
  int max_drops_;
  Rng rng_;
  std::map<uint64_t, int> drops_;
  size_t total_drops_ = 0;
};

TEST(SelectionLoopFaultTrace, EventuallyAnsweredMatchesFaultFreeBaseline) {
  Table table = PaperExampleTable();
  const auto pairs = PaperExamplePairs();
  constexpr uint64_t kCrowdSeed = 11;
  for (SelectorKind kind :
       {SelectorKind::kRandom, SelectorKind::kSinglePath,
        SelectorKind::kMultiPath, SelectorKind::kTopoSort}) {
    SCOPED_TRACE(SelectorKindName(kind));
    PowerConfig config;
    config.selector = kind;
    // Every pair answers by its 5th ask; the framework allows 8 attempts
    // per round, so no question can exhaust its budget (degraded == 0).
    config.max_ask_attempts = 8;

    // Fault-free baseline, serial. CrowdOracle's votes are a pure function
    // of (seed, pair), so a fresh instance replays identically below.
    PowerResult baseline;
    {
      ScopedNumThreads scope(1);
      CrowdOracle oracle(&table, {1.0, 1.0}, WorkerModel::kExactAccuracy, 5,
                         kCrowdSeed);
      baseline = PowerFramework(config).RunOnPairs(pairs, &oracle);
    }
    EXPECT_EQ(baseline.requeued_questions, 0u);
    EXPECT_EQ(baseline.degraded_questions, 0u);

    for (int threads : {1, 2, 8}) {
      ScopedNumThreads scope(threads);
      CrowdOracle inner(&table, {1.0, 1.0}, WorkerModel::kExactAccuracy, 5,
                        kCrowdSeed);
      FlakyOracle flaky(&inner, /*drop_prob=*/0.6, /*max_drops=*/4,
                        /*seed=*/99);
      PowerResult r = PowerFramework(config).RunOnPairs(pairs, &flaky);
      // The faults actually fired and were retried...
      EXPECT_GT(flaky.total_drops(), 0u);
      EXPECT_GT(r.requeued_questions, 0u);
      EXPECT_EQ(r.degraded_questions, 0u);
      // ...yet the resolution is byte-identical to the fault-free run:
      // same question count (re-asks are retries, not new questions), same
      // rounds, same final answer set.
      EXPECT_EQ(r.questions, baseline.questions);
      EXPECT_EQ(r.iterations, baseline.iterations);
      EXPECT_EQ(r.matched_pairs, baseline.matched_pairs);
      EXPECT_EQ(r.num_blue_groups, baseline.num_blue_groups);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SelectionLoopTrace,
    testing::ValuesIn(std::vector<TraceCase>{
        {SelectorKind::kRandom, BuilderKind::kBruteForce},
        {SelectorKind::kSinglePath, BuilderKind::kBruteForce},
        {SelectorKind::kMultiPath, BuilderKind::kBruteForce},
        {SelectorKind::kTopoSort, BuilderKind::kBruteForce},
        {SelectorKind::kRandom, BuilderKind::kQuickSort},
        {SelectorKind::kSinglePath, BuilderKind::kQuickSort},
        {SelectorKind::kMultiPath, BuilderKind::kQuickSort},
        {SelectorKind::kTopoSort, BuilderKind::kQuickSort},
        {SelectorKind::kRandom, BuilderKind::kRangeTree},
        {SelectorKind::kSinglePath, BuilderKind::kRangeTree},
        {SelectorKind::kMultiPath, BuilderKind::kRangeTree},
        {SelectorKind::kTopoSort, BuilderKind::kRangeTree},
    }),
    TraceCaseName);

}  // namespace
}  // namespace power
