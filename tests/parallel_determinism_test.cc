// Determinism harness for the ROADMAP invariant "parallelism never changes
// answers": the full Power / Power+ pipeline, run with the same seed but
// different num_threads, must produce byte-identical PowerResults —
// questions asked, iterations, matched pairs (⇒ F1), group/graph shape, and
// the clusters consolidated from the matches. Timing fields are the only
// permitted difference.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "eval/cluster_metrics.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "util/parallel.h"

namespace power {
namespace {

const int kThreadCounts[] = {1, 2, 8};

// Everything in PowerResult except wall-clock timings, flattened for exact
// comparison (gtest prints field diffs via operator==).
struct ResultFingerprint {
  size_t questions;
  size_t iterations;
  size_t num_pairs;
  size_t num_groups;
  size_t num_edges;
  size_t num_blue_groups;
  bool budget_exhausted;
  std::vector<uint64_t> matched;  // sorted
  double f1;
  double exact_cluster_f1;
  double rand_index;
  std::vector<std::vector<int>> clusters;

  bool operator==(const ResultFingerprint&) const = default;
};

ResultFingerprint Fingerprint(const PowerResult& result, const Table& table) {
  ResultFingerprint fp;
  fp.questions = result.questions;
  fp.iterations = result.iterations;
  fp.num_pairs = result.num_pairs;
  fp.num_groups = result.num_groups;
  fp.num_edges = result.num_edges;
  fp.num_blue_groups = result.num_blue_groups;
  fp.budget_exhausted = result.budget_exhausted;
  fp.matched.assign(result.matched_pairs.begin(), result.matched_pairs.end());
  std::sort(fp.matched.begin(), fp.matched.end());
  fp.f1 = ComputePrf(result.matched_pairs, TrueMatchPairs(table)).f1;
  ClusterMetrics cm = ComputeClusterMetrics(table, result.matched_pairs);
  fp.exact_cluster_f1 = cm.exact_f1;
  fp.rand_index = cm.rand_index;
  fp.clusters = BuildClusters(table.num_records(), result.matched_pairs);
  return fp;
}

struct PipelineCase {
  const char* label;
  BuilderKind builder;
  GroupingKind grouping;
  SelectorKind selector;
  bool error_tolerant;
  bool prefix_join;  // pins CandidateMethod::kPrefixJoin, not the scan
  size_t max_questions;
  double accuracy;
};

// gtest's fallback printer dumps the struct's bytes, label pointer
// included, and that address moves with every run of the binary; the
// discovered test names would move with it. Print the label instead.
void PrintTo(const PipelineCase& c, std::ostream* os) { *os << c.label; }

class ParallelDeterminism : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(ParallelDeterminism, SameSeedSameResultAtEveryThreadCount) {
  const PipelineCase& c = GetParam();

  DatasetProfile profile = RestaurantProfile();
  profile.num_records = 120;
  profile.num_entities = 90;
  Table table = DatasetGenerator(2026).Generate(profile);

  auto run_at = [&](int threads) {
    // A fresh oracle per run, seeded identically: every run sees the same
    // crowd noise (the paper's replay protocol), so any divergence can only
    // come from the parallel machine-side stages.
    CrowdOracle oracle(&table, {c.accuracy, c.accuracy},
                       WorkerModel::kExactAccuracy, 5, 4242);
    PowerConfig config;
    config.builder = c.builder;
    config.grouping = c.grouping;
    config.selector = c.selector;
    config.error_tolerant = c.error_tolerant;
    config.max_questions = c.max_questions;
    config.seed = 7;
    config.num_threads = threads;
    if (c.prefix_join) config.candidate_method = CandidateMethod::kPrefixJoin;
    PowerResult result = PowerFramework(config).Run(table, &oracle);
    EXPECT_EQ(result.num_threads, threads) << c.label;
    return Fingerprint(result, table);
  };

  ResultFingerprint serial = run_at(1);
  EXPECT_GT(serial.questions, 0u) << c.label;
  for (int threads : kThreadCounts) {
    EXPECT_EQ(run_at(threads), serial) << c.label << " threads=" << threads;
  }
  // Run-to-run determinism at a fixed parallel thread count.
  EXPECT_EQ(run_at(8), run_at(8)) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, ParallelDeterminism,
    ::testing::Values(
        PipelineCase{"power_default", BuilderKind::kRangeTree,
                     GroupingKind::kSplit, SelectorKind::kTopoSort, false,
                     false, 0, 1.0},
        PipelineCase{"brute_nongroup_singlepath", BuilderKind::kBruteForce,
                     GroupingKind::kNone, SelectorKind::kSinglePath, false,
                     false, 0, 1.0},
        PipelineCase{"quicksort_greedy_multipath", BuilderKind::kQuickSort,
                     GroupingKind::kGreedy, SelectorKind::kMultiPath, false,
                     false, 0, 1.0},
        PipelineCase{"index_nongroup_topo", BuilderKind::kRangeTree,
                     GroupingKind::kNone, SelectorKind::kTopoSort, false,
                     false, 0, 1.0},
        PipelineCase{"power_plus_noisy", BuilderKind::kRangeTree,
                     GroupingKind::kSplit, SelectorKind::kTopoSort, true,
                     false, 0, 0.8},
        PipelineCase{"budgeted_noisy", BuilderKind::kQuickSort,
                     GroupingKind::kSplit, SelectorKind::kTopoSort, false,
                     false, 40, 0.85},
        // The default scans all pairs; these pin the prefix join, whose
        // probes run on the pool, on the grouped and ungrouped paths.
        PipelineCase{"prefix_join_grouped", BuilderKind::kRangeTree,
                     GroupingKind::kSplit, SelectorKind::kTopoSort, false,
                     true, 0, 1.0},
        PipelineCase{"prefix_join_nongroup", BuilderKind::kBruteForce,
                     GroupingKind::kNone, SelectorKind::kTopoSort, false,
                     true, 0, 1.0}));

// POWER_THREADS / SetNumThreads plumbing: config.num_threads = 0 defers to
// the process-wide setting, and that path is deterministic too.
TEST(ParallelDeterminismTest, ProcessDefaultThreadsMatchesExplicitConfig) {
  DatasetProfile profile = CoraProfile();
  profile.num_records = 60;
  profile.num_entities = 12;
  Table table = DatasetGenerator(55).Generate(profile);

  auto run = [&](int config_threads, int global_threads) {
    ScopedNumThreads scope(global_threads);
    CrowdOracle oracle(&table, {0.9, 0.9}, WorkerModel::kExactAccuracy, 5,
                       321);
    PowerConfig config;
    config.seed = 9;
    config.num_threads = config_threads;
    PowerResult result = PowerFramework(config).Run(table, &oracle);
    return Fingerprint(result, table);
  };

  ResultFingerprint serial = run(1, 0);
  EXPECT_EQ(run(0, 2), serial);  // global override via SetNumThreads
  EXPECT_EQ(run(0, 8), serial);
  EXPECT_EQ(run(2, 8), serial);  // explicit config wins over global
}

}  // namespace
}  // namespace power
