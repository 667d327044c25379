// End-to-end pipeline sweeps and structural invariants across the full
// configuration space (profile x grouping x builder x selector x tolerance).
#include <gtest/gtest.h>

#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "eval/cluster_metrics.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "sim/similarity_matrix.h"

namespace power {
namespace {

struct SweepCase {
  GroupingKind grouping;
  BuilderKind builder;
  SelectorKind selector;
  bool tolerant;
};

// The discovered ctest name carries the printed parameter: print the
// fields, not gtest's dump of the struct's bytes.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << GroupingKindName(c.grouping) << "_" << BuilderKindName(c.builder)
      << "_" << SelectorKindName(c.selector)
      << (c.tolerant ? "_tolerant" : "");
}

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  return std::string(GroupingKindName(c.grouping)) +
         BuilderKindName(c.builder) + SelectorKindName(c.selector) +
         (c.tolerant ? "Plus" : "");
}

class PipelineSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static const Table& SharedTable() {
    static const Table* table = [] {
      DatasetProfile profile = RestaurantProfile();
      profile.num_records = 180;
      profile.num_entities = 130;
      return new Table(DatasetGenerator(97).Generate(profile));
    }();
    return *table;
  }
};

TEST_P(PipelineSweep, PerfectWorkersGiveHighQualityAndSaneCounters) {
  const SweepCase& c = GetParam();
  const Table& table = SharedTable();
  CrowdOracle oracle(&table, {1.0, 1.0}, WorkerModel::kExactAccuracy, 5, 1);
  PowerConfig config;
  config.grouping = c.grouping;
  config.builder = c.builder;
  config.selector = c.selector;
  config.error_tolerant = c.tolerant;
  PowerResult r = PowerFramework(config).Run(table, &oracle);

  // Structural invariants.
  EXPECT_GT(r.num_pairs, 0u);
  EXPECT_LE(r.num_groups, r.num_pairs);
  EXPECT_LE(r.questions, r.num_groups);  // each group asked at most once
  EXPECT_LE(r.iterations, r.questions);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_LE(r.matched_pairs.size(), r.num_pairs);

  // Quality with a perfect crowd.
  auto prf = ComputePrf(r.matched_pairs, TrueMatchPairs(table));
  EXPECT_GT(prf.f1, 0.85) << "precision=" << prf.precision
                          << " recall=" << prf.recall;

  // Cluster-level sanity: the Rand index must be near-perfect too.
  ClusterMetrics cm = ComputeClusterMetrics(table, r.matched_pairs);
  EXPECT_GT(cm.rand_index, 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineSweep,
    ::testing::Values(
        SweepCase{GroupingKind::kSplit, BuilderKind::kRangeTree,
                  SelectorKind::kTopoSort, false},
        SweepCase{GroupingKind::kSplit, BuilderKind::kRangeTree,
                  SelectorKind::kTopoSort, true},
        SweepCase{GroupingKind::kSplit, BuilderKind::kRangeTree,
                  SelectorKind::kSinglePath, false},
        SweepCase{GroupingKind::kSplit, BuilderKind::kRangeTree,
                  SelectorKind::kMultiPath, false},
        SweepCase{GroupingKind::kGreedy, BuilderKind::kRangeTree,
                  SelectorKind::kTopoSort, false},
        SweepCase{GroupingKind::kNone, BuilderKind::kBruteForce,
                  SelectorKind::kTopoSort, false},
        SweepCase{GroupingKind::kNone, BuilderKind::kQuickSort,
                  SelectorKind::kSinglePath, false},
        SweepCase{GroupingKind::kNone, BuilderKind::kRangeTree,
                  SelectorKind::kTopoSort, false},
        SweepCase{GroupingKind::kNone, BuilderKind::kRangeTree,
                  SelectorKind::kRandom, true}),
    CaseName);

TEST(PipelineEquivalence, BuildersInterchangeableEndToEnd) {
  // The builder only affects construction, never the outcome: identical
  // seeds must give identical results across builders.
  DatasetProfile profile = RestaurantProfile();
  profile.num_records = 120;
  profile.num_entities = 90;
  Table table = DatasetGenerator(53).Generate(profile);
  std::unordered_set<uint64_t> reference;
  size_t reference_questions = 0;
  bool first = true;
  for (BuilderKind builder :
       {BuilderKind::kBruteForce, BuilderKind::kQuickSort,
        BuilderKind::kRangeTree}) {
    CrowdOracle oracle(&table, Band80(), WorkerModel::kExactAccuracy, 5, 5);
    PowerConfig config;
    config.grouping = GroupingKind::kNone;
    config.builder = builder;
    config.seed = 9;
    PowerResult r = PowerFramework(config).Run(table, &oracle);
    if (first) {
      reference = r.matched_pairs;
      reference_questions = r.questions;
      first = false;
    } else {
      EXPECT_EQ(r.matched_pairs, reference)
          << BuilderKindName(builder);
      EXPECT_EQ(r.questions, reference_questions)
          << BuilderKindName(builder);
    }
  }
}

TEST(PipelineConsistency, MatchedPairsComeFromCandidates) {
  DatasetProfile profile = CoraProfile();
  profile.num_records = 100;
  profile.num_entities = 25;
  Table table = DatasetGenerator(61).Generate(profile);
  CrowdOracle oracle(&table, Band80(), WorkerModel::kExactAccuracy, 5, 2);
  PowerConfig config;
  config.error_tolerant = true;
  std::vector<std::pair<int, int>> candidates =
      GenerateCandidates(FeatureCache(table), config.prune_tau,
                         config.candidate_method);
  std::unordered_set<uint64_t> candidate_keys;
  for (const auto& [i, j] : candidates) candidate_keys.insert(PairKey(i, j));
  PowerResult r = PowerFramework(config).Run(table, &oracle);
  for (uint64_t key : r.matched_pairs) {
    EXPECT_TRUE(candidate_keys.count(key) > 0);
  }
}

}  // namespace
}  // namespace power
