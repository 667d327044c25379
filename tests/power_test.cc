#include <stdlib.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "data/paper_example.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace power {
namespace {

CrowdOracle PerfectOracle(const Table& table, uint64_t seed = 1) {
  return CrowdOracle(&table, {1.0, 1.0}, WorkerModel::kExactAccuracy, 5,
                     seed);
}

struct PipelineCase {
  GroupingKind grouping;
  SelectorKind selector;
  BuilderKind builder;
};

// The discovered ctest name carries the printed parameter: print the
// fields, not gtest's dump of the struct's bytes.
void PrintTo(const PipelineCase& c, std::ostream* os) {
  *os << GroupingKindName(c.grouping) << "_" << SelectorKindName(c.selector)
      << "_" << BuilderKindName(c.builder);
}

class PowerPipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PowerPipeline, PerfectWorkersResolvePaperExampleExactly) {
  const PipelineCase& c = GetParam();
  Table table = PaperExampleTable();
  CrowdOracle oracle = PerfectOracle(table);

  PowerConfig config;
  config.grouping = c.grouping;
  config.selector = c.selector;
  config.builder = c.builder;
  PowerFramework framework(config);
  PowerResult result = framework.RunOnPairs(PaperExamplePairs(), &oracle);

  auto truth = TrueMatchPairs(table);
  auto prf = ComputePrf(result.matched_pairs, truth);
  EXPECT_DOUBLE_EQ(prf.f1, 1.0)
      << "grouping=" << GroupingKindName(c.grouping)
      << " selector=" << SelectorKindName(c.selector);
  EXPECT_GT(result.questions, 0u);
  EXPECT_LE(result.questions, 18u);
  EXPECT_EQ(result.num_pairs, 18u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PowerPipeline,
    ::testing::Values(
        PipelineCase{GroupingKind::kNone, SelectorKind::kSinglePath,
                     BuilderKind::kBruteForce},
        PipelineCase{GroupingKind::kNone, SelectorKind::kTopoSort,
                     BuilderKind::kRangeTree},
        PipelineCase{GroupingKind::kNone, SelectorKind::kMultiPath,
                     BuilderKind::kQuickSort},
        PipelineCase{GroupingKind::kNone, SelectorKind::kRandom,
                     BuilderKind::kRangeTree},
        PipelineCase{GroupingKind::kSplit, SelectorKind::kSinglePath,
                     BuilderKind::kRangeTree},
        PipelineCase{GroupingKind::kSplit, SelectorKind::kTopoSort,
                     BuilderKind::kRangeTree},
        PipelineCase{GroupingKind::kSplit, SelectorKind::kMultiPath,
                     BuilderKind::kRangeTree},
        PipelineCase{GroupingKind::kGreedy, SelectorKind::kTopoSort,
                     BuilderKind::kRangeTree},
        PipelineCase{GroupingKind::kGreedy, SelectorKind::kSinglePath,
                     BuilderKind::kRangeTree}));

TEST(PowerFrameworkTest, GroupingReducesQuestions) {
  Table table = PaperExampleTable();
  PowerConfig grouped_config;
  grouped_config.grouping = GroupingKind::kSplit;
  grouped_config.selector = SelectorKind::kTopoSort;
  PowerConfig ungrouped_config = grouped_config;
  ungrouped_config.grouping = GroupingKind::kNone;

  CrowdOracle o1 = PerfectOracle(table);
  PowerResult grouped =
      PowerFramework(grouped_config).RunOnPairs(PaperExamplePairs(), &o1);
  CrowdOracle o2 = PerfectOracle(table);
  PowerResult ungrouped =
      PowerFramework(ungrouped_config).RunOnPairs(PaperExamplePairs(), &o2);

  EXPECT_EQ(grouped.num_groups, 9u);
  EXPECT_EQ(ungrouped.num_groups, 18u);
  EXPECT_LE(grouped.questions, ungrouped.questions);
}

TEST(PowerFrameworkTest, EndToEndRunOnGeneratedRestaurant) {
  DatasetProfile profile = RestaurantProfile();
  profile.num_records = 120;
  profile.num_entities = 90;
  Table table = DatasetGenerator(17).Generate(profile);
  CrowdOracle oracle = PerfectOracle(table);

  PowerConfig config;
  PowerFramework framework(config);
  PowerResult result = framework.Run(table, &oracle);

  auto prf = ComputePrf(result.matched_pairs, TrueMatchPairs(table));
  // With perfect workers quality is bounded only by pruning and partial-
  // order/grouping approximation; on this easy profile it must stay high.
  EXPECT_GT(prf.f1, 0.85);
  EXPECT_GT(result.num_pairs, 0u);
  EXPECT_LT(result.questions, result.num_pairs);
  EXPECT_GT(result.iterations, 0u);
}

TEST(PowerFrameworkTest, DeterministicGivenSeeds) {
  Table table = PaperExampleTable();
  PowerConfig config;
  config.selector = SelectorKind::kTopoSort;
  CrowdOracle o1(&table, Band70(), WorkerModel::kExactAccuracy, 5, 33);
  PowerResult r1 = PowerFramework(config).RunOnPairs(PaperExamplePairs(), &o1);
  CrowdOracle o2(&table, Band70(), WorkerModel::kExactAccuracy, 5, 33);
  PowerResult r2 = PowerFramework(config).RunOnPairs(PaperExamplePairs(), &o2);
  EXPECT_EQ(r1.questions, r2.questions);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.matched_pairs, r2.matched_pairs);
}

TEST(PowerFrameworkTest, PowerPlusMarksUnconfidentGroupsBlue) {
  // Force maximal ambiguity: a 50/50 band makes most votes unconfident, so
  // Power+ must fall back to histogram coloring rather than propagate.
  Table table = PaperExampleTable();
  PowerConfig config;
  config.error_tolerant = true;
  config.confidence_threshold = 0.9;
  CrowdOracle oracle(&table, {0.5, 0.5}, WorkerModel::kExactAccuracy, 5, 3);
  PowerResult result =
      PowerFramework(config).RunOnPairs(PaperExamplePairs(), &oracle);
  EXPECT_GT(result.num_blue_groups, 0u);
  // Every pair still gets a verdict (matched or implicitly unmatched).
  EXPECT_LE(result.matched_pairs.size(), 18u);
}

TEST(PowerFrameworkTest, PowerPlusNoWorseThanPowerWithNoisyWorkers) {
  DatasetProfile profile = CoraProfile();
  profile.num_records = 150;
  profile.num_entities = 30;
  Table table = DatasetGenerator(23).Generate(profile);
  auto truth = TrueMatchPairs(table);

  double f_power = 0.0;
  double f_plus = 0.0;
  // Average over seeds: single noisy runs are too variable for a strict
  // inequality.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    PowerConfig config;
    config.seed = seed;
    config.error_tolerant = false;
    CrowdOracle o1(&table, Band70(), WorkerModel::kExactAccuracy, 5, seed);
    f_power +=
        ComputePrf(PowerFramework(config).Run(table, &o1).matched_pairs,
                   truth)
            .f1;
    config.error_tolerant = true;
    CrowdOracle o2(&table, Band70(), WorkerModel::kExactAccuracy, 5, seed);
    f_plus +=
        ComputePrf(PowerFramework(config).Run(table, &o2).matched_pairs,
                   truth)
            .f1;
  }
  EXPECT_GE(f_plus + 0.25, f_power);  // Power+ must not be dramatically worse
}

TEST(PowerFrameworkTest, EmptyPairListIsFine) {
  Table table = PaperExampleTable();
  CrowdOracle oracle = PerfectOracle(table);
  PowerResult result = PowerFramework(PowerConfig{}).RunOnPairs(
      std::vector<SimilarPair>{}, &oracle);
  EXPECT_EQ(result.questions, 0u);
  EXPECT_TRUE(result.matched_pairs.empty());
}

// A negative or NaN epsilon is refused before anything else runs, with one
// message under every grouping kind and at every table size.
TEST(PowerFrameworkDeathTest, RejectsBadEpsilonUnderEveryGroupingAndSize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table table = PaperExampleTable();
  CrowdOracle oracle = PerfectOracle(table);
  const std::vector<SimilarPair> no_pairs;
  const std::vector<SimilarPair> small = PaperExamplePairs();
  for (GroupingKind grouping :
       {GroupingKind::kSplit, GroupingKind::kGreedy, GroupingKind::kNone}) {
    SCOPED_TRACE(GroupingKindName(grouping));
    for (const std::vector<SimilarPair>* pairs : {&no_pairs, &small}) {
      SCOPED_TRACE(pairs->size());
      PowerConfig config;
      config.grouping = grouping;
      config.epsilon = -0.1;
      EXPECT_DEATH(PowerFramework(config).RunOnPairs(*pairs, &oracle),
                   "grouping epsilon=-0\\.1 must be >= 0");
      config.epsilon = std::numeric_limits<double>::quiet_NaN();
      EXPECT_DEATH(PowerFramework(config).RunOnPairs(*pairs, &oracle),
                   "grouping epsilon=-?nan must be >= 0");
    }
  }
}

// max_ask_attempts = 0 is refused the same way: first, under every grouping
// kind, with or without pairs.
TEST(PowerFrameworkDeathTest, RejectsZeroAskAttemptsUnderEveryGroupingAndSize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table table = PaperExampleTable();
  CrowdOracle oracle = PerfectOracle(table);
  const std::vector<SimilarPair> no_pairs;
  const std::vector<SimilarPair> small = PaperExamplePairs();
  for (GroupingKind grouping :
       {GroupingKind::kSplit, GroupingKind::kGreedy, GroupingKind::kNone}) {
    SCOPED_TRACE(GroupingKindName(grouping));
    for (const std::vector<SimilarPair>* pairs : {&no_pairs, &small}) {
      SCOPED_TRACE(pairs->size());
      PowerConfig config;
      config.grouping = grouping;
      config.max_ask_attempts = 0;
      EXPECT_DEATH(PowerFramework(config).RunOnPairs(*pairs, &oracle),
                   "power: max_ask_attempts=0 must be >= 1");
    }
  }
}

// A histogram count below 1 is refused the same way: first, under every
// grouping kind, with or without pairs. With a one-question budget the
// paper example would otherwise reach Finish's histogram after paying for
// its question.
TEST(PowerFrameworkDeathTest,
     RejectsNonPositiveHistogramCountUnderEveryGroupingAndSize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table table = PaperExampleTable();
  CrowdOracle oracle = PerfectOracle(table);
  const std::vector<SimilarPair> no_pairs;
  const std::vector<SimilarPair> small = PaperExamplePairs();
  for (GroupingKind grouping :
       {GroupingKind::kSplit, GroupingKind::kGreedy, GroupingKind::kNone}) {
    SCOPED_TRACE(GroupingKindName(grouping));
    for (const std::vector<SimilarPair>* pairs : {&no_pairs, &small}) {
      SCOPED_TRACE(pairs->size());
      for (int histograms : {0, -1}) {
        PowerConfig config;
        config.grouping = grouping;
        config.max_questions = 1;
        config.tolerance.num_histograms = histograms;
        EXPECT_DEATH(PowerFramework(config).RunOnPairs(*pairs, &oracle),
                     "power: tolerance.num_histograms=" +
                         std::to_string(histograms) + " must be >= 1");
      }
    }
  }
}

// Run refuses a bad config before its first stage. Under POWER_VERBOSE the
// candidate stage logs a "power: candidates:" line, so a child whose whole
// stderr is the config message built no feature cache, no candidates and no
// similarity table.
TEST(PowerFrameworkDeathTest, RunRefusesABadConfigBeforeTheFrontEnd) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table table = PaperExampleTable();
  CrowdOracle oracle = PerfectOracle(table);
  PowerConfig bad_epsilon;
  bad_epsilon.epsilon = -0.1;
  PowerConfig bad_attempts;
  bad_attempts.max_ask_attempts = 0;
  PowerConfig bad_histograms;
  bad_histograms.tolerance.num_histograms = 0;
  const std::pair<PowerConfig, std::string> cases[] = {
      {bad_epsilon, "power: grouping epsilon=-0\\.1 must be >= 0"},
      {bad_attempts, "power: max_ask_attempts=0 must be >= 1"},
      {bad_histograms, "power: tolerance\\.num_histograms=0 must be >= 1"}};
  for (const auto& [config, message] : cases) {
    SCOPED_TRACE(message);
    EXPECT_FALSE(ValidateConfig(config).empty());
    EXPECT_DEATH(
        {
          ::setenv("POWER_VERBOSE", "1", /*overwrite=*/1);
          PowerFramework(config).Run(table, &oracle);
        },
        "^" + message + "\n$");
  }
  EXPECT_EQ(ValidateConfig(PowerConfig()), "");
}

TEST(PowerFrameworkTest, KindNamesAreStable) {
  EXPECT_STREQ(GroupingKindName(GroupingKind::kNone), "NonGroup");
  EXPECT_STREQ(GroupingKindName(GroupingKind::kSplit), "Split");
  EXPECT_STREQ(GroupingKindName(GroupingKind::kGreedy), "Greedy");
  EXPECT_STREQ(BuilderKindName(BuilderKind::kBruteForce), "BruteForce");
  EXPECT_STREQ(BuilderKindName(BuilderKind::kQuickSort), "QuickSort");
  EXPECT_STREQ(BuilderKindName(BuilderKind::kRangeTree), "Index");
}

}  // namespace
}  // namespace power
