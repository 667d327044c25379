#include <stdlib.h>

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "data/paper_example.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "sim/feature_cache.h"
#include "sim/similarity_matrix.h"

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

// ---------------------------------------------------------------------------
// A perfect crowd on truth that is monotone in the similarity vector: a pair
// matches exactly when its row dominates a fixed threshold vector. If a pair
// matches, so does every pair whose row dominates it, and if it does not,
// neither does any pair it dominates, so dominance inference cannot color a
// pair wrongly. Every configuration whose groups hold one row each
// (NonGroup, or Split at epsilon 0) must then return the truth exactly,
// asking at most one question per group.
// ---------------------------------------------------------------------------

struct MonotoneCase {
  GroupingKind grouping;
  BuilderKind builder;
  SelectorKind selector;
};

void PrintTo(const MonotoneCase& c, std::ostream* os) {
  *os << GroupingKindName(c.grouping) << "_" << BuilderKindName(c.builder)
      << "_" << SelectorKindName(c.selector);
}

// Answers yes, with every vote, exactly when the pair's row is at least
// `threshold` in every attribute.
class DominanceOracle : public PairOracle {
 public:
  DominanceOracle(const SimilarityTable& pairs,
                  const std::vector<double>& threshold) {
    for (size_t p = 0; p < pairs.size(); ++p) {
      const std::span<const double> row = pairs.row(p);
      bool yes = true;
      for (size_t k = 0; k < row.size(); ++k) yes &= row[k] >= threshold[k];
      const uint64_t key = PairKey(pairs.ids[p].first, pairs.ids[p].second);
      answers_[key] = yes;
      if (yes) truth_.insert(key);
    }
  }

  VoteResult Ask(int i, int j) override {
    return {answers_.at(PairKey(i, j)) ? 3 : 0, 3};
  }

  const std::unordered_set<uint64_t>& truth() const { return truth_; }

 private:
  std::unordered_map<uint64_t, bool> answers_;
  std::unordered_set<uint64_t> truth_;
};

struct MonotoneInput {
  std::string name;
  SimilarityTable pairs;
  // Per attribute, the 40th percentile of the pairs' values.
  std::vector<double> threshold;
};

// The candidates of 300 generated records at the default tau, thinned by a
// fixed stride to at most 1,000 pairs: these tables have a few dozen
// distinct rows over thousands of pairs, and NonGroup's graph joins every
// pair to every pair it dominates.
MonotoneInput MakeMonotoneInput(std::string name, DatasetProfile profile) {
  profile.num_entities = profile.num_entities * 300 / profile.num_records;
  profile.num_records = 300;
  const Table table = DatasetGenerator(41).Generate(profile);
  const FeatureCache features(table);
  const PowerConfig defaults;
  const std::vector<std::pair<int, int>> candidates = GenerateCandidates(
      features, defaults.prune_tau, CandidateMethod::kAllPairs);
  const size_t stride = (candidates.size() + 999) / 1000;
  std::vector<std::pair<int, int>> kept;
  for (size_t p = 0; p < candidates.size(); p += stride) {
    kept.push_back(candidates[p]);
  }
  MonotoneInput input{std::move(name), {}, {}};
  input.pairs =
      ComputeSimilarityTable(features, kept, defaults.component_floor);
  for (size_t k = 0; k < input.pairs.m; ++k) {
    std::vector<double> values;
    for (size_t p = 0; p < input.pairs.size(); ++p) {
      values.push_back(input.pairs.row(p)[k]);
    }
    std::sort(values.begin(), values.end());
    input.threshold.push_back(values[values.size() * 2 / 5]);
  }
  return input;
}

class MonotoneTruth : public ::testing::TestWithParam<MonotoneCase> {};

TEST_P(MonotoneTruth, PerfectCrowdReturnsTheTruthExactly) {
  static const std::vector<MonotoneInput> inputs = {
      MakeMonotoneInput("ACMPub", AcmPubProfile(1.0)),
      MakeMonotoneInput("Cora", CoraProfile())};
  const MonotoneCase& c = GetParam();
  for (const MonotoneInput& input : inputs) {
    SCOPED_TRACE(input.name);
    DominanceOracle oracle(input.pairs, input.threshold);
    ASSERT_GT(oracle.truth().size(), 0u);
    ASSERT_LT(oracle.truth().size(), input.pairs.size());

    PowerConfig config;
    config.grouping = c.grouping;
    config.epsilon = 0.0;
    config.builder = c.builder;
    config.selector = c.selector;
    const PowerResult result =
        PowerFramework(config).RunOnPairs(input.pairs, &oracle);

    EXPECT_EQ(result.matched_pairs, oracle.truth());
    EXPECT_DOUBLE_EQ(ComputePrf(result.matched_pairs, oracle.truth()).f1,
                     1.0);
    EXPECT_GT(result.questions, 0u);
    EXPECT_LE(result.questions, result.num_groups);
  }
}

std::vector<MonotoneCase> MonotoneCases() {
  std::vector<MonotoneCase> cases;
  for (SelectorKind selector :
       {SelectorKind::kRandom, SelectorKind::kSinglePath,
        SelectorKind::kMultiPath, SelectorKind::kTopoSort}) {
    for (BuilderKind builder : {BuilderKind::kBruteForce,
                                BuilderKind::kQuickSort,
                                BuilderKind::kRangeTree}) {
      cases.push_back({GroupingKind::kNone, builder, selector});
    }
    cases.push_back({GroupingKind::kSplit, BuilderKind::kRangeTree, selector});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Configs, MonotoneTruth,
                         ::testing::ValuesIn(MonotoneCases()));

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

// A NaN component floor or confidence threshold is refused before anything
// else runs, by Run and RunOnPairs alike. NaN compares false with
// everything: the floor would clamp no component, and the threshold would
// switch Power+'s gate off. A threshold above 1 stays legal.
TEST(PowerFrameworkDeathTest, RejectsNaNFloorAndConfidenceThreshold) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table table = PaperExampleTable();
  CrowdOracle oracle = PerfectOracle(table);
  const std::vector<SimilarPair> pairs = PaperExamplePairs();
  PowerConfig bad_floor;
  bad_floor.component_floor = std::numeric_limits<double>::quiet_NaN();
  PowerConfig bad_threshold;
  bad_threshold.error_tolerant = true;
  bad_threshold.confidence_threshold =
      std::numeric_limits<double>::quiet_NaN();
  const std::pair<PowerConfig, std::string> cases[] = {
      {bad_floor, "power: component_floor=-?nan must be a number"},
      {bad_threshold, "power: confidence_threshold=-?nan must be a number"}};
  for (const auto& [config, message] : cases) {
    SCOPED_TRACE(message);
    EXPECT_FALSE(ValidateConfig(config).empty());
    EXPECT_DEATH(PowerFramework(config).Run(table, &oracle), message);
    EXPECT_DEATH(PowerFramework(config).RunOnPairs(pairs, &oracle), message);
  }
  PowerConfig above_one;
  above_one.error_tolerant = true;
  above_one.confidence_threshold = 1.1;
  EXPECT_EQ(ValidateConfig(above_one), "");
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

// A prune threshold outside (0, 1] is refused by ValidateConfig, with
// GenerateCandidates' message, so Run fails before it builds the feature
// cache and RunOnPairs fails too.
TEST(PowerFrameworkDeathTest, ValidateConfigRefusesTauOutsideTheUnitInterval) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::pair<double, std::string> cases[] = {
      {0.0, "0"},
      {-0.1, "-0.1"},
      {1.5, "1.5"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"}};
  Table table = PaperExampleTable();
  CrowdOracle oracle = PerfectOracle(table);
  for (const auto& [tau, text] : cases) {
    SCOPED_TRACE(text);
    PowerConfig config;
    config.prune_tau = tau;
    const std::string message =
        "power: candidate threshold tau=" + text + " is outside (0, 1]";
    EXPECT_EQ(ValidateConfig(config), message);
    EXPECT_EQ(CandidateThresholdError(tau), message);
    EXPECT_DEATH(PowerFramework(config).RunOnPairs(SimilarityTable(), &oracle),
                 "power: candidate threshold tau=");
  }
  for (const double tau : {1e-9, 0.3, 1.0}) {
    PowerConfig config;
    config.prune_tau = tau;
    EXPECT_EQ(ValidateConfig(config), "");
  }
}

// Run reports the record classes its front end worked on: the distinct cell
// tuples. A copy of every record adds records but no class.
TEST(PowerFrameworkTest, RunReportsRecordClasses) {
  const Table base = PaperExampleTable();
  Table doubled(base.schema());
  for (int copy = 0; copy < 2; ++copy) {
    for (const Record& r : base.records()) doubled.Add(r);
  }
  for (const Table* table : {&base, static_cast<const Table*>(&doubled)}) {
    CrowdOracle oracle = PerfectOracle(*table);
    const PowerResult result =
        PowerFramework(PowerConfig()).Run(*table, &oracle);
    EXPECT_EQ(result.num_record_classes, base.num_records());
  }
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
