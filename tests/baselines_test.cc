#include <gtest/gtest.h>

#include "baselines/acd.h"
#include "baselines/cluster_state.h"
#include "baselines/gcer.h"
#include "baselines/trans.h"
#include "blocking/pair_generator.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "data/paper_example.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace power {
namespace {

CrowdOracle PerfectOracle(const Table& table) {
  return CrowdOracle(&table, {1.0, 1.0}, WorkerModel::kExactAccuracy, 5, 1);
}

TEST(ClusterStateTest, UnionAndInference) {
  ClusterState cs(5);
  EXPECT_EQ(cs.Infer(0, 1), ClusterState::Inference::kUnknown);
  EXPECT_TRUE(cs.Union(0, 1));
  EXPECT_EQ(cs.Infer(0, 1), ClusterState::Inference::kYes);
  EXPECT_TRUE(cs.Union(1, 2));
  // Positive transitivity.
  EXPECT_EQ(cs.Infer(0, 2), ClusterState::Inference::kYes);
}

TEST(ClusterStateTest, NegativeTransitivity) {
  ClusterState cs(5);
  cs.Union(0, 1);
  EXPECT_TRUE(cs.MarkDifferent(1, 2));
  // a=b, b≠c => a≠c.
  EXPECT_EQ(cs.Infer(0, 2), ClusterState::Inference::kNo);
  // Joining 2 with 3 keeps the constraint at cluster level.
  cs.Union(2, 3);
  EXPECT_EQ(cs.Infer(0, 3), ClusterState::Inference::kNo);
}

TEST(ClusterStateTest, ContradictionReportedButMergeWins) {
  ClusterState cs(4);
  cs.MarkDifferent(0, 1);
  EXPECT_FALSE(cs.Union(0, 1));  // contradiction flagged
  EXPECT_EQ(cs.Infer(0, 1), ClusterState::Inference::kYes);
}

TEST(ClusterStateTest, MarkDifferentWithinClusterRejected) {
  ClusterState cs(3);
  cs.Union(0, 1);
  EXPECT_FALSE(cs.MarkDifferent(0, 1));
  EXPECT_EQ(cs.Infer(0, 1), ClusterState::Inference::kYes);
}

TEST(ClusterStateTest, ConstraintsRehomedAcrossUnions) {
  ClusterState cs(6);
  cs.MarkDifferent(0, 5);
  cs.Union(0, 1);
  cs.Union(1, 2);
  cs.Union(5, 4);
  EXPECT_EQ(cs.Infer(2, 4), ClusterState::Inference::kNo);
}

TEST(ClusterStateTest, MatchedPairsAndClusters) {
  ClusterState cs(5);
  cs.Union(0, 1);
  cs.Union(1, 2);
  auto matched = cs.MatchedPairs();
  EXPECT_EQ(matched.size(), 3u);  // {0,1},{0,2},{1,2}
  EXPECT_TRUE(matched.count(PairKey(0, 2)));
  auto clusters = cs.Clusters();
  EXPECT_EQ(clusters.size(), 3u);  // {0,1,2}, {3}, {4}
}

class BaselinePerfect : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = PaperExampleTable();
    candidates_.clear();
    for (const auto& p : PaperExamplePairs()) {
      candidates_.push_back({p.i, p.j});
    }
    truth_ = TrueMatchPairs(table_);
  }
  Table table_;
  std::vector<std::pair<int, int>> candidates_;
  std::unordered_set<uint64_t> truth_;
};

TEST_F(BaselinePerfect, TransResolvesExactlyWithPerfectWorkers) {
  CrowdOracle oracle = PerfectOracle(table_);
  ErResult r = RunTrans(table_, candidates_, &oracle);
  EXPECT_DOUBLE_EQ(ComputePrf(r.matched_pairs, truth_).f1, 1.0);
  EXPECT_GT(r.questions, 0u);
  // Transitivity saves at least the within-cluster closure questions.
  EXPECT_LT(r.questions, candidates_.size());
  EXPECT_GT(r.iterations, 0u);
}

TEST_F(BaselinePerfect, AcdResolvesWithPerfectWorkers) {
  CrowdOracle oracle = PerfectOracle(table_);
  ErResult r = RunAcd(table_, candidates_, &oracle);
  EXPECT_GE(ComputePrf(r.matched_pairs, truth_).f1, 0.99);
  EXPECT_GT(r.questions, 0u);
}

TEST_F(BaselinePerfect, GcerResolvesWithPerfectWorkersAndFullBudget) {
  CrowdOracle oracle = PerfectOracle(table_);
  GcerConfig config;  // budget 0 = all candidates
  ErResult r = RunGcer(table_, candidates_, &oracle, config);
  EXPECT_DOUBLE_EQ(ComputePrf(r.matched_pairs, truth_).f1, 1.0);
  EXPECT_EQ(r.questions, candidates_.size());
}

TEST_F(BaselinePerfect, GcerRespectsBudgetAndBatchSize) {
  CrowdOracle oracle = PerfectOracle(table_);
  GcerConfig config;
  config.budget = 7;
  config.per_iteration = 3;
  ErResult r = RunGcer(table_, candidates_, &oracle, config);
  EXPECT_EQ(r.questions, 7u);
  EXPECT_EQ(r.iterations, 3u);  // 3 + 3 + 1
}

TEST(BaselineGeneratedTest, QuestionOrderingMatchesPaperShape) {
  // On a generated Restaurant slice: Trans asks fewer than ACD (which asks
  // nearly all uncertain pairs), and both ask plenty compared to Power
  // (validated in experiment_test).
  DatasetProfile profile = RestaurantProfile();
  profile.num_records = 150;
  profile.num_entities = 110;
  Table table = DatasetGenerator(41).Generate(profile);
  auto candidates = AllPairsCandidates(FeatureCache(table), 0.3);
  ASSERT_GT(candidates.size(), 20u);

  CrowdOracle o1 = PerfectOracle(table);
  ErResult trans = RunTrans(table, candidates, &o1);
  CrowdOracle o2 = PerfectOracle(table);
  ErResult acd = RunAcd(table, candidates, &o2);

  EXPECT_LE(trans.questions, candidates.size());
  EXPECT_GT(acd.questions, 0u);
  auto truth = TrueMatchPairs(table);
  EXPECT_GT(ComputePrf(trans.matched_pairs, truth).f1, 0.9);
  EXPECT_GT(ComputePrf(acd.matched_pairs, truth).f1, 0.9);
}

TEST(BaselineNoisyTest, AcdToleratesNoiseBetterThanTrans) {
  DatasetProfile profile = CoraProfile();
  profile.num_records = 120;
  profile.num_entities = 24;
  Table table = DatasetGenerator(43).Generate(profile);
  auto candidates = AllPairsCandidates(FeatureCache(table), 0.3);
  auto truth = TrueMatchPairs(table);

  double f_trans = 0.0;
  double f_acd = 0.0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    CrowdOracle o1(&table, Band70(), WorkerModel::kExactAccuracy, 5, seed);
    f_trans += ComputePrf(RunTrans(table, candidates, &o1).matched_pairs,
                          truth)
                   .f1;
    AcdConfig config;
    config.seed = seed;
    CrowdOracle o2(&table, Band70(), WorkerModel::kExactAccuracy, 5, seed);
    f_acd += ComputePrf(
                 RunAcd(table, candidates, &o2, config).matched_pairs, truth)
                 .f1;
  }
  // The paper's Figure 12 shape: ACD degrades less than Trans under noise.
  EXPECT_GT(f_acd, f_trans - 0.15);
}

}  // namespace
}  // namespace power
