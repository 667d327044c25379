#include <gtest/gtest.h>

#include "blocking/pair_generator.h"
#include "data/generator.h"
#include "eval/experiment.h"

namespace power {
namespace {

class ExperimentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetProfile profile = RestaurantProfile();
    profile.num_records = 140;
    profile.num_entities = 100;
    table_ = DatasetGenerator(51).Generate(profile);
    candidates_ = AllPairsCandidates(FeatureCache(table_), 0.3);
    ASSERT_GT(candidates_.size(), 10u);
  }
  Table table_;
  std::vector<std::pair<int, int>> candidates_;
};

TEST_F(ExperimentFixture, RunAllMethodsProducesFiveRows) {
  ExperimentSetup setup;
  setup.band = Band90();
  auto rows = RunAllMethods(table_, candidates_, setup);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].method, Method::kPower);
  EXPECT_EQ(rows[1].method, Method::kPowerPlus);
  EXPECT_EQ(rows[2].method, Method::kTrans);
  EXPECT_EQ(rows[3].method, Method::kAcd);
  EXPECT_EQ(rows[4].method, Method::kGcer);
  for (const auto& row : rows) {
    EXPECT_GT(row.questions, 0u) << MethodName(row.method);
    EXPECT_GT(row.iterations, 0u) << MethodName(row.method);
    EXPECT_GE(row.quality.f1, 0.0);
    EXPECT_LE(row.quality.f1, 1.0);
    EXPECT_GT(row.dollars, 0.0);
  }
}

TEST_F(ExperimentFixture, PowerAsksFarFewerQuestionsThanBaselines) {
  // The paper's headline (Fig. 10/13): Power asks 1-2 orders of magnitude
  // fewer questions than ACD/GCER and clearly fewer than Trans.
  ExperimentSetup setup;
  setup.band = Band90();
  auto rows = RunAllMethods(table_, candidates_, setup);
  size_t power_q = rows[0].questions;
  size_t trans_q = rows[2].questions;
  size_t acd_q = rows[3].questions;
  EXPECT_LT(power_q, trans_q);
  EXPECT_LT(power_q, acd_q);
  // On this 63-candidate slice the gap is ~2x; the orders-of-magnitude gap
  // the paper reports needs full-size datasets and is checked by
  // bench_accuracy_*.
  EXPECT_LE(power_q * 2, acd_q);
}

TEST_F(ExperimentFixture, HighAccuracyGivesHighQualityForAllMethods) {
  ExperimentSetup setup;
  setup.band = Band90();
  for (const auto& row : RunAllMethods(table_, candidates_, setup)) {
    EXPECT_GT(row.quality.f1, 0.8) << MethodName(row.method);
  }
}

TEST_F(ExperimentFixture, GcerBudgetDefaultsToAcdQuestions) {
  ExperimentSetup setup;
  auto rows = RunAllMethods(table_, candidates_, setup);
  EXPECT_LE(rows[4].questions, rows[3].questions);
}

TEST_F(ExperimentFixture, RowsAreDeterministic) {
  ExperimentSetup setup;
  setup.seed = 77;
  auto a = RunMethod(Method::kPower, table_, candidates_, setup);
  auto b = RunMethod(Method::kPower, table_, candidates_, setup);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.quality.f1, b.quality.f1);
}

TEST_F(ExperimentFixture, CostUsesPaperPricing) {
  ExperimentSetup setup;
  auto row = RunMethod(Method::kPower, table_, candidates_, setup);
  // 10 questions/HIT, $0.10/HIT, 5 workers.
  size_t hits = (row.questions + 9) / 10;
  EXPECT_DOUBLE_EQ(row.dollars, hits * 0.10 * 5);
}

TEST(MethodNameTest, AllNamed) {
  EXPECT_STREQ(MethodName(Method::kPower), "Power");
  EXPECT_STREQ(MethodName(Method::kPowerPlus), "Power+");
  EXPECT_STREQ(MethodName(Method::kTrans), "Trans");
  EXPECT_STREQ(MethodName(Method::kAcd), "ACD");
  EXPECT_STREQ(MethodName(Method::kGcer), "GCER");
  EXPECT_EQ(AllMethods().size(), 5u);
}

}  // namespace
}  // namespace power
