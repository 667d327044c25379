#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "blocking/pair_generator.h"
#include "blocking/prefix_join.h"
#include "data/generator.h"
#include "data/paper_example.h"

namespace power {
namespace {

TEST(AllPairsTest, ThresholdOneKeepsOnlyIdenticalTokenSets) {
  Table t = PaperExampleTable();
  auto pairs = AllPairsCandidates(FeatureCache(t), 1.0);
  // No two records of the running example share an identical token set.
  EXPECT_TRUE(pairs.empty());
}

TEST(AllPairsTest, ThresholdMonotonicity) {
  Table t = PaperExampleTable();
  const FeatureCache features(t);
  auto loose = AllPairsCandidates(features, 0.1);
  auto tight = AllPairsCandidates(features, 0.4);
  EXPECT_GE(loose.size(), tight.size());
  // Every tight pair is also a loose pair.
  for (const auto& p : tight) {
    EXPECT_NE(std::find(loose.begin(), loose.end(), p), loose.end());
  }
}

TEST(AllPairsTest, PairsAreOrderedAndDistinct) {
  Table t = PaperExampleTable();
  const FeatureCache features(t);
  auto pairs = AllPairsCandidates(features, 0.2);
  for (const auto& [i, j] : pairs) {
    EXPECT_LT(i, j);
  }
  auto sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

class PrefixJoinEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(PrefixJoinEquivalence, MatchesAllPairsOnPaperExample) {
  double tau = GetParam();
  Table t = PaperExampleTable();
  const FeatureCache features(t);
  auto brute = AllPairsCandidates(features, tau);
  auto joined = PrefixFilterJoin(features, tau);
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(joined, brute);
}

TEST_P(PrefixJoinEquivalence, MatchesAllPairsOnGeneratedData) {
  double tau = GetParam();
  DatasetProfile p = RestaurantProfile();
  p.num_records = 150;
  p.num_entities = 90;
  Table t = DatasetGenerator(77).Generate(p);
  const FeatureCache features(t);
  auto brute = AllPairsCandidates(features, tau);
  auto joined = PrefixFilterJoin(features, tau);
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(joined, brute) << "tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PrefixJoinEquivalence,
                         ::testing::Values(0.2, 0.3, 0.5, 0.7, 0.9));

TEST(PrefixJoinTest, HandlesDuplicateRecords) {
  Schema schema({{"a", SimilarityFunction::kJaccard}});
  Table t(schema);
  t.Add({-1, 0, {"alpha beta"}});
  t.Add({-1, 0, {"alpha beta"}});
  t.Add({-1, 1, {"gamma delta"}});
  auto pairs = PrefixFilterJoin(FeatureCache(t), 0.5);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<int, int>{0, 1}));
}

TEST(PrefixJoinTest, EmptyAndSingletonTables) {
  Schema schema({{"a", SimilarityFunction::kJaccard}});
  Table empty(schema);
  EXPECT_TRUE(PrefixFilterJoin(FeatureCache(empty), 0.3).empty());
  Table one(schema);
  one.Add({-1, 0, {"solo"}});
  EXPECT_TRUE(PrefixFilterJoin(FeatureCache(one), 0.3).empty());
}

TEST(GenerateCandidatesTest, DispatchAgrees) {
  Table t = PaperExampleTable();
  const FeatureCache features(t);
  auto a = GenerateCandidates(features, 0.3, CandidateMethod::kAllPairs);
  auto b = GenerateCandidates(features, 0.3, CandidateMethod::kPrefixJoin);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

Table RestaurantTable(size_t records, size_t entities, uint64_t seed) {
  DatasetProfile p = RestaurantProfile();
  p.num_records = records;
  p.num_entities = entities;
  return DatasetGenerator(seed).Generate(p);
}

// Every method refuses a threshold outside (0, 1] the same way at every
// table size, naming the value. (The all-pairs scan on its own would keep
// every pair at tau <= 0.)
TEST(GenerateCandidatesDeathTest, RejectsTauOutsideUnitIntervalAtEverySize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (size_t records : {size_t{10}, size_t{3000}}) {
    SCOPED_TRACE(records);
    Table t = RestaurantTable(records, records / 2, 8);
    FeatureCache features(t);
    for (CandidateMethod method :
         {CandidateMethod::kAllPairs, CandidateMethod::kPrefixJoin}) {
      SCOPED_TRACE(CandidateMethodName(method));
      EXPECT_DEATH(GenerateCandidates(features, 0.0, method),
                   "tau=0 is outside \\(0, 1\\]");
      EXPECT_DEATH(GenerateCandidates(features, 1.5, method),
                   "tau=1.5 is outside \\(0, 1\\]");
      EXPECT_DEATH(GenerateCandidates(
                       features, std::numeric_limits<double>::quiet_NaN(),
                       method),
                   "tau=-?nan is outside \\(0, 1\\]");
    }
  }
}

}  // namespace
}  // namespace power
