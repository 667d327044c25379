#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "sim/similarity_matrix.h"

namespace power {
namespace {

TEST(SimilarityMatrixTest, ComputesVectorPerAttribute) {
  Table t = PaperExampleTable();
  SimilarPair p = ComputePairSimilarity(t, 0, 1, 0.0);
  EXPECT_EQ(p.i, 0);
  EXPECT_EQ(p.j, 1);
  ASSERT_EQ(p.sims.size(), 4u);
  // Attribute 2 (city, Jaccard): "atlanta" vs "atlanta" -> 1.
  EXPECT_DOUBLE_EQ(p.sims[2], 1.0);
  // Attribute 1 (address, Jaccard): the paper's worked value 0.4.
  EXPECT_DOUBLE_EQ(p.sims[1], 0.4);
}

TEST(SimilarityMatrixTest, NormalizesPairOrder) {
  Table t = PaperExampleTable();
  SimilarPair a = ComputePairSimilarity(t, 3, 1, 0.0);
  EXPECT_EQ(a.i, 1);
  EXPECT_EQ(a.j, 3);
  SimilarPair b = ComputePairSimilarity(t, 1, 3, 0.0);
  EXPECT_EQ(a.sims, b.sims);
}

TEST(SimilarityMatrixTest, ComponentFloorZeroesSmallSims) {
  Table t = PaperExampleTable();
  SimilarPair raw = ComputePairSimilarity(t, 0, 10, 0.0);
  SimilarPair floored = ComputePairSimilarity(t, 0, 10, 0.9);
  for (size_t k = 0; k < raw.sims.size(); ++k) {
    if (raw.sims[k] < 0.9) {
      EXPECT_DOUBLE_EQ(floored.sims[k], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(floored.sims[k], raw.sims[k]);
    }
  }
}

TEST(SimilarityMatrixTest, BatchMatchesSingle) {
  Table t = PaperExampleTable();
  std::vector<std::pair<int, int>> candidates = {{0, 1}, {0, 2}, {7, 8}};
  FeatureCache features(t);
  auto batch = ComputePairSimilarities(features, candidates, 0.2);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    SimilarPair single = ComputePairSimilarity(
        t, candidates[idx].first, candidates[idx].second, 0.2);
    EXPECT_EQ(batch[idx].sims, single.sims);
  }
}

TEST(SimilarityMatrixTest, RecordLevelJaccardIdentityAndRange) {
  Table t = PaperExampleTable();
  EXPECT_DOUBLE_EQ(RecordLevelJaccard(t, 3, 3), 1.0);
  for (int i = 0; i < 11; ++i) {
    for (int j = i + 1; j < 11; ++j) {
      double s = RecordLevelJaccard(t, i, j);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      EXPECT_DOUBLE_EQ(s, RecordLevelJaccard(t, j, i));
    }
  }
}

TEST(SimilarityMatrixTest, DuplicateRecordsScoreHigherThanUnrelated) {
  Table t = PaperExampleTable();
  // r4 vs r5 are near-identical duplicates; r4 vs r11 are unrelated.
  EXPECT_GT(RecordLevelJaccard(t, 3, 4), RecordLevelJaccard(t, 3, 10));
}

TEST(PairKeyTest, RoundTripAndNormalization) {
  uint64_t key = PairKey(7, 3);
  EXPECT_EQ(PairKeyFirst(key), 3);
  EXPECT_EQ(PairKeySecond(key), 7);
  EXPECT_EQ(key, PairKey(3, 7));
  EXPECT_NE(PairKey(1, 2), PairKey(1, 3));
}

}  // namespace
}  // namespace power
