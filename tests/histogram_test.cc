#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/histogram.h"
#include "data/paper_example.h"

namespace power {
namespace {

std::vector<double> PairSims(int a, int b) {
  return PaperExamplePairs()[PaperExamplePairIndex(a, b)].sims;
}

std::vector<std::span<const double>> Rows(
    const std::vector<std::vector<double>>& sims) {
  return {sims.begin(), sims.end()};
}

TEST(AttributeWeightsTest, PaperAppendixCValues) {
  // Appendix C: P^g = {p13, p67, p45, p23, p46, p56, p47, p57}
  //   -> ω = {0.32, 0.28, 0.21, 0.19}.
  std::vector<std::vector<double>> greens = {
      PairSims(1, 3), PairSims(6, 7), PairSims(4, 5), PairSims(2, 3),
      PairSims(4, 6), PairSims(5, 6), PairSims(4, 7), PairSims(5, 7)};
  auto w = ComputeAttributeWeights(Rows(greens), 4);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_NEAR(w[0], 0.32, 0.005);
  EXPECT_NEAR(w[1], 0.28, 0.005);
  EXPECT_NEAR(w[2], 0.21, 0.005);
  EXPECT_NEAR(w[3], 0.19, 0.005);
  // Weights sum to 1.
  EXPECT_NEAR(w[0] + w[1] + w[2] + w[3], 1.0, 1e-12);
}

TEST(AttributeWeightsTest, UniformFallbackWithoutGreens) {
  auto w = ComputeAttributeWeights({}, 4);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 0.25);
  const std::vector<double> zero = {0.0, 0.0};
  auto w2 = ComputeAttributeWeights({zero}, 2);
  for (double x : w2) EXPECT_DOUBLE_EQ(x, 0.5);
}

TEST(WeightedSimilarityTest, PaperFigure18Values) {
  std::vector<std::vector<double>> greens = {
      PairSims(1, 3), PairSims(6, 7), PairSims(4, 5), PairSims(2, 3),
      PairSims(4, 6), PairSims(5, 6), PairSims(4, 7), PairSims(5, 7)};
  auto w = ComputeAttributeWeights(Rows(greens), 4);
  // Figure 18's estimated similarities (±0.015: the paper prints weights
  // rounded to two decimals).
  EXPECT_NEAR(WeightedSimilarity(PairSims(1, 2), w), 0.72, 0.015);
  EXPECT_NEAR(WeightedSimilarity(PairSims(4, 5), w), 0.97, 0.015);
  EXPECT_NEAR(WeightedSimilarity(PairSims(6, 7), w), 0.98, 0.015);
  EXPECT_NEAR(WeightedSimilarity(PairSims(2, 4), w), 0.28, 0.015);
  EXPECT_NEAR(WeightedSimilarity(PairSims(2, 5), w), 0.29, 0.015);
  EXPECT_NEAR(WeightedSimilarity(PairSims(3, 7), w), 0.21, 0.015);
  EXPECT_NEAR(WeightedSimilarity(PairSims(8, 9), w), 0.37, 0.015);
}

TEST(EquiWidthHistogramTest, PaperFigure19Probabilities) {
  // 5 histograms of width 0.2 over the colored pairs; Pr5 = 1, Pr4 = 1,
  // Pr3 = 4/7, Pr2 = 0 (Appendix C / §6).
  std::vector<std::vector<double>> greens = {
      PairSims(1, 3), PairSims(6, 7), PairSims(4, 5), PairSims(2, 3),
      PairSims(4, 6), PairSims(5, 6), PairSims(4, 7), PairSims(5, 7)};
  auto w = ComputeAttributeWeights(Rows(greens), 4);

  std::vector<SimilarityHistogram::LabeledSample> samples;
  for (const auto& g : greens) {
    samples.push_back({WeightedSimilarity(g, w), true});
  }
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {10, 11}, {2, 6}, {2, 7}, {3, 7}, {8, 9}, {3, 4}, {3, 5}}) {
    samples.push_back({WeightedSimilarity(PairSims(a, b), w), false});
  }
  auto hist = SimilarityHistogram::EquiWidth(samples, 5);
  ASSERT_EQ(hist.bins().size(), 5u);
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.9), 1.0);  // h5: {p45, p67}
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.7), 1.0);  // h4
  // h3 [0.4, 0.6): with exact (unrounded) weights ŝ23 = 0.586 lands in h3
  // rather than the paper's rounded 0.60 in h4, so h3 holds 5 GREEN
  // ({p46,p56,p47,p57,p23}) and 3 RED ({p10-11,p26,p27}): Pr3 = 5/8. The
  // paper's rounded arithmetic gives Pr3 = 4/7 — both > 0.5, same coloring.
  EXPECT_NEAR(hist.GreenProbability(0.45), 5.0 / 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.3), 0.0);  // h2

  // The paper's BLUE pairs: p12 -> h4 -> GREEN; p24, p25 -> h2 -> RED.
  EXPECT_GT(hist.GreenProbability(WeightedSimilarity(PairSims(1, 2), w)),
            0.5);
  EXPECT_LT(hist.GreenProbability(WeightedSimilarity(PairSims(2, 4), w)),
            0.5);
  EXPECT_LT(hist.GreenProbability(WeightedSimilarity(PairSims(2, 5), w)),
            0.5);
}

TEST(EquiWidthHistogramTest, BinIndexBoundaries) {
  auto hist = SimilarityHistogram::EquiWidth({}, 4);
  EXPECT_EQ(hist.BinIndex(0.0), 0);
  EXPECT_EQ(hist.BinIndex(0.24), 0);
  EXPECT_EQ(hist.BinIndex(0.25), 1);
  EXPECT_EQ(hist.BinIndex(0.999), 3);
  EXPECT_EQ(hist.BinIndex(1.0), 3);
  EXPECT_EQ(hist.BinIndex(-0.5), 0);
  EXPECT_EQ(hist.BinIndex(2.0), 3);
}

TEST(HistogramTest, EmptyBinInheritsNearestNonEmpty) {
  std::vector<SimilarityHistogram::LabeledSample> samples = {
      {0.05, false}, {0.95, true}};
  auto hist = SimilarityHistogram::EquiWidth(samples, 10);
  // Low half inherits the RED evidence, high half the GREEN evidence.
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.2), 0.0);
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.8), 1.0);
}

TEST(HistogramTest, NoSamplesFallsBackToPrior) {
  auto hist = SimilarityHistogram::EquiWidth({}, 10);
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.3), 0.3);
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.9), 0.9);
}

TEST(EquiDepthHistogramTest, BinsHoldSimilarCounts) {
  std::vector<SimilarityHistogram::LabeledSample> samples;
  for (int i = 0; i < 100; ++i) {
    samples.push_back({i / 100.0, i >= 50});
  }
  auto hist = SimilarityHistogram::EquiDepth(samples, 5);
  ASSERT_EQ(hist.bins().size(), 5u);
  for (const auto& bin : hist.bins()) {
    EXPECT_NEAR(bin.total, 20, 1);
  }
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.1), 0.0);
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.9), 1.0);
}

TEST(EquiDepthHistogramTest, HeavyTiesCollapseBins) {
  std::vector<SimilarityHistogram::LabeledSample> samples(
      50, {0.5, true});
  auto hist = SimilarityHistogram::EquiDepth(samples, 5);
  // All samples identical: quantile edges collapse.
  EXPECT_LE(hist.bins().size(), 5u);
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.5), 1.0);
}

TEST(EquiDepthHistogramTest, EmptySamples) {
  auto hist = SimilarityHistogram::EquiDepth({}, 5);
  EXPECT_DOUBLE_EQ(hist.GreenProbability(0.4), 0.4);
}

}  // namespace
}  // namespace power
