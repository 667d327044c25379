#include "core/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace power {

std::vector<double> ComputeAttributeWeights(
    const std::vector<std::span<const double>>& green_sims, size_t m) {
  POWER_CHECK(m >= 1);
  std::vector<double> weights(m, 0.0);
  double denom = 0.0;
  for (std::span<const double> sims : green_sims) {
    POWER_CHECK(sims.size() == m);
    for (size_t k = 0; k < m; ++k) {
      weights[k] += sims[k];
      denom += sims[k];
    }
  }
  if (denom <= 0.0) {
    // No GREEN evidence: uniform weights.
    std::fill(weights.begin(), weights.end(), 1.0 / static_cast<double>(m));
    return weights;
  }
  for (double& w : weights) w /= denom;
  return weights;
}

double WeightedSimilarity(std::span<const double> sims,
                          const std::vector<double>& weights) {
  POWER_CHECK(sims.size() == weights.size());
  double s = 0.0;
  for (size_t k = 0; k < sims.size(); ++k) s += weights[k] * sims[k];
  return s;
}

SimilarityHistogram SimilarityHistogram::EquiWidth(
    const std::vector<LabeledSample>& samples, int bins) {
  POWER_CHECK(bins >= 1);
  SimilarityHistogram h;
  h.bins_.resize(bins);
  double width = 1.0 / bins;
  for (int b = 0; b < bins; ++b) {
    h.bins_[b].lo = b * width;
    h.bins_[b].hi = (b + 1) * width;
  }
  for (const auto& sample : samples) {
    auto& bin = h.bins_[h.BinIndex(sample.s)];
    ++bin.total;
    if (sample.green) ++bin.green;
  }
  return h;
}

SimilarityHistogram SimilarityHistogram::EquiDepth(
    const std::vector<LabeledSample>& samples, int bins) {
  POWER_CHECK(bins >= 1);
  SimilarityHistogram h;
  if (samples.empty()) {
    h.bins_.push_back({0.0, 1.0, 0, 0});
    return h;
  }
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& s : samples) values.push_back(s.s);
  std::sort(values.begin(), values.end());

  // Quantile boundaries; duplicates collapse (fewer, wider bins on ties).
  std::vector<double> edges = {0.0};
  for (int b = 1; b < bins; ++b) {
    double q = values[values.size() * b / bins];
    if (q > edges.back()) edges.push_back(q);
  }
  edges.push_back(1.0 + 1e-9);
  for (size_t b = 0; b + 1 < edges.size(); ++b) {
    h.bins_.push_back({edges[b], edges[b + 1], 0, 0});
  }
  for (const auto& sample : samples) {
    auto& bin = h.bins_[h.BinIndex(sample.s)];
    ++bin.total;
    if (sample.green) ++bin.green;
  }
  return h;
}

int SimilarityHistogram::BinIndex(double s) const {
  POWER_CHECK(!bins_.empty());
  if (s <= bins_.front().lo) return 0;
  for (size_t b = 0; b < bins_.size(); ++b) {
    if (s < bins_[b].hi) return static_cast<int>(b);
  }
  return static_cast<int>(bins_.size()) - 1;
}

double SimilarityHistogram::GreenProbability(double s) const {
  int idx = BinIndex(s);
  // Walk outward to the nearest non-empty bin.
  int n = static_cast<int>(bins_.size());
  for (int delta = 0; delta < n; ++delta) {
    for (int b : {idx - delta, idx + delta}) {
      if (b >= 0 && b < n && bins_[b].total > 0) {
        return static_cast<double>(bins_[b].green) / bins_[b].total;
      }
    }
  }
  return std::clamp(s, 0.0, 1.0);  // no labeled evidence at all
}

}  // namespace power
