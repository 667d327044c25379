#include "core/error_tolerance.h"

#include <span>

#include "core/histogram.h"
#include "util/check.h"

namespace power {

std::vector<std::pair<int, Color>> ResolveBlueVertices(
    const GroupedGraph& grouped, const ColoringState& state,
    SimilarityRows pair_sims, const ErrorToleranceConfig& config) {
  POWER_CHECK(state.graph().num_vertices() == grouped.groups.size());
  const size_t m = pair_sims.n == 0 ? 1 : pair_sims.m;

  // Collect the confidently-colored evidence at pair granularity.
  std::vector<std::span<const double>> green_sims;
  std::vector<int> unresolved;  // base pair vertices in BLUE/uncolored groups
  std::vector<std::pair<std::span<const double>, bool>> labeled;
  for (size_t g = 0; g < grouped.groups.size(); ++g) {
    Color c = state.color(static_cast<int>(g));
    for (int v : grouped.groups[g].members) {
      switch (c) {
        case Color::kGreen:
          green_sims.push_back(pair_sims.row(v));
          labeled.push_back({pair_sims.row(v), true});
          break;
        case Color::kRed:
          labeled.push_back({pair_sims.row(v), false});
          break;
        case Color::kBlue:
        case Color::kUncolored:
          unresolved.push_back(v);
          break;
      }
    }
  }

  std::vector<double> weights = ComputeAttributeWeights(green_sims, m);
  std::vector<SimilarityHistogram::LabeledSample> samples;
  samples.reserve(labeled.size());
  for (const auto& [sims, green] : labeled) {
    samples.push_back({WeightedSimilarity(sims, weights), green});
  }
  SimilarityHistogram hist =
      config.equi_depth
          ? SimilarityHistogram::EquiDepth(samples, config.num_histograms)
          : SimilarityHistogram::EquiWidth(samples, config.num_histograms);

  std::vector<std::pair<int, Color>> out;
  out.reserve(unresolved.size());
  for (int v : unresolved) {
    double s = WeightedSimilarity(pair_sims.row(v), weights);
    out.push_back(
        {v, hist.GreenProbability(s) > 0.5 ? Color::kGreen : Color::kRed});
  }
  return out;
}

}  // namespace power
