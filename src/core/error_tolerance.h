#ifndef POWER_CORE_ERROR_TOLERANCE_H_
#define POWER_CORE_ERROR_TOLERANCE_H_

#include <utility>
#include <vector>

#include "graph/coloring.h"
#include "group/grouped_graph.h"

namespace power {

struct ErrorToleranceConfig {
  /// Appendix E.3 uses 20 histograms. Must be >= 1 (ValidateConfig:
  /// "power: tolerance.num_histograms=<value> must be >= 1").
  int num_histograms = 20;
  bool equi_depth = false;  // §6 mentions equi-depth; equi-width is default
};

/// The Power+ resolution of BLUE vertices (§6, Algorithm 5 lines 7-10).
///
/// Given the grouped graph, the final coloring, and the base pairs'
/// similarity vectors, computes attribute weights from the pairs in GREEN
/// groups (Eq. 7), builds a histogram over the weighted similarities of pairs
/// in GREEN/RED groups, and colors every pair belonging to a BLUE (or
/// conflict-tied uncolored) group by its bin's GREEN probability.
///
/// Returns (base pair vertex id, kGreen/kRed) for exactly those pairs.
std::vector<std::pair<int, Color>> ResolveBlueVertices(
    const GroupedGraph& grouped, const ColoringState& state,
    SimilarityRows pair_sims, const ErrorToleranceConfig& config);

}  // namespace power

#endif  // POWER_CORE_ERROR_TOLERANCE_H_
