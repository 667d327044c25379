#include "group/grouped_graph.h"

#include <cstdint>
#include <utility>

#include "order/partial_order.h"
#include "util/parallel.h"

namespace power {

GroupedGraph BuildGroupedGraph(std::vector<VertexGroup> groups) {
  std::vector<std::vector<double>> midpoints;
  midpoints.reserve(groups.size());
  for (const auto& g : groups) {
    std::vector<double> mid(g.lower.size());
    for (size_t k = 0; k < mid.size(); ++k) {
      mid[k] = (g.lower[k] + g.upper[k]) / 2.0;
    }
    midpoints.push_back(std::move(mid));
  }
  GroupedGraph out;
  out.graph = PairGraph(std::move(midpoints));
  // All-pairs interval dominance, row-sharded over the pool with per-chunk
  // edge buffers — same deterministic scheme as the base builders.
  constexpr int64_t kRowGrain = 16;
  const int x = static_cast<int>(groups.size());
  std::vector<std::vector<std::pair<int, int>>> edges(
      NumChunks(0, x, kRowGrain));
  ParallelForChunked(0, x, kRowGrain,
                     [&](size_t chunk, int64_t begin, int64_t end) {
                       auto& buf = edges[chunk];
                       for (int a = static_cast<int>(begin);
                            a < static_cast<int>(end); ++a) {
                         for (int b = 0; b < x; ++b) {
                           if (a == b) continue;
                           if (GroupStrictlyDominates(groups[a].lower,
                                                      groups[b].upper)) {
                             buf.emplace_back(a, b);
                           }
                         }
                       }
                     });
  out.graph.AddEdgeChunks(std::move(edges));
  out.graph.DedupEdges();
  out.groups = std::move(groups);
  return out;
}

GroupedGraph BuildUngrouped(const GraphBuilder& builder,
                            std::vector<std::vector<double>> sims) {
  GroupedGraph out;
  out.groups = SingletonGroups(sims);
  out.graph = builder.Build(std::move(sims));
  return out;
}

}  // namespace power
