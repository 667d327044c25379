#ifndef POWER_GROUP_GROUPED_GRAPH_H_
#define POWER_GROUP_GROUPED_GRAPH_H_

#include "graph/builder.h"
#include "graph/pair_graph.h"
#include "group/group.h"

namespace power {

/// The grouped DAG (Definition 5): one vertex per group, edge g_i -> g_j iff
/// g_i ≻ g_j by the interval partial order (Eqs. 5-6). The coloring and
/// question-selection machinery operates on this graph exactly as on the
/// ungrouped one; singleton groups recover the ungrouped graph.
struct GroupedGraph {
  std::vector<VertexGroup> groups;
  PairGraph graph;  // vertex v == groups[v]; payload = group midpoints
};

/// Builds the grouped graph by testing interval dominance between all group
/// pairs (group counts are small; the relation is transitive, so this yields
/// the full closure like the base builders do).
GroupedGraph BuildGroupedGraph(std::vector<VertexGroup> groups);

/// Builds a grouped graph of singleton groups using a base-graph builder —
/// the "non-grouping" configuration sharing the same downstream machinery.
/// `sims` is moved into the built graph; pass std::move to avoid the copy.
GroupedGraph BuildUngrouped(const GraphBuilder& builder,
                            std::vector<std::vector<double>> sims);

}  // namespace power

#endif  // POWER_GROUP_GROUPED_GRAPH_H_
