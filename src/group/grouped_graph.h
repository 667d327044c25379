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
  PairGraph graph;  // vertex v == groups[v]
};

/// Builds the grouped graph: an edge for every ordered group pair that
/// GroupStrictlyDominates, so the full closure, as the base builders emit.
/// Group counts reach tens of thousands (22k on a 20k-record Cora table),
/// so pairs are not tested one by one: one bit-parallel sweep per attribute
/// decides a whole row of targets per source group, in fixed-size blocks of
/// source rows, on the calling thread. Each child list comes out ascending
/// and unique and freezes through PairGraph::FreezeFromChildren. Aborts
/// unless all groups share one bound width and no bound is NaN.
GroupedGraph BuildGroupedGraph(std::vector<VertexGroup> groups);

/// Builds a grouped graph of singleton groups using a base-graph builder —
/// the "non-grouping" configuration sharing the same downstream machinery.
GroupedGraph BuildUngrouped(const GraphBuilder& builder, SimilarityRows sims);

}  // namespace power

#endif  // POWER_GROUP_GROUPED_GRAPH_H_
