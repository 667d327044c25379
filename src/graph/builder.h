#ifndef POWER_GRAPH_BUILDER_H_
#define POWER_GRAPH_BUILDER_H_

#include <vector>

#include "graph/pair_graph.h"
#include "sim/pair.h"

namespace power {

/// A graph-construction algorithm (§4.1). All builders produce the same
/// graph: the full strict-dominance relation over the rows of `sims`, vertex
/// v for row v (edges deduplicated, adjacency sorted). The rows are read
/// only during Build; the graph keeps no similarity values.
///
/// Builders shard their dominance loops over the ParallelFor pool
/// (util/parallel.h). Sharding is by row with chunk boundaries independent
/// of the thread count, and per-chunk edge buffers are appended in chunk
/// order before DedupEdges() sorts the adjacency — so the built graph is
/// identical at any thread count, including the num_threads == 1 exact
/// serial path.
class GraphBuilder {
 public:
  virtual ~GraphBuilder() = default;
  virtual const char* name() const = 0;
  virtual PairGraph Build(SimilarityRows sims) const = 0;
};

/// Convenience: packs the similarity vectors of `pairs` into rows and builds
/// with `builder`.
PairGraph BuildPairGraph(const GraphBuilder& builder,
                         const std::vector<SimilarPair>& pairs);

/// §4.1 "Brute-Force Method": compares every vertex pair, O(|V|^2).
class BruteForceBuilder : public GraphBuilder {
 public:
  const char* name() const override { return "BruteForce"; }
  PairGraph Build(SimilarityRows sims) const override;
};

/// §4.1 "Quicksort-Based Method": picks a pivot, splits the rest into parent
/// / child / incomparable sets, and derives all parent-x-child edges for free
/// (a ≻ pivot ≻ c implies a ≻ c). Cross pairs touching the incomparable set
/// are resolved by direct comparison, which keeps the recursion duplicate-
/// free and terminating (see DESIGN.md for the note on the paper's pivot
/// footnote). Worst case O(|V|^2), like the paper's variant.
class QuickSortBuilder : public GraphBuilder {
 public:
  explicit QuickSortBuilder(uint64_t seed = 42) : seed_(seed) {}
  const char* name() const override { return "QuickSort"; }
  PairGraph Build(SimilarityRows sims) const override;

 private:
  uint64_t seed_;
};

/// §4.1 "Index-Based Method": a layered 2-level range search tree over two
/// indexed attributes answers each dominance-reporting query in
/// O(log^2 |V| + k); reported candidates are verified on the remaining
/// attributes (the paper's Appendix E heuristic for m > 2).
class RangeTreeBuilder : public GraphBuilder {
 public:
  /// `dim1`/`dim2` are the indexed attributes; -1 picks the two attributes
  /// with the most distinct values (most selective index).
  explicit RangeTreeBuilder(int dim1 = -1, int dim2 = -1)
      : dim1_(dim1), dim2_(dim2) {}
  const char* name() const override { return "Index"; }
  PairGraph Build(SimilarityRows sims) const override;

 private:
  int dim1_;
  int dim2_;
};

}  // namespace power

#endif  // POWER_GRAPH_BUILDER_H_
