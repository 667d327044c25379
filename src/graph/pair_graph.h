#ifndef POWER_GRAPH_PAIR_GRAPH_H_
#define POWER_GRAPH_PAIR_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace power {

/// The directed acyclic graph of the partial-order framework (Definition 2).
/// Vertex v is a pair (or a group of pairs); an edge parent -> child means
/// parent ≻ child (the parent pair dominates the child pair). The graph
/// holds topology only: the builders read the similarity vectors to decide
/// the edges, and the selectors and the coloring read only the edges.
///
/// The graph builders emit the *full* dominance relation (an edge for every
/// comparable vertex pair), i.e. the transitive closure. Question selection
/// (Dilworth path cover) and O(1)-hop propagation both rely on this.
///
/// Lifecycle: the graph has a build phase and a frozen phase, and two ways
/// to freeze.
///
///  * Pending edges. AddEdge / AddEdgeChunks append to a flat pending-edge
///    list, duplicates allowed. DedupEdges() deduplicates them and lays them
///    out as two immutable CSR (offset + flat edge array) adjacency forms,
///    children and parents, with parallel counting/scatter/sort passes on
///    the global thread pool (util/parallel.h) whose result is independent
///    of the thread count. The base builders of §4.1 freeze this way: their
///    vertices are pairs, so they emit edges chunk by chunk.
///  * Child lists. FreezeFromChildren() takes the children side already in
///    CSR form, every list strictly ascending, checks it, and builds the
///    parent side with one serial counting transpose: no atomics, sort or
///    dedup. The grouped graph freezes this way, since its bit-parallel
///    build emits each group's children ascending and unique.
///
/// Both give the same arrays for the same edge set. After freezing,
/// children(v)/parents(v) return lightweight sorted spans into the flat
/// arrays and no further mutation is allowed. The flat layout replaces the
/// former ragged vector<vector<int>> adjacency, which on closure graphs
/// (O(|V|²) edges) dominated both memory and cache misses in the
/// ask-and-color serving loop.
///
/// Concurrency contract: the build phase (AddEdge/AddEdgeChunks) and the
/// freeze (DedupEdges or FreezeFromChildren) are driven by ONE thread;
/// inside DedupEdges, the parallel count/scatter/sort passes share
/// per-vertex atomic counters whose relaxed increments commute
/// (thread-count-invariant totals), and the `frozen_` flag itself is
/// written only by that driving thread before any reader exists. After
/// freezing the graph is immutable and safe to read from any number of
/// threads without synchronization.
class PairGraph {
 public:
  PairGraph() = default;
  explicit PairGraph(size_t num_vertices) : num_vertices_(num_vertices) {}

  size_t num_vertices() const { return num_vertices_; }
  /// Deduplicated edge count once frozen; the pending (possibly duplicated)
  /// edge count during build.
  size_t num_edges() const { return frozen_ ? num_edges_ : pending_.size(); }

  /// Adds edge parent -> child to the pending build list. Duplicates are
  /// allowed; DedupEdges() removes them. Must not be called once frozen.
  void AddEdge(int parent, int child);

  /// Bulk append of per-chunk edge buffers (the builders' emit path). The
  /// chunks are concatenated in chunk order — the pending list is identical
  /// to per-edge AddEdge calls in the same order. The copy itself is sharded
  /// over the pool. Must not be called once frozen.
  void AddEdgeChunks(std::vector<std::vector<std::pair<int, int>>> chunks);

  /// Freezes the graph: deduplicates the pending edges and builds the
  /// immutable CSR adjacency (see class comment). Idempotent.
  void DedupEdges();

  /// Freezes the graph from its children in CSR form: `child_off` holds
  /// num_vertices() + 1 non-decreasing offsets from 0 to
  /// child_edges.size(), and vertex v's children are
  /// child_edges[child_off[v], child_off[v + 1]), strictly ascending, in
  /// range and never v itself. Aborts on any other input. Builds the parent
  /// lists by a counting transpose in vertex order, so they come out
  /// ascending too. The graph must be unfrozen with no pending edges.
  void FreezeFromChildren(std::vector<int64_t> child_off,
                          std::vector<int> child_edges);

  /// True once DedupEdges() or FreezeFromChildren() has frozen the graph.
  bool frozen() const { return frozen_; }

  /// Children of v (vertices v strictly dominates), ascending. Frozen only.
  std::span<const int> children(int v) const {
    CheckFrozenVertex(v);
    return {child_edges_.data() + child_off_[v],
            child_edges_.data() + child_off_[v + 1]};
  }
  /// Parents of v (vertices strictly dominating v), ascending. Frozen only.
  std::span<const int> parents(int v) const {
    CheckFrozenVertex(v);
    return {parent_edges_.data() + parent_off_[v],
            parent_edges_.data() + parent_off_[v + 1]};
  }

  /// All vertices reachable from v via child edges (v excluded), ascending.
  std::vector<int> Descendants(int v) const;
  /// All vertices reachable from v via parent edges (v excluded), ascending.
  std::vector<int> Ancestors(int v) const;

  /// Kahn peeling over the subgraph induced by `active` vertices: level L1 =
  /// zero in-degree vertices, L2 = zero in-degree after removing L1, ...
  /// (paper §5.3.2). `active.size()` must equal num_vertices().
  std::vector<std::vector<int>> TopologicalLevels(
      const std::vector<bool>& active) const;

  /// True iff the edge relation has no directed cycle.
  bool IsAcyclic() const;

 private:
  void CheckFrozenVertex(int v) const;
  /// Builds one CSR direction from the pending edges: key = pair.first when
  /// keyed_by_parent, else pair.second.
  void BuildCsrSide(bool keyed_by_parent, std::vector<int64_t>* offsets,
                    std::vector<int>* edges) const;

  size_t num_vertices_ = 0;
  std::vector<std::pair<int, int>> pending_;  // build phase only
  bool frozen_ = false;
  // CSR adjacency, valid once frozen. offsets have num_vertices() + 1
  // entries; edge arrays hold the deduplicated, per-vertex-sorted targets.
  std::vector<int64_t> child_off_;
  std::vector<int> child_edges_;
  std::vector<int64_t> parent_off_;
  std::vector<int> parent_edges_;
  size_t num_edges_ = 0;
};

}  // namespace power

#endif  // POWER_GRAPH_PAIR_GRAPH_H_
