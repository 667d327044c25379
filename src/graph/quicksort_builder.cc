#include <algorithm>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "order/partial_order.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace power {
namespace {

// Minimum comparisons/emissions before a loop is worth sharding over the
// pool; also the per-chunk work target. Small recursion levels stay inline.
constexpr int64_t kParallelWork = 4096;
// Elements per chunk when classifying a set against the pivot.
constexpr int64_t kClassifyGrain = 1024;

class QuickSortBuildState {
 public:
  QuickSortBuildState(SimilarityRows sims, PairGraph* graph, uint64_t seed)
      : sims_(sims), graph_(graph), rng_(seed) {}

  void Run() {
    std::vector<int> all(sims_.n);
    for (size_t v = 0; v < sims_.n; ++v) all[v] = static_cast<int>(v);
    Recurse(std::move(all));
  }

 private:
  void Compare(int a, int b) {
    switch (CompareDominance(sims_.row(a), sims_.row(b))) {
      case DomOrder::kDominates:
        graph_->AddEdge(a, b);
        break;
      case DomOrder::kDominatedBy:
        graph_->AddEdge(b, a);
        break;
      default:
        break;
    }
  }

  // All |rows| x |cols| edges row -> col. Sharded by row with per-chunk
  // buffers appended in chunk order (edge order feeds DedupEdges, which
  // sorts, so the final graph is thread-count independent either way).
  void EmitCrossEdges(const std::vector<int>& rows,
                      const std::vector<int>& cols) {
    if (rows.empty() || cols.empty()) return;
    const int64_t total =
        static_cast<int64_t>(rows.size()) * static_cast<int64_t>(cols.size());
    if (total < kParallelWork || NumThreads() <= 1) {
      for (int r : rows) {
        for (int c : cols) graph_->AddEdge(r, c);
      }
      return;
    }
    const int64_t grain =
        std::max<int64_t>(1, kParallelWork / static_cast<int64_t>(cols.size()));
    const int64_t n = static_cast<int64_t>(rows.size());
    std::vector<std::vector<std::pair<int, int>>> edges(
        NumChunks(0, n, grain));
    ParallelForChunked(0, n, grain,
                       [&](size_t chunk, int64_t begin, int64_t end) {
                         auto& buf = edges[chunk];
                         buf.reserve(static_cast<size_t>(end - begin) *
                                     cols.size());
                         for (int64_t i = begin; i < end; ++i) {
                           for (int c : cols) buf.emplace_back(rows[i], c);
                         }
                       });
    AppendEdges(std::move(edges));
  }

  // Direct comparison of every (row, col) pair straddling the incomparable
  // set; same sharding scheme as EmitCrossEdges.
  void EmitComparedEdges(const std::vector<int>& rows,
                         const std::vector<int>& cols) {
    if (rows.empty() || cols.empty()) return;
    const int64_t total =
        static_cast<int64_t>(rows.size()) * static_cast<int64_t>(cols.size());
    if (total < kParallelWork || NumThreads() <= 1) {
      for (int r : rows) {
        for (int c : cols) Compare(r, c);
      }
      return;
    }
    const int64_t grain =
        std::max<int64_t>(1, kParallelWork / static_cast<int64_t>(cols.size()));
    const int64_t n = static_cast<int64_t>(rows.size());
    std::vector<std::vector<std::pair<int, int>>> edges(
        NumChunks(0, n, grain));
    ParallelForChunked(
        0, n, grain, [&](size_t chunk, int64_t begin, int64_t end) {
          auto& buf = edges[chunk];
          for (int64_t i = begin; i < end; ++i) {
            for (int c : cols) {
              switch (CompareDominance(sims_.row(rows[i]), sims_.row(c))) {
                case DomOrder::kDominates:
                  buf.emplace_back(rows[i], c);
                  break;
                case DomOrder::kDominatedBy:
                  buf.emplace_back(c, rows[i]);
                  break;
                default:
                  break;
              }
            }
          }
        });
    AppendEdges(std::move(edges));
  }

  void AppendEdges(std::vector<std::vector<std::pair<int, int>>> edges) {
    graph_->AddEdgeChunks(std::move(edges));
  }

  // Splits `set` around a random pivot, recurses into the parents and then
  // the children, and loops on the incomparable set (the last call), so an
  // antichain costs one level of stack. `set` and the classification are
  // freed before recursing: the live sets across the whole stack stay
  // disjoint, O(|V|) memory on any input.
  void Recurse(std::vector<int> set) {
    while (set.size() > 2) {
      const int pivot = set[rng_.UniformIndex(set.size())];
      // Classify everything against the pivot. The pivot draw above happens
      // before any parallel work and the partition below consumes `order` in
      // input order, so the recursion structure — and with it the rng
      // stream — is identical to the serial path at any thread count.
      const int64_t k = static_cast<int64_t>(set.size());
      std::vector<DomOrder> order(set.size());
      ParallelFor(0, k, kClassifyGrain, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          if (set[i] == pivot) continue;  // skipped by the partition loop
          order[i] = CompareDominance(sims_.row(set[i]), sims_.row(pivot));
        }
      });
      std::vector<int> parents;   // ≻ pivot
      std::vector<int> children;  // pivot ≻
      std::vector<int> incomparable;
      for (size_t i = 0; i < set.size(); ++i) {
        int v = set[i];
        if (v == pivot) continue;
        switch (order[i]) {
          case DomOrder::kDominates:
            parents.push_back(v);
            graph_->AddEdge(v, pivot);
            break;
          case DomOrder::kDominatedBy:
            children.push_back(v);
            graph_->AddEdge(pivot, v);
            break;
          default:
            incomparable.push_back(v);
            break;
        }
      }
      // Freed before recursing (`= {}` would keep their capacity).
      order = std::vector<DomOrder>();
      set = std::vector<int>();
      // The quicksort saving: every parent dominates every child via the
      // pivot, so all |P| x |C| edges come without a vector comparison.
      EmitCrossEdges(parents, children);
      // Pairs straddling the incomparable set are undetermined by the pivot;
      // resolve them directly (keeps the recursion duplicate-free; see
      // header).
      EmitComparedEdges(parents, incomparable);
      EmitComparedEdges(children, incomparable);
      Recurse(std::move(parents));
      Recurse(std::move(children));
      set = std::move(incomparable);
    }
    if (set.size() == 2) Compare(set[0], set[1]);
  }

  SimilarityRows sims_;
  PairGraph* graph_;
  Rng rng_;
};

}  // namespace

PairGraph QuickSortBuilder::Build(SimilarityRows sims) const {
  PairGraph graph(sims.n);
  QuickSortBuildState state(sims, &graph, seed_);
  state.Run();
  graph.DedupEdges();
  return graph;
}

}  // namespace power
