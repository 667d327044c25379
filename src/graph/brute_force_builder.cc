#include <utility>

#include "graph/builder.h"
#include "order/partial_order.h"
#include "sim/similarity_matrix.h"
#include "util/parallel.h"

namespace power {
namespace {

// Rows per ParallelFor chunk. Row a costs n - a - 1 comparisons, so chunks
// are deliberately small and claimed dynamically to balance the triangle.
constexpr int64_t kRowGrain = 32;

}  // namespace

PairGraph BuildPairGraph(const GraphBuilder& builder,
                         const std::vector<SimilarPair>& pairs) {
  return builder.Build(PackSimilarPairs(pairs).rows());
}

PairGraph BruteForceBuilder::Build(SimilarityRows sims) const {
  PairGraph graph(sims.n);
  const int n = static_cast<int>(sims.n);
  // Row-sharded over the pool: chunk boundaries depend only on (n, grain),
  // and each chunk's edges land in its own buffer, appended in chunk order —
  // the graph is identical at any thread count.
  std::vector<std::vector<std::pair<int, int>>> edges(NumChunks(0, n, kRowGrain));
  ParallelForChunked(0, n, kRowGrain,
                     [&](size_t chunk, int64_t row_begin, int64_t row_end) {
                       auto& buf = edges[chunk];
                       for (int a = static_cast<int>(row_begin);
                            a < static_cast<int>(row_end); ++a) {
                         for (int b = a + 1; b < n; ++b) {
                           switch (CompareDominance(sims.row(a), sims.row(b))) {
                             case DomOrder::kDominates:
                               buf.emplace_back(a, b);
                               break;
                             case DomOrder::kDominatedBy:
                               buf.emplace_back(b, a);
                               break;
                             default:
                               break;
                           }
                         }
                       }
                     });
  graph.AddEdgeChunks(std::move(edges));
  graph.DedupEdges();
  return graph;
}

}  // namespace power
