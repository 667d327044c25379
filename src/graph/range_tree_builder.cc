#include <algorithm>
#include <set>
#include <utility>

#include "graph/builder.h"
#include "graph/range_tree.h"
#include "order/partial_order.h"
#include "util/check.h"
#include "util/parallel.h"

namespace power {
namespace {

// Vertices per ParallelFor chunk of the query loop. Each query is
// O(log^2 n + k), so chunks stay small enough for dynamic balancing.
constexpr int64_t kQueryGrain = 64;

// Picks the two attributes with the most distinct values: the most selective
// dimensions make the 2-d index filter hardest (fewest false candidates to
// verify on the remaining attributes).
std::pair<int, int> PickIndexDims(SimilarityRows sims) {
  const size_t m = sims.m;
  POWER_CHECK(m >= 1);
  if (m == 1) return {0, 0};
  std::vector<std::pair<size_t, int>> distinct;  // (#distinct values, dim)
  for (size_t k = 0; k < m; ++k) {
    std::set<double> values;
    for (size_t v = 0; v < sims.n; ++v) values.insert(sims.row(v)[k]);
    distinct.push_back({values.size(), static_cast<int>(k)});
  }
  std::sort(distinct.begin(), distinct.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  return {distinct[0].second, distinct[1].second};
}

}  // namespace

PairGraph RangeTreeBuilder::Build(SimilarityRows sims) const {
  PairGraph graph(sims.n);
  if (sims.n == 0) return graph;
  const size_t m = sims.m;

  int d1 = dim1_;
  int d2 = dim2_;
  if (d1 < 0 || d2 < 0) {
    auto dims = PickIndexDims(sims);
    d1 = dims.first;
    d2 = dims.second;
  }
  POWER_CHECK(static_cast<size_t>(d1) < m && static_cast<size_t>(d2) < m);
  if (m == 1) d2 = d1;  // Degenerate 1-attribute case: index it twice.

  RangeTree2d tree;
  std::vector<RangeTree2d::Point> points;
  points.reserve(sims.n);
  for (size_t v = 0; v < sims.n; ++v) {
    points.push_back({sims.row(v)[static_cast<size_t>(d1)],
                      sims.row(v)[static_cast<size_t>(d2)],
                      static_cast<int>(v)});
  }
  tree.Build(std::move(points));

  // For each vertex, report the candidates it weakly dominates on the two
  // indexed attributes, then verify strict dominance on the full vector.
  // Queries only read the tree, so the loop shards over the pool; per-chunk
  // edge buffers keep the result thread-count independent.
  const int64_t n = static_cast<int64_t>(sims.n);
  std::vector<std::vector<std::pair<int, int>>> edges(
      NumChunks(0, n, kQueryGrain));
  ParallelForChunked(
      0, n, kQueryGrain, [&](size_t chunk, int64_t begin, int64_t end) {
        auto& buf = edges[chunk];
        std::vector<int> candidates;
        for (int64_t v = begin; v < end; ++v) {
          candidates.clear();
          const std::span<const double> row = sims.row(v);
          tree.QueryDominated(row[static_cast<size_t>(d1)],
                              row[static_cast<size_t>(d2)], &candidates);
          for (int c : candidates) {
            if (c == static_cast<int>(v)) continue;
            if (StrictlyDominates(row, sims.row(c))) {
              buf.emplace_back(static_cast<int>(v), c);
            }
          }
        }
      });
  graph.AddEdgeChunks(std::move(edges));
  graph.DedupEdges();
  return graph;
}

}  // namespace power
