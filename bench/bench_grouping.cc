// Figures 21-22: vertex grouping — number of groups and grouping time for
// Greedy vs Split across the grouping threshold ε. As in the paper, Greedy
// is skipped at ACMPub scale (it did not finish within 10 hours there).
//
// Each case packs its vectors once (PackRows interns them, as the
// similarity stage does) and then times the groupers on the packed rows.
// For the dataset cases it also times the grouped graph (Definition 5)
// built over Split's groups, printing groups, edges and seconds. The last
// case is random doubles, so every vector is distinct: Split's worst case,
// where building its tree over the distinct rows saves nothing, and whose
// groups are too many for their graph to fit, so it has no graph row.
//
// Usage:
//   bench_grouping [--smoke]
//
// --smoke runs the Restaurant profile and 2,000 random vectors, and fails
// unless every grouping is a partition and the Restaurant graph equals a
// GroupStrictlyDominates double loop, children and parents (the
// `bench_grouping_smoke` ctest target).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "group/greedy_grouper.h"
#include "group/grouped_graph.h"
#include "group/split_grouper.h"
#include "order/partial_order.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace power {
namespace bench {
namespace {

std::vector<std::vector<double>> VectorsOf(std::vector<SimilarPair> pairs) {
  std::vector<std::vector<double>> sims;
  sims.reserve(pairs.size());
  for (SimilarPair& p : pairs) sims.push_back(std::move(p.sims));
  return sims;
}

// n vectors of m uniform doubles in [0, 1): all distinct.
std::vector<std::vector<double>> RandomVectors(size_t n, size_t m) {
  Rng rng(kBenchSeed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (double& x : v) x = rng.UniformDouble(0.0, 1.0);
  }
  return sims;
}

// True iff the graph's children and parents are exactly those of one
// GroupStrictlyDominates call per ordered group pair, both ascending.
bool EqualsEdgeLoop(const GroupedGraph& graph) {
  const std::vector<VertexGroup>& groups = graph.groups;
  const int g = static_cast<int>(groups.size());
  std::vector<std::vector<int>> parents(groups.size());
  size_t edges = 0;
  for (int a = 0; a < g; ++a) {
    std::vector<int> children;
    for (int b = 0; b < g; ++b) {
      if (a != b && GroupStrictlyDominates(groups[a].lower, groups[b].upper)) {
        children.push_back(b);
        parents[b].push_back(a);
      }
    }
    const auto got = graph.graph.children(a);
    if (!std::equal(got.begin(), got.end(), children.begin(),
                    children.end())) {
      return false;
    }
    edges += children.size();
  }
  for (int b = 0; b < g; ++b) {
    const auto got = graph.graph.parents(b);
    if (!std::equal(got.begin(), got.end(), parents[b].begin(),
                    parents[b].end())) {
      return false;
    }
  }
  return edges == graph.graph.num_edges();
}

// What a case runs besides Split.
struct CaseOptions {
  bool greedy = false;      // Greedy grouping rows
  bool graph = false;       // grouped-graph rows over Split's groups
  bool check_graph = false;  // fail unless the graph equals the double loop
};

// Prints one figure's rows; false when a grouping is not a partition or a
// checked graph differs from the double loop.
bool RunCase(const std::string& name,
             const std::vector<std::vector<double>>& sims,
             const CaseOptions& options) {
  const double kEpsilons[] = {0.05, 0.1, 0.15, 0.2};
  Stopwatch pack_watch;
  const PackedRows packed = PackRows(sims);
  const double pack_seconds = pack_watch.ElapsedSeconds();
  const SimilarityRows rows = packed.rows();

  PrintTitle("Fig 21-22 — " + name + " (" + std::to_string(sims.size()) +
             " pairs, " + std::to_string(packed.num_distinct) +
             " distinct vectors)");
  std::printf("PackRows (intern) %.4f s\n", pack_seconds);
  std::printf("%-6s %-8s %10s %12s %12s\n", "eps", "Grouper", "#Groups",
              "Time(s)", "#Edges");
  PrintRule();
  bool ok = true;
  for (double eps : kEpsilons) {
    {
      Stopwatch w;
      auto groups = SplitGrouper().Group(rows, eps);
      const double seconds = w.ElapsedSeconds();
      std::printf("%-6.2f %-8s %10zu %12.4f\n", eps, "Split", groups.size(),
                  seconds);
      ok = ok && IsPartition(groups, sims.size());
      if (options.graph) {
        const size_t num_groups = groups.size();
        Stopwatch graph_watch;
        const GroupedGraph graph = BuildGroupedGraph(std::move(groups));
        const double graph_seconds = graph_watch.ElapsedSeconds();
        std::printf("%-6.2f %-8s %10zu %12.4f %12zu\n", eps, "Graph",
                    num_groups, graph_seconds, graph.graph.num_edges());
        if (options.check_graph && !EqualsEdgeLoop(graph)) {
          std::fprintf(stderr, "FAIL: %s grouped graph at eps %.2f differs "
                       "from the double loop\n", name.c_str(), eps);
          ok = false;
        }
      }
    }
    if (options.greedy) {
      Stopwatch w;
      auto groups = GreedyGrouper().Group(rows, eps);
      const double seconds = w.ElapsedSeconds();
      std::printf("%-6.2f %-8s %10zu %12.4f\n", eps, "Greedy", groups.size(),
                  seconds);
      ok = ok && IsPartition(groups, sims.size());
    } else {
      std::printf("%-6.2f %-8s %10s %12s\n", eps, "Greedy", "(skipped)",
                  "-");
    }
  }
  return ok;
}

int Run(bool smoke) {
  // The paper could not finish Greedy on ACMPub; the same quadratic-in-
  // candidates join makes it impractical here beyond Cora size, and on
  // random doubles, whose windows overlap in every attribute, at any size.
  constexpr size_t kGreedyMaxPairs = 20000;
  bool ok = true;
  std::vector<BenchDataset> datasets;
  if (smoke) {
    datasets.push_back(MakeDataset(RestaurantProfile()));
  } else {
    datasets = AllDatasets();
  }
  for (BenchDataset& ds : datasets) {
    CaseOptions options;
    options.greedy = ds.pairs.size() <= kGreedyMaxPairs;
    options.graph = true;
    options.check_graph = smoke;
    ok = RunCase(ds.name, VectorsOf(std::move(ds.pairs)), options) && ok;
  }
  ok = RunCase("random doubles", RandomVectors(smoke ? 2000 : 200000, 4),
               CaseOptions{}) &&
       ok;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: a grouping is not a partition or a graph differs\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace power

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return power::bench::Run(smoke);
}
