// Reproduces the paper's running example end-to-end: Table 2's similarity
// vectors, the partial-order DAG of Fig. 1, the split grouping of Figs. 3-4,
// the disjoint-path cover of Fig. 5, the topological levels of Fig. 7, and
// the attribute weights / histograms of Figs. 18-19 — then runs the full
// Power pipeline on the 11 records.
#include <cstdio>
#include <span>
#include <string>

#include "bench_util.h"

#include "crowd/answer_cache.h"
#include "core/histogram.h"
#include "core/power.h"
#include "data/paper_example.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "graph/builder.h"
#include "group/split_grouper.h"
#include "select/path_cover.h"

namespace power {
namespace bench {
namespace {

std::string PairName(const SimilarPair& p) {
  return "p" + std::to_string(p.i + 1) +
         (p.j + 1 >= 10 ? "," : "") + std::to_string(p.j + 1);
}

void Run() {
  Table table = PaperExampleTable();
  auto pairs = PaperExamplePairs();

  PrintTitle("Table 2 — similarity vectors of the 18 similar pairs");
  std::printf("%-8s %6s %6s %6s %6s\n", "pair", "s1", "s2", "s3", "s4");
  for (const auto& p : pairs) {
    std::printf("%-8s %6.2f %6.2f %6.2f %6.2f\n", PairName(p).c_str(),
                p.sims[0], p.sims[1], p.sims[2], p.sims[3]);
  }

  PairGraph graph = BuildPairGraph(BruteForceBuilder(), pairs);
  PrintTitle("Fig 1 — partial-order DAG");
  std::printf("vertices=%zu edges(full dominance relation)=%zu acyclic=%s\n",
              graph.num_vertices(), graph.num_edges(),
              graph.IsAcyclic() ? "yes" : "no");

  std::vector<std::vector<double>> sims;
  for (const auto& p : pairs) sims.push_back(p.sims);
  auto groups = SplitGrouper().Group(sims, 0.1);
  PrintTitle("Fig 3-4 — split grouping (eps = 0.1): " +
             std::to_string(groups.size()) + " groups");
  for (size_t g = 0; g < groups.size(); ++g) {
    std::printf("  g%zu = {", g + 1);
    for (size_t m = 0; m < groups[g].members.size(); ++m) {
      std::printf("%s%s", m > 0 ? ", " : "",
                  PairName(pairs[groups[g].members[m]]).c_str());
    }
    std::printf("}\n");
  }

  GroupedGraph grouped = BuildGroupedGraph(groups);
  auto paths = MinimumPathCover(grouped.graph);
  PrintTitle("Fig 5 — minimum disjoint path cover of the grouped graph: " +
             std::to_string(paths.size()) + " paths");
  for (const auto& path : paths) {
    std::printf("  ");
    for (size_t i = 0; i < path.size(); ++i) {
      std::printf("%sg%d", i > 0 ? " ~> " : "", path[i] + 1);
    }
    std::printf("\n");
  }

  auto levels = grouped.graph.TopologicalLevels(
      std::vector<bool>(grouped.graph.num_vertices(), true));
  PrintTitle("Fig 7 — topological levels of the grouped graph: |L| = " +
             std::to_string(levels.size()));
  for (size_t l = 0; l < levels.size(); ++l) {
    std::printf("  L%zu = {", l + 1);
    for (size_t i = 0; i < levels[l].size(); ++i) {
      std::printf("%sg%d", i > 0 ? ", " : "", levels[l][i] + 1);
    }
    std::printf("}\n");
  }

  // Fig 18-19: weights and histograms from the colored pairs of Appendix C.
  std::vector<std::span<const double>> greens;
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {1, 3}, {6, 7}, {4, 5}, {2, 3}, {4, 6}, {5, 6}, {4, 7}, {5, 7}}) {
    greens.push_back(pairs[PaperExamplePairIndex(a, b)].sims);
  }
  auto weights = ComputeAttributeWeights(greens, 4);
  PrintTitle("Fig 18 — attribute weights and estimated similarities");
  std::printf("weights (paper: 0.32 0.28 0.21 0.19): %.2f %.2f %.2f %.2f\n",
              weights[0], weights[1], weights[2], weights[3]);
  for (const auto& p : pairs) {
    std::printf("  s^(%s) = %.2f\n", PairName(p).c_str(),
                WeightedSimilarity(p.sims, weights));
  }

  PrintTitle("Full Power run on the running example (perfect workers)");
  CrowdOracle oracle(&table, {1.0, 1.0}, WorkerModel::kExactAccuracy, 5, 1);
  PowerConfig config;
  PowerResult result = PowerFramework(config).RunOnPairs(pairs, &oracle);
  auto prf = ComputePrf(result.matched_pairs, TrueMatchPairs(table));
  std::printf("questions=%zu iterations=%zu groups=%zu F1=%.3f\n",
              result.questions, result.iterations, result.num_groups,
              prf.f1);
  std::printf("(paper §3.2: at least 4 questions are needed; naive asks all "
              "18)\n");
}

}  // namespace
}  // namespace bench
}  // namespace power

int main() {
  power::bench::Run();
  return 0;
}
