// Figures 23-24: grouping vs non-grouping — quality and #questions of
// SinglePath on the ungrouped graph vs the Greedy- and Split-grouped graphs,
// across the grouping threshold ε (90%-accuracy workers).
//
// The ungrouped configurations materialize the full dominance relation
// (|E| ~ |V|^2/4 on this pair population), so this bench runs on reduced
// dataset profiles; the grouped-vs-ungrouped gap is scale-free.
#include <cstdio>

#include "bench_util.h"

#include "crowd/answer_cache.h"
#include "core/power.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace power {
namespace bench {
namespace {

std::vector<BenchDataset> ReducedDatasets() {
  DatasetProfile restaurant = RestaurantProfile();
  DatasetProfile cora = CoraProfile();
  cora.num_records = 400;
  cora.num_entities = 77;
  DatasetProfile pub = AcmPubProfile(0.015);
  std::vector<BenchDataset> out;
  out.push_back(MakeDataset(restaurant));
  out.push_back(MakeDataset(cora));
  out.push_back(MakeDataset(pub));
  return out;
}

void Run() {
  const double kEpsilons[] = {0.05, 0.1, 0.15, 0.2};

  for (BenchDataset& ds : ReducedDatasets()) {
    PrintTitle("Fig 23-24 — " + ds.name + " (" +
               std::to_string(ds.candidates.size()) +
               " pairs, SinglePath selection)");
    std::printf("%-6s %-22s %9s %12s\n", "eps", "Config", "F1",
                "#Questions");
    PrintRule();

    auto truth = TrueMatchPairs(ds.table);
    auto run = [&](GroupingKind grouping, double eps) {
      PowerConfig config;
      config.grouping = grouping;
      config.epsilon = eps;
      config.selector = SelectorKind::kSinglePath;
      config.seed = kBenchSeed;
      CrowdOracle oracle(&ds.table, Band90(), WorkerModel::kExactAccuracy, 5,
                         kBenchSeed);
      PowerFramework framework(config);
      PowerResult result = framework.RunOnPairs(ds.pairs, &oracle);
      PrecisionRecallF prf = ComputePrf(result.matched_pairs, truth);
      return std::pair<double, size_t>(prf.f1, result.questions);
    };

    // Non-grouping is ε-independent; print it once.
    auto [f_non, q_non] = run(GroupingKind::kNone, 0.1);
    std::printf("%-6s %-22s %9.3f %12zu\n", "-", "SinglePath-NonGroup",
                f_non, q_non);
    for (double eps : kEpsilons) {
      auto [f_split, q_split] = run(GroupingKind::kSplit, eps);
      std::printf("%-6.2f %-22s %9.3f %12zu\n", eps, "SinglePath-Split",
                  f_split, q_split);
      auto [f_greedy, q_greedy] = run(GroupingKind::kGreedy, eps);
      std::printf("%-6.2f %-22s %9.3f %12zu\n", eps, "SinglePath-Greedy",
                  f_greedy, q_greedy);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace power

int main() {
  power::bench::Run();
  return 0;
}
