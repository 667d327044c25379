// Figures 31-33: error-tolerant techniques — Power vs Power+ (quality,
// #questions, #iterations) across the grouping threshold ε, using
// 80%-band workers under the task-difficulty model so unconfident votes
// actually occur (Power+ uses 20 histograms, as in Appendix E.3).
#include <cstdio>

#include "bench_util.h"

#include "crowd/answer_cache.h"
#include "core/power.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace power {
namespace bench {
namespace {

void Run() {
  const double kEpsilons[] = {0.05, 0.1, 0.15, 0.2};

  for (BenchDataset& ds : AllDatasets()) {
    PrintTitle("Fig 31-33 — " + ds.name + " (" +
               std::to_string(ds.candidates.size()) +
               " pairs, Power vs Power+, 80% workers)");
    std::printf("%-6s %-8s %9s %12s %7s %12s\n", "eps", "Method", "F1",
                "#Questions", "#Iter", "#BlueGroups");
    PrintRule();
    auto truth = TrueMatchPairs(ds.table);
    for (double eps : kEpsilons) {
      for (bool tolerant : {false, true}) {
        PowerConfig config;
        config.epsilon = eps;
        config.error_tolerant = tolerant;
        config.seed = kBenchSeed;
        CrowdOracle oracle(&ds.table, Band80(),
                           WorkerModel::kTaskDifficulty, 5, kBenchSeed,
                           ds.human_hardness);
        PowerResult result =
            PowerFramework(config).RunOnPairs(ds.pairs, &oracle);
        PrecisionRecallF prf = ComputePrf(result.matched_pairs, truth);
        std::printf("%-6.2f %-8s %9.3f %12zu %7zu %12zu\n", eps,
                    tolerant ? "Power+" : "Power", prf.f1, result.questions,
                    result.iterations, result.num_blue_groups);
      }
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
