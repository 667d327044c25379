// Figures 27-30: parallel question selection — SinglePath vs MultiPath vs
// TopoSort (the paper's "Power" selection) on grouped graphs: quality,
// #questions, #iterations, and per-run question-assignment time.
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
  for (BenchDataset& ds : AllDatasets()) {
    PrintTitle("Fig 27-30 — " + ds.name + " (" +
               std::to_string(ds.candidates.size()) +
               " pairs, split grouping eps=0.1)");
    std::printf("%-12s %9s %12s %7s %14s\n", "Selector", "F1", "#Questions",
                "#Iter", "AssignTime(s)");
    PrintRule();
    auto truth = TrueMatchPairs(ds.table);
    for (SelectorKind kind :
         {SelectorKind::kSinglePath, SelectorKind::kMultiPath,
          SelectorKind::kTopoSort}) {
      PowerConfig config;
      config.selector = kind;
      config.seed = kBenchSeed;
      CrowdOracle oracle(&ds.table, Band90(), WorkerModel::kExactAccuracy, 5,
                         kBenchSeed);
      PowerResult result =
          PowerFramework(config).RunOnPairs(ds.pairs, &oracle);
      PrecisionRecallF prf = ComputePrf(result.matched_pairs, truth);
      std::printf("%-12s %9.3f %12zu %7zu %14.4f\n", SelectorKindName(kind),
                  prf.f1, result.questions, result.iterations,
                  result.assignment_seconds);
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
