// Figures 25-26: serial question selection — Random vs SinglePath on
// ungrouped graphs: quality and #questions (90%-accuracy workers).
//
// Runs on the same reduced profiles as the grouping-effect bench because the
// ungrouped graphs materialize the full dominance relation.
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
  DatasetProfile cora = CoraProfile();
  cora.num_records = 400;
  cora.num_entities = 77;
  std::vector<BenchDataset> out;
  out.push_back(MakeDataset(RestaurantProfile()));
  out.push_back(MakeDataset(cora));
  out.push_back(MakeDataset(AcmPubProfile(0.015)));
  return out;
}

void Run() {
  for (BenchDataset& ds : ReducedDatasets()) {
    PrintTitle("Fig 25-26 — " + ds.name + " (" +
               std::to_string(ds.candidates.size()) +
               " pairs, serial selectors, no grouping)");
    std::printf("%-12s %9s %12s %7s\n", "Selector", "F1", "#Questions",
                "#Iter");
    PrintRule();
    auto truth = TrueMatchPairs(ds.table);
    for (SelectorKind kind :
         {SelectorKind::kRandom, SelectorKind::kSinglePath}) {
      PowerConfig config;
      config.grouping = GroupingKind::kNone;
      config.selector = kind;
      config.seed = kBenchSeed;
      CrowdOracle oracle(&ds.table, Band90(), WorkerModel::kExactAccuracy, 5,
                         kBenchSeed);
      PowerResult result =
          PowerFramework(config).RunOnPairs(ds.pairs, &oracle);
      PrecisionRecallF prf = ComputePrf(result.matched_pairs, truth);
      std::printf("%-12s %9.3f %12zu %7zu\n", SelectorKindName(kind),
                  prf.f1, result.questions, result.iterations);
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
