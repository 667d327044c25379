// Figure 34: varying the number of attributes on Cora (m = 2, 4, 6, 8) —
// quality, #questions, #iterations of Power with 90%-accuracy workers.
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
  BenchDataset ds = MakeDataset(CoraProfile());
  PrintTitle("Fig 34 — Cora, varying #attributes (" +
             std::to_string(ds.candidates.size()) + " pairs)");
  std::printf("%-6s %9s %12s %7s %10s %10s\n", "m", "F1", "#Questions",
              "#Iter", "#Groups", "#Edges");
  PrintRule();
  auto truth = TrueMatchPairs(ds.table);
  for (size_t m : {2u, 4u, 6u, 8u}) {
    Table table = ds.table.WithAttributePrefix(m);
    PowerConfig config;
    config.seed = kBenchSeed;
    CrowdOracle oracle(&table, Band90(), WorkerModel::kExactAccuracy, 5,
                       kBenchSeed);
    const FeatureCache features(table);
    std::vector<SimilarPair> pairs =
        ComputePairSimilarities(features, ds.candidates, 0.2);
    PowerResult result = PowerFramework(config).RunOnPairs(pairs, &oracle);
    PrecisionRecallF prf = ComputePrf(result.matched_pairs, truth);
    std::printf("%-6zu %9.3f %12zu %7zu %10zu %10zu\n", m, prf.f1,
                result.questions, result.iterations, result.num_groups,
                result.num_edges);
  }
}

}  // namespace
}  // namespace bench
}  // namespace power

int main() {
  power::bench::Run();
  return 0;
}
