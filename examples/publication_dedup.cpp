// Deduplicating a bibliography (the paper's Cora workload): large duplicate
// clusters, 8 dirty attributes. Compares the three parallel question-
// selection strategies on cost vs crowd latency so an application can pick
// its trade-off.
//
//   build/examples/publication_dedup
#include <cstdio>
#include <vector>

#include "blocking/pair_generator.h"
#include "core/power.h"
#include "crowd/answer_cache.h"
#include "crowd/cost_model.h"
#include "data/generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "sim/feature_cache.h"
#include "sim/similarity_matrix.h"

int main() {
  using namespace power;

  Table bibliography = DatasetGenerator(/*seed=*/11).Generate(CoraProfile());
  std::printf("bibliography: %zu records, %zu distinct publications\n",
              bibliography.num_records(), bibliography.CountEntities());

  // One feature cache feeds both the pruning join and the similarity table.
  FeatureCache features(bibliography);
  const SimilarityTable pairs = ComputeSimilarityTable(
      features,
      GenerateCandidates(features, 0.3, CandidateMethod::kPrefixJoin), 0.2);
  std::printf("candidate pairs: %zu\n\n", pairs.size());

  auto truth = TrueMatchPairs(bibliography);
  CostModel cost;
  std::printf("%-12s %10s %9s %9s %9s\n", "selector", "questions",
              "rounds", "cost($)", "F1");
  for (SelectorKind kind :
       {SelectorKind::kSinglePath, SelectorKind::kMultiPath,
        SelectorKind::kTopoSort}) {
    PowerConfig config;
    config.selector = kind;
    config.error_tolerant = true;
    CrowdOracle crowd(&bibliography, Band80(), WorkerModel::kTaskDifficulty,
                      5, 11, CoraProfile().human_hardness);
    PowerResult result = PowerFramework(config).RunOnPairs(pairs, &crowd);
    auto prf = ComputePrf(result.matched_pairs, truth);
    std::printf("%-12s %10zu %9zu %9.2f %9.3f\n", SelectorKindName(kind),
                result.questions, result.iterations,
                cost.Dollars(result.questions), prf.f1);
  }
  std::printf(
      "\nSinglePath minimizes questions (serially optimal binary search);\n"
      "TopoSort answers in a handful of crowd rounds — the paper's choice\n"
      "when latency matters.\n");
  return 0;
}
