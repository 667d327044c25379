// Budget planner: before launching a crowdsourcing campaign, sweep the
// grouping threshold eps and the worker-quality band to see the projected
// cost/quality frontier on a pilot slice of your data. Demonstrates how the
// framework's knobs trade money for accuracy.
//
//   build/examples/crowd_budget_planner
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

  // Pilot slice: a 2,000-record cut of the publication catalog.
  Table pilot = DatasetGenerator(/*seed=*/3).Generate(AcmPubProfile(0.03));
  // One feature cache feeds both the pruning join and the similarity table.
  FeatureCache features(pilot);
  const SimilarityTable pairs = ComputeSimilarityTable(
      features, GenerateCandidates(features, 0.3, CandidateMethod::kPrefixJoin),
      0.2);
  auto truth = TrueMatchPairs(pilot);
  std::printf("pilot: %zu records, %zu candidate pairs\n\n",
              pilot.num_records(), pairs.size());

  CostModel cost;
  std::printf("%-8s %-8s %10s %9s %9s %9s\n", "workers", "eps",
              "questions", "rounds", "cost($)", "F1");
  struct BandSpec {
    const char* label;
    WorkerBand band;
  };
  for (const BandSpec& spec :
       {BandSpec{"70-80%", Band70()}, BandSpec{"80-90%", Band80()},
        BandSpec{">90%", Band90()}}) {
    for (double eps : {0.05, 0.1, 0.2}) {
      PowerConfig config;
      config.epsilon = eps;
      config.error_tolerant = true;
      CrowdOracle crowd(&pilot, spec.band, WorkerModel::kExactAccuracy, 5,
                        3);
      PowerResult result = PowerFramework(config).RunOnPairs(pairs, &crowd);
      auto prf = ComputePrf(result.matched_pairs, truth);
      std::printf("%-8s %-8.2f %10zu %9zu %9.2f %9.3f\n", spec.label, eps,
                  result.questions, result.iterations,
                  cost.Dollars(result.questions), prf.f1);
    }
  }
  std::printf(
      "\nLarger eps merges more pairs per group: cheaper but slightly\n"
      "riskier. Cheaper worker pools need Power+'s error tolerance to hold\n"
      "the F-measure. Pick the row matching your budget, then run the same\n"
      "configuration on the full dataset.\n");
  return 0;
}
