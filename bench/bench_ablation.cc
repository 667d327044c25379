// Ablations of the design choices DESIGN.md calls out:
//   A. Power+ confidence threshold (§6 fixes 0.8) — quality/cost trade-off.
//   B. Histogram count and equi-width vs equi-depth (Appendix E.3 uses 20
//      equi-width bins).
//   C. TopoSort level policy: the paper's middle-level argument vs asking
//      the first/last level.
//   D. Vote aggregation: plain majority vs accuracy-weighted majority
//      (§7.1's "weighted majority voting") on a mixed-quality worker pool.
#include <cstdio>

#include "bench_util.h"

#include "crowd/answer_cache.h"
#include "core/power.h"
#include "crowd/weighted_vote.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "group/grouped_graph.h"
#include "group/split_grouper.h"
#include "select/topo_selector.h"
#include "util/rng.h"

namespace power {
namespace bench {
namespace {

void ConfidenceThresholdAblation(BenchDataset& ds) {
  PrintTitle("Ablation A — Power+ confidence threshold (" + ds.name +
             ", 80% workers)");
  std::printf("%-10s %9s %12s %12s\n", "threshold", "F1", "#Questions",
              "#BlueGroups");
  PrintRule();
  auto truth = TrueMatchPairs(ds.table);
  for (double threshold : {0.6, 0.7, 0.8, 0.9, 1.0}) {
    PowerConfig config;
    config.error_tolerant = true;
    config.confidence_threshold = threshold;
    config.seed = kBenchSeed;
    CrowdOracle oracle(&ds.table, Band80(), WorkerModel::kTaskDifficulty, 5,
                       kBenchSeed, ds.human_hardness);
    PowerResult r = PowerFramework(config).RunOnPairs(ds.pairs, &oracle);
    std::printf("%-10.1f %9.3f %12zu %12zu\n", threshold,
                ComputePrf(r.matched_pairs, truth).f1, r.questions,
                r.num_blue_groups);
  }
}

void HistogramAblation(BenchDataset& ds) {
  PrintTitle("Ablation B — Power+ histograms (" + ds.name +
             ", 80% workers)");
  std::printf("%-8s %-10s %9s\n", "#bins", "kind", "F1");
  PrintRule();
  auto truth = TrueMatchPairs(ds.table);
  for (int bins : {5, 10, 20, 40}) {
    for (bool equi_depth : {false, true}) {
      PowerConfig config;
      config.error_tolerant = true;
      config.seed = kBenchSeed;
      config.tolerance.num_histograms = bins;
      config.tolerance.equi_depth = equi_depth;
      CrowdOracle oracle(&ds.table, Band80(), WorkerModel::kTaskDifficulty,
                         5, kBenchSeed, ds.human_hardness);
      PowerResult r = PowerFramework(config).RunOnPairs(ds.pairs, &oracle);
      std::printf("%-8d %-10s %9.3f\n", bins,
                  equi_depth ? "equi-depth" : "equi-width",
                  ComputePrf(r.matched_pairs, truth).f1);
    }
  }
}

void LevelPolicyAblation(BenchDataset& ds) {
  PrintTitle("Ablation C — TopoSort level policy (" + ds.name +
             ", 90% workers)");
  std::printf("%-8s %9s %12s %7s\n", "level", "F1", "#Questions", "#Iter");
  PrintRule();
  auto truth = TrueMatchPairs(ds.table);
  const std::vector<SimilarPair>& pairs = ds.pairs;
  std::vector<std::vector<double>> sims;
  for (const auto& p : pairs) sims.push_back(p.sims);

  struct Policy {
    const char* label;
    TopoSortSelector::LevelPolicy policy;
  };
  for (const Policy& p :
       {Policy{"first", TopoSortSelector::LevelPolicy::kFirst},
        Policy{"middle", TopoSortSelector::LevelPolicy::kMiddle},
        Policy{"last", TopoSortSelector::LevelPolicy::kLast}}) {
    // Drive the loop manually so the selector policy can be injected.
    CrowdOracle oracle(&ds.table, Band90(), WorkerModel::kExactAccuracy, 5,
                       kBenchSeed);
    auto groups = SplitGrouper().Group(sims, 0.1);
    GroupedGraph grouped = BuildGroupedGraph(std::move(groups));
    ColoringState state(&grouped.graph);
    TopoSortSelector selector(p.policy);
    Rng rng(kBenchSeed);
    size_t questions = 0;
    size_t iterations = 0;
    while (!state.AllColored()) {
      auto batch = selector.NextBatch(state);
      ++iterations;
      for (int g : batch) {
        const auto& members = grouped.groups[g].members;
        const SimilarPair& rep =
            pairs[members[rng.UniformIndex(members.size())]];
        state.ApplyAnswer(g, oracle.Ask(rep.i, rep.j).majority_yes());
        ++questions;
      }
    }
    std::unordered_set<uint64_t> matched;
    for (size_t g = 0; g < grouped.groups.size(); ++g) {
      if (state.color(static_cast<int>(g)) == Color::kGreen) {
        for (int v : grouped.groups[g].members) {
          matched.insert(PairKey(pairs[v].i, pairs[v].j));
        }
      }
    }
    std::printf("%-8s %9.3f %12zu %7zu\n", p.label,
                ComputePrf(matched, truth).f1, questions, iterations);
  }
}

void VotingAblation() {
  PrintTitle("Ablation D — majority vs weighted majority voting "
             "(mixed 0.55-0.95 worker pool, 20k questions)");
  std::printf("%-10s %12s %12s\n", "band", "majority", "weighted");
  PrintRule();
  struct Band {
    const char* label;
    WorkerBand band;
  };
  for (const Band& b :
       {Band{"0.55-0.95", WorkerBand{0.55, 0.95}},
        Band{"0.60-0.80", WorkerBand{0.60, 0.80}},
        Band{"0.85-0.95", WorkerBand{0.85, 0.95}}}) {
    CrowdSimulator sim(b.band, WorkerModel::kExactAccuracy, 5, kBenchSeed);
    int majority = 0;
    int weighted = 0;
    const int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i) {
      bool truth = i % 2 == 0;
      auto votes = sim.AskDetailed(truth, 0.0);
      int yes = 0;
      for (const auto& v : votes) {
        if (v.yes) ++yes;
      }
      if ((2 * yes > static_cast<int>(votes.size())) == truth) ++majority;
      if (WeightedMajority(votes).yes == truth) ++weighted;
    }
    std::printf("%-10s %12.4f %12.4f\n", b.label,
                majority / static_cast<double>(kTrials),
                weighted / static_cast<double>(kTrials));
  }
}

void Run() {
  BenchDataset cora = MakeDataset(CoraProfile());
  ConfidenceThresholdAblation(cora);
  HistogramAblation(cora);
  LevelPolicyAblation(cora);
  VotingAblation();
}

}  // namespace
}  // namespace bench
}  // namespace power

int main() {
  power::bench::Run();
  return 0;
}
