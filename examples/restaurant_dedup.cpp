// Deduplicating a restaurant catalog (the paper's Restaurant workload):
// generates an 858-record catalog with duplicate listings, resolves it with
// Power+ at a fraction of the brute-force crowdsourcing cost, and prints the
// largest resolved duplicate groups.
//
//   build/examples/restaurant_dedup [num_records]
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <vector>

#include "core/power.h"
#include "crowd/answer_cache.h"
#include "crowd/cost_model.h"
#include "data/generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace power;

  DatasetProfile profile = RestaurantProfile();
  if (argc > 1) {
    profile.num_records = static_cast<size_t>(std::atoi(argv[1]));
    profile.num_entities = profile.num_records * 7 / 8;
  }
  Table catalog = DatasetGenerator(/*seed=*/7).Generate(profile);
  std::printf("catalog: %zu listings, %zu true restaurants\n",
              catalog.num_records(), catalog.CountEntities());

  CrowdOracle crowd(&catalog, Band80(), WorkerModel::kTaskDifficulty, 5, 7,
                    profile.human_hardness);
  PowerConfig config;
  config.error_tolerant = true;  // Power+
  PowerResult result = PowerFramework(config).Run(catalog, &crowd);
  // Run prunes with record-level Jaccard >= prune_tau (0.3) before asking.
  std::printf("candidate pairs after pruning: %zu (of %zu raw pairs)\n",
              result.num_pairs,
              catalog.num_records() * (catalog.num_records() - 1) / 2);

  CostModel cost;
  double power_cost = cost.Dollars(result.questions);
  double brute_cost = cost.Dollars(result.num_pairs);
  auto prf = ComputePrf(result.matched_pairs, TrueMatchPairs(catalog));
  std::printf("\nPower+ asked %zu questions in %zu crowd rounds\n",
              result.questions, result.iterations);
  std::printf("cost $%.2f vs $%.2f for crowdsourcing every candidate "
              "(%.1fx saving)\n",
              power_cost, brute_cost, brute_cost / power_cost);
  std::printf("precision %.3f  recall %.3f  F1 %.3f\n",
              prf.precision, prf.recall, prf.f1);

  // Show the largest duplicate groups found.
  std::vector<int> parent(catalog.num_records());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (uint64_t key : result.matched_pairs) {
    int a = find(PairKeyFirst(key));
    int b = find(PairKeySecond(key));
    if (a != b) parent[b] = a;
  }
  std::map<int, std::vector<int>> groups;
  for (size_t i = 0; i < parent.size(); ++i) {
    groups[find(static_cast<int>(i))].push_back(static_cast<int>(i));
  }
  std::printf("\nsample duplicate groups:\n");
  int shown = 0;
  for (const auto& [root, members] : groups) {
    if (members.size() < 2 || shown >= 5) continue;
    ++shown;
    for (int r : members) {
      std::printf("  [%d] %s | %s | %s\n", r, catalog.Value(r, 0).c_str(),
                  catalog.Value(r, 1).c_str(), catalog.Value(r, 2).c_str());
    }
    std::printf("  --\n");
  }
  return 0;
}
