// Reproduces Table 3: the three evaluation datasets with record counts,
// attribute counts, and the number of pairs that survive pruning.
#include <cstdio>

#include "bench_util.h"
#include "eval/ground_truth.h"
#include "util/stopwatch.h"

namespace power {
namespace bench {
namespace {

void Run() {
  PrintTitle("Table 3: datasets (synthetic profiles calibrated to the paper)");
  std::printf("%-12s %9s %9s %7s %10s %12s %14s %14s\n", "Dataset",
              "#Records", "#Entities", "#Attr", "#Pairs",
              "#TruePairs", "#Workers/Pair", "gen+join+sim s");
  PrintRule();
  struct Spec {
    DatasetProfile profile;
    const char* paper_pairs;
  };
  std::vector<Spec> specs = {{RestaurantProfile(), "5010"},
                             {CoraProfile(), "29510"},
                             {AcmPubProfile(AcmPubScale()), "204000"}};
  for (const auto& spec : specs) {
    Stopwatch watch;
    BenchDataset ds = MakeDataset(spec.profile);
    double seconds = watch.ElapsedSeconds();
    std::printf("%-12s %9zu %9zu %7zu %10zu %12zu %14d %13.2fs\n",
                ds.name.c_str(), ds.table.num_records(),
                ds.table.CountEntities(),
                ds.table.schema().num_attributes(), ds.candidates.size(),
                TrueMatchPairs(ds.table).size(), 5, seconds);
    std::printf("%-12s %9s %9s %7s %10s  (paper, full scale)\n", "  paper:",
                ds.name == "Restaurant" ? "858"
                : ds.name == "Cora"     ? "997"
                                        : "66879",
                ds.name == "Restaurant" ? "752"
                : ds.name == "Cora"     ? "191"
                                        : "5347",
                ds.name == "Cora" ? "8" : "4", spec.paper_pairs);
  }
  std::printf(
      "\nACMPub runs at scale %.2f by default; export POWER_ACMPUB_SCALE=1.0\n"
      "for the paper's full 66,879 records.\n",
      AcmPubScale());
}

}  // namespace
}  // namespace bench
}  // namespace power

int main() {
  power::bench::Run();
  return 0;
}
