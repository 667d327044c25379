// Figures 21-22: vertex grouping — number of groups and grouping time for
// Greedy vs Split across the grouping threshold ε. As in the paper, Greedy
// is skipped at ACMPub scale (it did not finish within 10 hours there).
#include <cstdio>

#include "bench_util.h"
#include "group/greedy_grouper.h"
#include "group/split_grouper.h"
#include "util/stopwatch.h"

namespace power {
namespace bench {
namespace {

void Run() {
  const double kEpsilons[] = {0.05, 0.1, 0.15, 0.2};

  for (BenchDataset& ds : AllDatasets()) {
    std::vector<std::vector<double>> sims;
    sims.reserve(ds.pairs.size());
    for (auto& p : ds.pairs) sims.push_back(std::move(p.sims));

    PrintTitle("Fig 21-22 — " + ds.name + " (" +
               std::to_string(sims.size()) + " pairs)");
    std::printf("%-6s %-8s %10s %12s\n", "eps", "Grouper", "#Groups",
                "Time(s)");
    PrintRule();
    // The paper could not finish Greedy on ACMPub; the same quadratic-in-
    // candidates join makes it impractical here beyond Cora size.
    bool run_greedy = sims.size() <= 20000;
    for (double eps : kEpsilons) {
      {
        Stopwatch w;
        auto groups = SplitGrouper().Group(sims, eps);
        std::printf("%-6.2f %-8s %10zu %12.4f\n", eps, "Split",
                    groups.size(), w.ElapsedSeconds());
      }
      if (run_greedy) {
        Stopwatch w;
        auto groups = GreedyGrouper().Group(sims, eps);
        std::printf("%-6.2f %-8s %10zu %12.4f\n", eps, "Greedy",
                    groups.size(), w.ElapsedSeconds());
      } else {
        std::printf("%-6.2f %-8s %10s %12s\n", eps, "Greedy", "(skipped)",
                    "-");
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
