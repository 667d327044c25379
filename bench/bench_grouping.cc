// Figures 21-22: vertex grouping — number of groups and grouping time for
// Greedy vs Split across the grouping threshold ε. As in the paper, Greedy
// is skipped at ACMPub scale (it did not finish within 10 hours there).
//
// Each case packs its vectors once (PackRows interns them, as the
// similarity stage does) and then times the groupers on the packed rows.
// The last case is random doubles, so every vector is distinct: Split's
// worst case, where building its tree over the distinct rows saves nothing.
//
// Usage:
//   bench_grouping [--smoke]
//
// --smoke runs the Restaurant profile and 2,000 random vectors, and fails
// unless every grouping is a partition (the `bench_grouping_smoke` ctest
// target).
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "group/greedy_grouper.h"
#include "group/split_grouper.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace power {
namespace bench {
namespace {

std::vector<std::vector<double>> VectorsOf(std::vector<SimilarPair> pairs) {
  std::vector<std::vector<double>> sims;
  sims.reserve(pairs.size());
  for (SimilarPair& p : pairs) sims.push_back(std::move(p.sims));
  return sims;
}

// n vectors of m uniform doubles in [0, 1): all distinct.
std::vector<std::vector<double>> RandomVectors(size_t n, size_t m) {
  Rng rng(kBenchSeed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (double& x : v) x = rng.UniformDouble(0.0, 1.0);
  }
  return sims;
}

// Prints one figure's rows; false when a grouping is not a partition.
bool RunCase(const std::string& name,
             const std::vector<std::vector<double>>& sims, bool run_greedy) {
  const double kEpsilons[] = {0.05, 0.1, 0.15, 0.2};
  Stopwatch pack_watch;
  const PackedRows packed = PackRows(sims);
  const double pack_seconds = pack_watch.ElapsedSeconds();
  const SimilarityRows rows = packed.rows();

  PrintTitle("Fig 21-22 — " + name + " (" + std::to_string(sims.size()) +
             " pairs, " + std::to_string(packed.num_distinct) +
             " distinct vectors)");
  std::printf("PackRows (intern) %.4f s\n", pack_seconds);
  std::printf("%-6s %-8s %10s %12s\n", "eps", "Grouper", "#Groups",
              "Time(s)");
  PrintRule();
  bool ok = true;
  for (double eps : kEpsilons) {
    {
      Stopwatch w;
      auto groups = SplitGrouper().Group(rows, eps);
      const double seconds = w.ElapsedSeconds();
      std::printf("%-6.2f %-8s %10zu %12.4f\n", eps, "Split", groups.size(),
                  seconds);
      ok = ok && IsPartition(groups, sims.size());
    }
    if (run_greedy) {
      Stopwatch w;
      auto groups = GreedyGrouper().Group(rows, eps);
      const double seconds = w.ElapsedSeconds();
      std::printf("%-6.2f %-8s %10zu %12.4f\n", eps, "Greedy", groups.size(),
                  seconds);
      ok = ok && IsPartition(groups, sims.size());
    } else {
      std::printf("%-6.2f %-8s %10s %12s\n", eps, "Greedy", "(skipped)",
                  "-");
    }
  }
  return ok;
}

int Run(bool smoke) {
  // The paper could not finish Greedy on ACMPub; the same quadratic-in-
  // candidates join makes it impractical here beyond Cora size, and on
  // random doubles, whose windows overlap in every attribute, at any size.
  constexpr size_t kGreedyMaxPairs = 20000;
  bool ok = true;
  std::vector<BenchDataset> datasets;
  if (smoke) {
    datasets.push_back(MakeDataset(RestaurantProfile()));
  } else {
    datasets = AllDatasets();
  }
  for (BenchDataset& ds : datasets) {
    const bool run_greedy = ds.pairs.size() <= kGreedyMaxPairs;
    ok = RunCase(ds.name, VectorsOf(std::move(ds.pairs)), run_greedy) && ok;
  }
  ok = RunCase("random doubles", RandomVectors(smoke ? 2000 : 200000, 4),
               /*run_greedy=*/false) &&
       ok;
  if (!ok) {
    std::fprintf(stderr, "FAIL: a grouping is not a partition\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace power

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return power::bench::Run(smoke);
}
