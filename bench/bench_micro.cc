// Micro-benchmarks of the substrate hot paths: similarity functions,
// candidate-pair joins, range-tree queries, maximum matching, and grouping.
// These back the complexity claims of §4-§5 (index query O(log^2 n + k),
// split grouping O(|V| log 1/eps), Hopcroft-Karp path cover).
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "blocking/prefix_join.h"
#include "graph/builder.h"
#include "graph/range_tree.h"
#include "group/split_grouper.h"
#include "select/matching.h"
#include "select/path_cover.h"
#include "sim/similarity.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace power {
namespace bench {
namespace {

std::string RandomString(Rng& rng, size_t len) {
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(rng.Bernoulli(0.15)
                    ? ' '
                    : static_cast<char>('a' + rng.UniformIndex(26)));
  }
  return s;
}

void BM_EditDistance(benchmark::State& state) {
  Rng rng(1);
  std::string a = RandomString(rng, static_cast<size_t>(state.range(0)));
  std::string b = RandomString(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance)->Arg(16)->Arg(64)->Arg(256);

void BM_BigramJaccard(benchmark::State& state) {
  Rng rng(2);
  std::string a = RandomString(rng, static_cast<size_t>(state.range(0)));
  std::string b = RandomString(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigramJaccard(a, b));
  }
}
BENCHMARK(BM_BigramJaccard)->Arg(16)->Arg(64)->Arg(256);

// The feature-cache build alone, on one thread, on the benchmark workloads'
// table shapes: ACMPub at 6k records (batch-dense) and Cora at 2k
// (crowd-faulty), each profile's records-per-entity ratio kept.
void BM_FeatureCacheBuild(benchmark::State& state, DatasetProfile profile,
                          size_t records) {
  const double ratio = static_cast<double>(profile.num_entities) /
                       static_cast<double>(profile.num_records);
  profile.num_records = records;
  profile.num_entities =
      static_cast<size_t>(static_cast<double>(records) * ratio);
  const Table table = DatasetGenerator(kBenchSeed).Generate(profile);
  int64_t bytes = 0;
  for (const Record& r : table.records()) {
    for (const std::string& v : r.values) {
      bytes += static_cast<int64_t>(v.size());
    }
  }
  ScopedNumThreads scope(1);
  for (auto _ : state) {
    const FeatureCache features(table);
    benchmark::DoNotOptimize(features.dict_size());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK_CAPTURE(BM_FeatureCacheBuild, acmpub_6k, AcmPubProfile(1.0), 6000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FeatureCacheBuild, cora_2k, CoraProfile(), 2000)
    ->Unit(benchmark::kMillisecond);

void BM_PrefixFilterJoin(benchmark::State& state) {
  DatasetProfile profile = RestaurantProfile();
  profile.num_records = static_cast<size_t>(state.range(0));
  profile.num_entities = profile.num_records * 7 / 8;
  Table table = DatasetGenerator(kBenchSeed).Generate(profile);
  // The rows time the feature-cache build with the stage it feeds, here and
  // in the two thread sweeps below.
  for (auto _ : state) {
    const FeatureCache features(table);
    benchmark::DoNotOptimize(PrefixFilterJoin(features, 0.3).size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PrefixFilterJoin)->Arg(256)->Arg(512)->Arg(858)
    ->Unit(benchmark::kMillisecond);

// Thread scaling of the per-pair attribute-similarity stage — the dominant
// machine-side cost of the pipeline (string metrics per candidate pair).
// range(0) = num_threads; 1 is the exact serial path, and the differential
// tests pin the output bit-identical across the sweep.
void BM_PairSimilaritiesThreads(benchmark::State& state) {
  static const BenchDataset& ds = *new BenchDataset(
      MakeDataset(AcmPubProfile(AcmPubScale())));
  ScopedNumThreads scope(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const FeatureCache features(ds.table);
    auto pairs = ComputePairSimilarities(features, ds.candidates, 0.2);
    benchmark::DoNotOptimize(pairs.size());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["pairs"] = static_cast<double>(ds.candidates.size());
}
BENCHMARK(BM_PairSimilaritiesThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Thread scaling of exhaustive candidate generation (the kAllPairs fallback
// path, n^2/2 comparability probes).
void BM_AllPairsCandidatesThreads(benchmark::State& state) {
  static const Table& table = *new Table([] {
    DatasetProfile profile = RestaurantProfile();
    profile.num_records = 858;
    return DatasetGenerator(kBenchSeed).Generate(profile);
  }());
  ScopedNumThreads scope(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const FeatureCache features(table);
    auto candidates =
        GenerateCandidates(features, 0.3, CandidateMethod::kAllPairs);
    benchmark::DoNotOptimize(candidates.size());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AllPairsCandidatesThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RangeTreeQuery(benchmark::State& state) {
  Rng rng(3);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<RangeTree2d::Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1),
                      static_cast<int>(i)});
  }
  RangeTree2d tree;
  tree.Build(points);
  std::vector<int> out;
  size_t q = 0;
  for (auto _ : state) {
    out.clear();
    const auto& p = points[q++ % n];
    tree.QueryDominated(p.x, p.y, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_RangeTreeQuery)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SplitGrouping(benchmark::State& state) {
  Rng rng(4);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> sims(n, std::vector<double>(4));
  for (auto& v : sims) {
    for (auto& x : v) x = rng.UniformIndex(21) / 20.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitGrouper().Group(sims, 0.1).size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SplitGrouping)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_PathCover(benchmark::State& state) {
  // Poset of random 2-d grid points: realistic width/edge mix.
  Rng rng(5);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> sims(n, std::vector<double>(2));
  for (auto& v : sims) {
    v[0] = rng.UniformIndex(11) / 10.0;
    v[1] = rng.UniformIndex(11) / 10.0;
  }
  PairGraph graph = RangeTreeBuilder().Build(PackRows(sims).rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimumPathCover(graph).size());
  }
}
BENCHMARK(BM_PathCover)->Arg(200)->Arg(800)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace power

BENCHMARK_MAIN();
