#ifndef POWER_BENCH_BENCH_UTIL_H_
#define POWER_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "data/generator.h"
#include "data/table.h"
#include "sim/feature_cache.h"
#include "sim/similarity_matrix.h"
#include "util/env.h"

namespace power {
namespace bench {

/// All figure-reproduction harnesses share one seed so every binary sees the
/// same datasets and crowd noise.
inline constexpr uint64_t kBenchSeed = 51;

/// Scale applied to the ACMPub profile (full size = 66,879 records). The
/// default keeps every bench binary within seconds; export
/// POWER_ACMPUB_SCALE=1.0 to run the paper's full size. Malformed values
/// warn and fall back to the default (the former atof idiom parsed
/// "banana" as 0.0 and silently defaulted); out-of-range values clamp
/// into (0, 1] with a warning.
inline double AcmPubScale() {
  return EnvDouble("POWER_ACMPUB_SCALE", /*def=*/0.1, /*lo=*/1e-4,
                   /*hi=*/1.0);
}

struct BenchDataset {
  std::string name;
  Table table;
  std::vector<std::pair<int, int>> candidates;
  /// The similarity vectors of `candidates`, component floor 0.2.
  std::vector<SimilarPair> pairs;
  double human_hardness = 0.5;
};

/// Generates the table and runs the front end on one feature cache, as
/// PowerFramework::Run does: the join at `tau`, then the similarity vectors.
inline BenchDataset MakeDataset(const DatasetProfile& profile,
                                double tau = 0.3) {
  BenchDataset ds;
  ds.name = profile.name;
  ds.human_hardness = profile.human_hardness;
  ds.table = DatasetGenerator(kBenchSeed).Generate(profile);
  const FeatureCache features(ds.table);
  ds.candidates =
      GenerateCandidates(features, tau, CandidateMethod::kPrefixJoin);
  ds.pairs = ComputePairSimilarities(features, ds.candidates, 0.2);
  return ds;
}

/// The paper's three datasets (Table 3 profiles).
inline std::vector<BenchDataset> AllDatasets() {
  std::vector<BenchDataset> out;
  out.push_back(MakeDataset(RestaurantProfile()));
  out.push_back(MakeDataset(CoraProfile()));
  out.push_back(MakeDataset(AcmPubProfile(AcmPubScale())));
  return out;
}

/// Peak resident set size of this process so far, in bytes (the kernel's
/// high-water mark — monotone, so per-stage readings show which stage first
/// pushed the watermark). Returns 0 if the kernel refuses the query.
inline size_t PeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

inline void PrintTitle(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

}  // namespace bench
}  // namespace power

#endif  // POWER_BENCH_BENCH_UTIL_H_
