// Figures 15-17: effect of the similarity function (Jaccard / edit /
// bigram, applied to every attribute) on quality, #questions and
// #iterations, with 90%-accuracy workers.
//
// Plus the similarity front-end throughput bench: the cached path
// (FeatureCache build + interned-token candidate scan + the interned
// similarity table) against a bench-local copy of the legacy string path
// (per-call concatenation/tokenization via the retained table-based
// per-pair functions), on a mixed-schema table exercising edit, Jaccard,
// bigram and numeric attributes, swept over thread counts. The two paths'
// outputs are asserted equal before any timing is reported.
//
// Plus the kernel-level bench: the dispatched SIMD kernels
// (sim/simd_kernels.h) against their scalar references on their two hot
// integer loops — the batched Myers edit distance (8 texts per call
// against a shared reference string) and the gathered signature distances
// of the prefix join's filter. Engine outputs are
// checksummed and asserted equal before any speedup is reported, and the
// AVX2 rows carry an 8-lane roofline (8x the scalar element throughput) so
// the achieved fraction is visible next to the speedup.
//
// Usage:
//   bench_similarity_functions [--smoke] [--kernels-only] [--json <path>]
//
// --smoke shrinks the front-end table to a few hundred records and skips the
// Fig 15-17 sweep so the binary runs in well under a second; it is wired as
// the `bench_similarity_smoke` ctest target (and `bench_simd_smoke` runs
// `--smoke --kernels-only`). --json writes the front-end and kernel result
// rows as a JSON object (consumed by BENCH_similarity.json).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "eval/experiment.h"
#include "sim/feature_cache.h"
#include "sim/simd_kernels.h"
#include "sim/similarity_matrix.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace power {
namespace bench {
namespace {

void RunFigures() {
  const SimilarityFunction kFunctions[] = {
      SimilarityFunction::kJaccard, SimilarityFunction::kEditSimilarity,
      SimilarityFunction::kBigramJaccard};

  for (BenchDataset& ds : AllDatasets()) {
    PrintTitle("Fig 15-17 — " + ds.name +
               " (varying similarity functions, 90% workers)");
    std::printf("%-8s %-8s %9s %12s %7s\n", "SimFn", "Method", "F1",
                "#Questions", "#Iter");
    PrintRule();
    for (SimilarityFunction fn : kFunctions) {
      Table table = ds.table;  // copy; rebind the similarity function
      table.mutable_schema()->SetAllSimilarityFunctions(fn);
      ExperimentSetup setup;
      setup.band = Band90();
      setup.model = WorkerModel::kExactAccuracy;
      setup.seed = kBenchSeed;
      for (const auto& row : RunAllMethods(table, ds.candidates, setup)) {
        std::printf("%-8s %-8s %9.3f %12zu %7zu\n",
                    SimilarityFunctionName(fn), MethodName(row.method),
                    row.quality.f1, row.questions, row.iterations);
      }
      PrintRule();
    }
  }
}

// ---------------------------------------------------------------------------
// Front-end throughput: legacy string path vs cached features.
// ---------------------------------------------------------------------------

constexpr double kFrontEndTau = 0.3;
constexpr double kFrontEndFloor = 0.2;

Table MakeFrontEndTable(size_t num_records) {
  DatasetProfile profile;
  profile.name = "MixedSchema";
  profile.num_records = num_records;
  profile.num_entities = num_records * 2 / 5;
  profile.attributes = {
      {"name", AttributeKind::kProperName, SimilarityFunction::kEditSimilarity,
       0.0},
      {"address", AttributeKind::kAddress, SimilarityFunction::kJaccard, 0.05},
      {"category", AttributeKind::kCategory,
       SimilarityFunction::kBigramJaccard, 0.1},
      {"year", AttributeKind::kYear, SimilarityFunction::kNumeric, 0.1},
  };
  profile.dirtiness = 0.35;
  profile.brand_share = 0.15;
  return DatasetGenerator(kBenchSeed).Generate(profile);
}

// Bench-local copy of the historical front end: the same sharded loops the
// production path runs, but every comparison goes through the legacy
// table-based per-pair functions (string concatenation + tokenization per
// call).
std::vector<std::pair<int, int>> LegacyAllPairsCandidates(const Table& table,
                                                          double tau) {
  constexpr int64_t kRowGrain = 16;
  const int n = static_cast<int>(table.num_records());
  std::vector<std::vector<std::pair<int, int>>> found(
      NumChunks(0, n, kRowGrain));
  ParallelForChunked(0, n, kRowGrain,
                     [&](size_t chunk, int64_t row_begin, int64_t row_end) {
                       auto& buf = found[chunk];
                       for (int i = static_cast<int>(row_begin);
                            i < static_cast<int>(row_end); ++i) {
                         for (int j = i + 1; j < n; ++j) {
                           if (RecordLevelJaccard(table, i, j) >= tau) {
                             buf.emplace_back(i, j);
                           }
                         }
                       }
                     });
  std::vector<std::pair<int, int>> out;
  for (auto& buf : found) out.insert(out.end(), buf.begin(), buf.end());
  return out;
}

std::vector<SimilarPair> LegacyPairSimilarities(
    const Table& table, const std::vector<std::pair<int, int>>& candidates,
    double floor) {
  constexpr int64_t kPairGrain = 64;
  std::vector<SimilarPair> out(candidates.size());
  ParallelFor(0, static_cast<int64_t>(candidates.size()), kPairGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t p = begin; p < end; ++p) {
                  const auto& [i, j] = candidates[static_cast<size_t>(p)];
                  out[static_cast<size_t>(p)] =
                      ComputePairSimilarity(table, i, j, floor);
                }
              });
  return out;
}

struct FrontEndResult {
  std::string path;  // "legacy" | "cached"
  int threads = 1;
  size_t records = 0;
  size_t raw_pairs = 0;
  size_t candidates = 0;
  double prune_seconds = 0.0;  // candidate scan (cached: incl. cache build)
  double sim_seconds = 0.0;    // per-pair similarity vectors
  double total_seconds() const { return prune_seconds + sim_seconds; }
  double raw_pairs_per_sec() const {
    return prune_seconds <= 0.0 ? 0.0 : raw_pairs / prune_seconds;
  }
  double front_end_pairs_per_sec() const {
    return total_seconds() <= 0.0 ? 0.0 : raw_pairs / total_seconds();
  }
};

FrontEndResult RunFrontEnd(bool cached, const Table& table, int threads,
                           std::vector<std::pair<int, int>>* candidates_out,
                           std::vector<SimilarPair>* sims_out) {
  ScopedNumThreads scope(threads);
  FrontEndResult r;
  r.path = cached ? "cached" : "legacy";
  r.threads = threads;
  r.records = table.num_records();
  r.raw_pairs = r.records * (r.records - 1) / 2;

  Stopwatch prune_watch;
  if (cached) {
    // The cache build is charged to the pruning stage, as in
    // PowerFramework::Run.
    FeatureCache features(table);
    *candidates_out = AllPairsCandidates(features, kFrontEndTau);
    r.prune_seconds = prune_watch.ElapsedSeconds();
    // The stage Run takes: the interned table. It is unpacked for the
    // equality gate after the stopwatch stops.
    Stopwatch sim_watch;
    const SimilarityTable table_out =
        ComputeSimilarityTable(features, *candidates_out, kFrontEndFloor);
    r.sim_seconds = sim_watch.ElapsedSeconds();
    sims_out->clear();
    for (size_t p = 0; p < table_out.size(); ++p) {
      const std::span<const double> row = table_out.row(p);
      sims_out->push_back({table_out.ids[p].first, table_out.ids[p].second,
                           std::vector<double>(row.begin(), row.end())});
    }
  } else {
    *candidates_out = LegacyAllPairsCandidates(table, kFrontEndTau);
    r.prune_seconds = prune_watch.ElapsedSeconds();
    Stopwatch sim_watch;
    *sims_out = LegacyPairSimilarities(table, *candidates_out, kFrontEndFloor);
    r.sim_seconds = sim_watch.ElapsedSeconds();
  }
  r.candidates = candidates_out->size();
  return r;
}

void PrintFrontEndRow(const FrontEndResult& r) {
  std::printf("%-8s %8d %8zu %10zu %7zu %11.1f %10.1f %11.2fM %11.2fM\n",
              r.path.c_str(), r.threads, r.records, r.raw_pairs, r.candidates,
              r.prune_seconds * 1e3, r.sim_seconds * 1e3,
              r.raw_pairs_per_sec() / 1e6, r.front_end_pairs_per_sec() / 1e6);
}

std::string FrontEndJsonRow(const FrontEndResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"path\": \"%s\", \"threads\": %d, \"records\": %zu, "
      "\"raw_pairs\": %zu, \"candidates\": %zu, \"prune_seconds\": %.6f, "
      "\"sim_seconds\": %.6f, \"total_seconds\": %.6f, "
      "\"front_end_pairs_per_sec\": %.0f}",
      r.path.c_str(), r.threads, r.records, r.raw_pairs, r.candidates,
      r.prune_seconds, r.sim_seconds, r.total_seconds(),
      r.front_end_pairs_per_sec());
  return buf;
}

int RunFrontEndBench(bool smoke, std::vector<std::string>* json_rows) {
  const size_t kRecords = smoke ? 220 : 2500;
  const std::vector<int> kThreads =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 8};
  Table table = MakeFrontEndTable(kRecords);

  PrintTitle(
      "Similarity front end — legacy string path vs cached features "
      "(mixed edit/jaccard/bigram/numeric schema)");
  std::printf("%-8s %8s %8s %10s %7s %11s %10s %12s %12s\n", "Path",
              "Threads", "Records", "RawPairs", "Cands", "Prune(ms)",
              "Sims(ms)", "Scan(Mp/s)", "Total(Mp/s)");
  PrintRule();

  std::vector<FrontEndResult> results;
  bool ok = true;
  for (int threads : kThreads) {
    std::vector<std::pair<int, int>> legacy_cands;
    std::vector<SimilarPair> legacy_sims;
    FrontEndResult legacy =
        RunFrontEnd(false, table, threads, &legacy_cands, &legacy_sims);
    PrintFrontEndRow(legacy);
    results.push_back(legacy);

    std::vector<std::pair<int, int>> cached_cands;
    std::vector<SimilarPair> cached_sims;
    FrontEndResult cached =
        RunFrontEnd(true, table, threads, &cached_cands, &cached_sims);
    PrintFrontEndRow(cached);
    results.push_back(cached);

    // Byte-identity gate: never report a speedup for a path that changed
    // the answer.
    if (cached_cands != legacy_cands) {
      std::fprintf(stderr, "FAIL: candidate lists diverged at %d threads\n",
                   threads);
      ok = false;
    }
    if (cached_sims.size() != legacy_sims.size()) {
      std::fprintf(stderr, "FAIL: sims size diverged at %d threads\n",
                   threads);
      ok = false;
    } else {
      for (size_t p = 0; p < cached_sims.size(); ++p) {
        if (cached_sims[p].i != legacy_sims[p].i ||
            cached_sims[p].j != legacy_sims[p].j ||
            cached_sims[p].sims != legacy_sims[p].sims) {
          std::fprintf(stderr,
                       "FAIL: similarity vector %zu diverged at %d threads\n",
                       p, threads);
          ok = false;
          break;
        }
      }
    }
    std::printf("%-8s %8d speedup: %.2fx (prune %.2fx, sims %.2fx)\n", "",
                threads, legacy.total_seconds() / cached.total_seconds(),
                legacy.prune_seconds / cached.prune_seconds,
                cached.sim_seconds > 0.0
                    ? legacy.sim_seconds / cached.sim_seconds
                    : 0.0);
    PrintRule();
  }

  for (const FrontEndResult& r : results) {
    json_rows->push_back(FrontEndJsonRow(r));
  }
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Kernel-level bench: the dispatched SIMD kernels vs their scalar references.
// ---------------------------------------------------------------------------

struct KernelResult {
  std::string kernel;    // "batch_myers" | "signature"
  std::string engine;    // "scalar" | "avx2"
  size_t pairs = 0;      // pair comparisons timed
  size_t elements = 0;   // text columns (myers) / signature words
  double seconds = 0.0;
  uint64_t checksum = 0;  // engine-independent result fingerprint
  double pairs_per_sec() const {
    return seconds <= 0.0 ? 0.0 : pairs / seconds;
  }
  double elems_per_sec() const {
    return seconds <= 0.0 ? 0.0 : elements / seconds;
  }
};

// The batched Myers loop of ComputeSimilarityTable's edit attribute: runs of
// texts sharing one reference string, kMyersBatchLanes texts per batch.
KernelResult BenchBatchMyersKernel(const FeatureCache& features,
                                   size_t attribute, SimdLevel level,
                                   int reps) {
  OverrideSimdLevel(level);
  KernelResult r;
  r.kernel = "batch_myers";
  r.engine = SimdLevelName(level);
  const size_t n = features.num_records();
  std::vector<std::string_view> texts;
  std::vector<size_t> dists;
  Stopwatch watch;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i + 1 < n; ++i) {
      const std::string_view pattern = features.LowerValue(i, attribute);
      const size_t run_end = std::min(n, i + 1 + 2 * kMyersBatchLanes);
      texts.clear();
      for (size_t j = i + 1; j < run_end; ++j) {
        texts.push_back(features.LowerValue(j, attribute));
        r.elements += texts.back().size();
      }
      dists.resize(texts.size());
      BatchMyersEditDistance(pattern, texts.data(), texts.size(),
                             dists.data());
      for (size_t d : dists) r.checksum += d;
      r.pairs += texts.size();
    }
  }
  r.seconds = watch.ElapsedSeconds();
  return r;
}

// The prefix join's signature-filter kernel, gathering each record's
// signature against the ascending index run of the records after it. The
// checksum folds every distance.
KernelResult BenchSignatureKernel(const FeatureCache& features,
                                  SimdLevel level, int reps) {
  OverrideSimdLevel(level);
  KernelResult r;
  r.kernel = "signature";
  r.engine = SimdLevelName(level);
  const size_t n = features.num_records();
  std::vector<TokenSignature> sigs(n);
  for (size_t i = 0; i < n; ++i) sigs[i] = features.RecordSignature(i);
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<uint16_t> distances(n);
  Stopwatch watch;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i + 1 < n; ++i) {
      const size_t count = n - i - 1;
      GatherSignatureDistances(sigs[i], sigs.data(), ids.data() + i + 1,
                               count, distances.data());
      for (size_t t = 0; t < count; ++t) r.checksum += distances[t];
      r.pairs += count;
    }
  }
  r.seconds = watch.ElapsedSeconds();
  r.elements = 4 * r.pairs;  // 64-bit signature words compared
  return r;
}

void PrintKernelRow(const KernelResult& r) {
  std::printf("%-14s %-8s %12zu %12.2fM %12.2fM\n", r.kernel.c_str(),
              r.engine.c_str(), r.pairs, r.pairs_per_sec() / 1e6,
              r.elems_per_sec() / 1e6);
}

std::string KernelJsonRow(const KernelResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"kernel\": \"%s\", \"engine\": \"%s\", \"pairs\": %zu, "
                "\"elements\": %zu, \"seconds\": %.6f, "
                "\"pairs_per_sec\": %.0f, \"elements_per_sec\": %.0f}",
                r.kernel.c_str(), r.engine.c_str(), r.pairs, r.elements,
                r.seconds, r.pairs_per_sec(), r.elems_per_sec());
  return buf;
}

int RunKernelBench(bool smoke, std::vector<std::string>* json_rows) {
  const size_t kRecords = smoke ? 220 : 2500;
  const int kMyersReps = smoke ? 1 : 3;
  const int kSignatureReps = smoke ? 1 : 20;
  Table table = MakeFrontEndTable(kRecords);
  ScopedNumThreads scope(1);  // kernel-level: single-thread, pure kernel time
  FeatureCache features(table);
  const int edit_attr = table.schema().FindAttribute("name");

  const SimdLevel startup = ActiveSimdLevel();
  const bool avx2 = BuiltWithAvx2() && CpuSupportsAvx2();
  PrintTitle("SIMD kernels — scalar vs AVX2 (sim/simd_kernels.h)");
  std::printf("%-14s %-8s %12s %12s %12s\n", "Kernel", "Engine", "Pairs",
              "Pairs/s", "Elems/s");
  PrintRule();

  bool ok = true;
  std::vector<KernelResult> results;
  auto run_pair = [&](auto bench_fn, const char* what) {
    KernelResult scalar = bench_fn(SimdLevel::kScalar);
    PrintKernelRow(scalar);
    results.push_back(scalar);
    if (!avx2) return;
    KernelResult vec = bench_fn(SimdLevel::kAvx2);
    PrintKernelRow(vec);
    results.push_back(vec);
    // Equality gate: never report a speedup for an engine that changed the
    // answer.
    if (vec.checksum != scalar.checksum) {
      std::fprintf(stderr, "FAIL: %s scalar/avx2 checksums diverged\n", what);
      ok = false;
    }
    const double speedup = scalar.seconds / vec.seconds;
    // 8-lane roofline: the vector kernel retires at most 8 scalar lanes per
    // step, so 8x the scalar element throughput bounds it from above.
    const double roofline = 8.0 * scalar.elems_per_sec();
    std::printf("%-14s %-8s speedup: %.2fx   8-lane roofline: %.0f%%\n",
                "", "", speedup,
                100.0 * vec.elems_per_sec() / roofline);
    PrintRule();
  };
  run_pair(
      [&](SimdLevel level) {
        return BenchBatchMyersKernel(features,
                                     static_cast<size_t>(edit_attr), level,
                                     kMyersReps);
      },
      "batch_myers");
  run_pair(
      [&](SimdLevel level) {
        return BenchSignatureKernel(features, level, kSignatureReps);
      },
      "signature");
  if (!avx2) {
    std::printf("(AVX2 engine unavailable on this build/CPU — scalar rows "
                "only)\n");
    PrintRule();
  }
  OverrideSimdLevel(startup);

  for (const KernelResult& r : results) {
    json_rows->push_back(KernelJsonRow(r));
  }
  return ok ? 0 : 1;
}

int WriteJson(const char* json_path, const std::vector<std::string>& front,
              const std::vector<std::string>& kernels) {
  FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"front_end\": [\n");
  for (size_t i = 0; i < front.size(); ++i) {
    std::fprintf(f, "%s%s\n", front[i].c_str(),
                 i + 1 == front.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"kernels\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    std::fprintf(f, "%s%s\n", kernels[i].c_str(),
                 i + 1 == kernels.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace power

int main(int argc, char** argv) {
  bool smoke = false;
  bool kernels_only = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--kernels-only") == 0) {
      kernels_only = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--kernels-only] [--json <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  int status = 0;
  std::vector<std::string> front_rows;
  std::vector<std::string> kernel_rows;
  if (!kernels_only) {
    status |= power::bench::RunFrontEndBench(smoke, &front_rows);
  }
  status |= power::bench::RunKernelBench(smoke, &kernel_rows);
  if (json_path != nullptr) {
    status |= power::bench::WriteJson(json_path, front_rows, kernel_rows);
  }
  if (!smoke && !kernels_only) power::bench::RunFigures();
  std::printf(
      "peak RSS: %.1f MB\n",
      static_cast<double>(power::bench::PeakRssBytes()) / (1024.0 * 1024.0));
  return status;
}
