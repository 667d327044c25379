// End-to-end scale benchmark: 100k synthetic records through the full
// pipeline — generate → feature cache → candidates → similarity vectors →
// grouping → grouped dominance graph → ask-and-color → Power+ resolution —
// reporting per-stage wall time and the peak-RSS watermark after each stage
// (ru_maxrss is monotone, so the stage where the watermark jumps is the
// stage that owned peak memory).
//
// The pipeline runs twice on the same generated table and feature cache,
// once per candidate method (the all-pairs scan, then the prefix join), and
// prints one row each. The two methods must return the identical candidate
// vector, so every stage after candidates does the same work in both rows.
// The second row's RSS watermarks include the first run's.
//
// Usage:
//   bench_scale [--smoke] [--records N] [--json <path>]
//
// --smoke downscales to 10k records (the `bench_scale_smoke` ctest target);
// the default is the 100k run. POWER_THREADS sets the thread count.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"

#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "sim/similarity_matrix.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace power {
namespace bench {
namespace {

// The ACMPub profile extrapolated past the paper's 66,879 records, keeping
// its records-per-entity ratio (the duplicate-cluster structure) intact.
DatasetProfile ScaledProfile(size_t num_records) {
  DatasetProfile p = AcmPubProfile(1.0);
  const double ratio =
      static_cast<double>(p.num_entities) / static_cast<double>(p.num_records);
  p.name = "ACMPub-scale";
  p.num_records = num_records;
  p.num_entities = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(num_records) * ratio));
  return p;
}

struct ScaleResult {
  size_t records = 0;
  CandidateMethod method = CandidateMethod::kAllPairs;
  int threads = 1;
  size_t candidate_pairs = 0;
  size_t groups = 0;
  size_t edges = 0;
  size_t questions = 0;
  double f1 = 0.0;
  // Per-stage wall seconds.
  double generate_seconds = 0.0;
  double feature_seconds = 0.0;
  double candidate_seconds = 0.0;
  double similarity_seconds = 0.0;
  double grouping_seconds = 0.0;
  double graph_seconds = 0.0;
  double resolve_seconds = 0.0;  // ask-and-color + Power+ wall time
  double total_seconds = 0.0;    // generate through resolve, summed
  // Peak-RSS watermark (bytes) after each stage.
  size_t rss_after_generate = 0;
  size_t rss_after_candidates = 0;
  size_t rss_after_similarity = 0;
  size_t rss_after_resolve = 0;  // == process peak
};

// The pipeline from candidates on, with `method` pinned. `base` carries the
// shared generate / feature-cache stages; `candidates` receives the pairs.
ScaleResult RunMethod(const ScaleResult& base, const Table& table,
                      const FeatureCache& features, CandidateMethod method,
                      size_t max_questions,
                      std::vector<std::pair<int, int>>* candidates) {
  ScaleResult out = base;
  out.method = method;
  PowerConfig config;
  config.max_questions = max_questions;

  Stopwatch watch;
  *candidates = GenerateCandidates(features, config.prune_tau, method);
  out.candidate_seconds = watch.ElapsedSeconds();
  out.candidate_pairs = candidates->size();
  out.rss_after_candidates = PeakRssBytes();

  watch.Restart();
  std::vector<SimilarPair> pairs =
      ComputePairSimilarities(features, *candidates, config.component_floor);
  out.similarity_seconds = watch.ElapsedSeconds();
  out.rss_after_similarity = PeakRssBytes();

  watch.Restart();
  CrowdOracle oracle(&table, {1.0, 1.0}, WorkerModel::kExactAccuracy, 5,
                     kBenchSeed);
  PowerResult result = PowerFramework(config).RunOnPairs(pairs, &oracle);
  out.resolve_seconds = watch.ElapsedSeconds();
  out.rss_after_resolve = PeakRssBytes();
  out.total_seconds = out.generate_seconds + out.feature_seconds +
                      out.candidate_seconds + out.similarity_seconds +
                      out.resolve_seconds;

  out.groups = result.num_groups;
  out.edges = result.num_edges;
  out.questions = result.questions;
  out.grouping_seconds = result.grouping_seconds;
  out.graph_seconds = result.graph_seconds;
  out.f1 = ComputePrf(result.matched_pairs, TrueMatchPairs(table)).f1;
  return out;
}

void PrintResult(const ScaleResult& r) {
  std::printf("records            %12zu\n", r.records);
  std::printf("method / threads   %12s / %d\n", CandidateMethodName(r.method),
              r.threads);
  std::printf("candidate pairs    %12zu\n", r.candidate_pairs);
  std::printf("groups / edges     %10zu / %zu\n", r.groups, r.edges);
  std::printf("questions          %12zu\n", r.questions);
  std::printf("F1                 %12.4f\n", r.f1);
  PrintRule();
  std::printf("%-22s %10s %14s\n", "stage", "wall (s)", "peak RSS (MB)");
  auto mb = [](size_t bytes) { return bytes / (1024.0 * 1024.0); };
  std::printf("%-22s %10.3f %14.1f\n", "generate", r.generate_seconds,
              mb(r.rss_after_generate));
  std::printf("%-22s %10.3f %14s\n", "feature cache", r.feature_seconds, "-");
  std::printf("%-22s %10.3f %14.1f\n", "candidates", r.candidate_seconds,
              mb(r.rss_after_candidates));
  std::printf("%-22s %10.3f %14.1f\n", "similarity", r.similarity_seconds,
              mb(r.rss_after_similarity));
  std::printf("%-22s %10.3f %14s\n", "grouping", r.grouping_seconds, "-");
  std::printf("%-22s %10.3f %14s\n", "grouped graph", r.graph_seconds, "-");
  std::printf("%-22s %10.3f %14.1f\n", "resolve", r.resolve_seconds,
              mb(r.rss_after_resolve));
  std::printf("%-22s %10.3f %14.1f\n", "TOTAL", r.total_seconds,
              mb(r.rss_after_resolve));
}

std::string JsonRow(const ScaleResult& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"records\": %zu, \"method\": \"%s\", \"threads\": %d, "
      "\"candidate_pairs\": %zu, \"groups\": %zu, "
      "\"edges\": %zu, \"questions\": %zu, \"f1\": %.4f, "
      "\"generate_seconds\": %.3f, \"feature_seconds\": %.3f, "
      "\"candidate_seconds\": %.3f, \"similarity_seconds\": %.3f, "
      "\"grouping_seconds\": %.3f, \"graph_seconds\": %.3f, "
      "\"resolve_seconds\": %.3f, \"total_seconds\": %.3f, "
      "\"rss_after_generate_mb\": %.1f, \"rss_after_candidates_mb\": %.1f, "
      "\"rss_after_similarity_mb\": %.1f, \"peak_rss_mb\": %.1f}",
      r.records, CandidateMethodName(r.method), r.threads, r.candidate_pairs,
      r.groups, r.edges, r.questions, r.f1, r.generate_seconds,
      r.feature_seconds, r.candidate_seconds, r.similarity_seconds,
      r.grouping_seconds, r.graph_seconds, r.resolve_seconds, r.total_seconds,
      r.rss_after_generate / (1024.0 * 1024.0),
      r.rss_after_candidates / (1024.0 * 1024.0),
      r.rss_after_similarity / (1024.0 * 1024.0),
      r.rss_after_resolve / (1024.0 * 1024.0));
  return buf;
}

int Run(size_t num_records, const char* json_path) {
  PrintTitle("End-to-end scale run (all-pairs scan vs prefix join)");
  ScaleResult base;
  base.records = num_records;
  base.threads = NumThreads();
  Stopwatch watch;
  const Table table =
      DatasetGenerator(kBenchSeed).Generate(ScaledProfile(num_records));
  base.generate_seconds = watch.ElapsedSeconds();
  base.rss_after_generate = PeakRssBytes();
  watch.Restart();
  const FeatureCache features(table);
  base.feature_seconds = watch.ElapsedSeconds();

  // The question budget keeps crowd cost (and the serve loop) bounded at
  // scale; the Power+ histogram settles whatever the budget leaves, which is
  // the paper's budgeted deployment mode.
  const size_t kMaxQuestions = num_records / 2;
  std::vector<std::pair<int, int>> scan_pairs;
  std::vector<std::pair<int, int>> join_pairs;
  const ScaleResult scan =
      RunMethod(base, table, features, CandidateMethod::kAllPairs,
                kMaxQuestions, &scan_pairs);
  PrintResult(scan);
  const ScaleResult join =
      RunMethod(base, table, features, CandidateMethod::kPrefixJoin,
                kMaxQuestions, &join_pairs);
  PrintResult(join);

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "[\n%s,\n%s\n]\n", JsonRow(scan).c_str(),
                 JsonRow(join).c_str());
    std::fclose(f);
  }
  // Sanity gates so benchmark rot is loud: the pipeline must actually find
  // duplicates, and the two methods must agree pair for pair.
  if (scan.candidate_pairs == 0 || scan.f1 <= 0.0) {
    std::fprintf(stderr, "FAIL: degenerate scale run (pairs=%zu f1=%.3f)\n",
                 scan.candidate_pairs, scan.f1);
    return 1;
  }
  if (join_pairs != scan_pairs || join.questions != scan.questions ||
      join.f1 != scan.f1) {
    std::fprintf(stderr,
                 "FAIL: prefix join and all-pairs scan disagree "
                 "(pairs %zu vs %zu, questions %zu vs %zu)\n",
                 join.candidate_pairs, scan.candidate_pairs, join.questions,
                 scan.questions);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace power

int main(int argc, char** argv) {
  size_t records = 100000;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      records = 10000;
    } else if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      // ParseInt (not atoll): a typo'd count is a usage error, not 0 records.
      std::optional<int64_t> n = power::ParseInt(argv[++i]);
      if (!n.has_value() || *n <= 0) {
        std::fprintf(stderr, "bench_scale: bad --records value '%s'\n",
                     argv[i]);
        return 2;
      }
      records = static_cast<size_t>(*n);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--records N] [--json <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  return power::bench::Run(records, json_path);
}
