// End-to-end ask-and-color loop benchmark: per-round assignment latency and
// rounds/sec for every §5 selector on a synthetic full-closure dominance
// graph (the shape the builders actually emit, §5.2). Thread sweep covers
// graph construction (parallel) and the serving loop.
//
// Usage:
//   bench_selection [--smoke] [--json <path>]
//
// --smoke shrinks the inputs to a few hundred vertices so the binary runs in
// well under a second; it is wired as the `bench_smoke` ctest target to catch
// benchmark rot. --json writes the result rows as a JSON array (consumed by
// BENCH_selection.json).
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"

#include "graph/builder.h"
#include "graph/coloring.h"
#include "group/group.h"
#include "select/selector.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace power {
namespace bench {
namespace {

struct LoopResult {
  std::string selector;
  int threads = 1;
  size_t vertices = 0;
  size_t edges = 0;
  size_t rounds = 0;
  size_t questions = 0;
  bool completed = false;
  double build_seconds = 0.0;
  double assign_seconds = 0.0;  // time inside NextBatch
  double apply_seconds = 0.0;   // time inside ApplyAnswer propagation
  double assign_us_per_round() const {
    return rounds == 0 ? 0.0 : assign_seconds * 1e6 / rounds;
  }
  double rounds_per_sec() const {
    double total = assign_seconds + apply_seconds;
    return total <= 0.0 ? 0.0 : rounds / total;
  }
};

PackedRows RandomSims(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& row : sims) {
    for (double& x : row) x = rng.UniformDouble(0.0, 1.0);
  }
  return PackRows(sims);
}

// Deterministic monotone oracle: a vertex matches iff its mean similarity
// clears the threshold. Monotone in the partial order, so the loop never
// hits vote conflicts — every round's cost is the selector + propagation,
// which is what this bench isolates (the trace tests cover conflicts).
bool OracleMatch(std::span<const double> sims, double tau) {
  double sum = 0.0;
  for (double x : sims) sum += x;
  return sum >= tau * sims.size();
}

LoopResult RunLoop(SelectorKind kind, size_t n, size_t m, int threads,
                   int repeats, uint64_t seed) {
  ScopedNumThreads scope(threads);
  LoopResult out;
  out.selector = SelectorKindName(kind);
  out.threads = threads;
  out.vertices = n;

  Stopwatch build_watch;
  const PackedRows sims = RandomSims(n, m, seed);
  PairGraph graph = BruteForceBuilder().Build(sims.rows());
  out.build_seconds = build_watch.ElapsedSeconds();
  out.edges = graph.num_edges();

  out.completed = true;
  for (int rep = 0; rep < repeats; ++rep) {
    ColoringState state(&graph);
    std::unique_ptr<QuestionSelector> selector = MakeSelector(kind, seed);
    Stopwatch watch;
    while (!state.AllColored()) {
      watch.Restart();
      std::vector<int> batch = selector->NextBatch(state);
      out.assign_seconds += watch.ElapsedSeconds();
      if (batch.empty()) break;  // contract violation; surfaced by tests
      ++out.rounds;
      out.questions += batch.size();
      watch.Restart();
      for (int v : batch) {
        state.ApplyAnswer(v, OracleMatch(sims.rows().row(v), 0.5));
      }
      out.apply_seconds += watch.ElapsedSeconds();
    }
    out.completed = out.completed && state.AllColored();
  }
  return out;
}

void PrintRow(const LoopResult& r) {
  std::printf("%-10s %8d %8zu %9zu %7zu %9zu %10.3f %12.1f %12.1f %10.0f\n",
              r.selector.c_str(), r.threads, r.vertices, r.edges, r.rounds,
              r.questions, r.build_seconds * 1e3,
              r.assign_seconds * 1e3, r.assign_us_per_round(),
              r.rounds_per_sec());
}

std::string JsonRow(const LoopResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"selector\": \"%s\", \"threads\": %d, \"vertices\": %zu, "
      "\"edges\": %zu, \"rounds\": %zu, \"questions\": %zu, "
      "\"build_seconds\": %.6f, \"assign_seconds\": %.6f, "
      "\"apply_seconds\": %.6f, \"assign_us_per_round\": %.2f, "
      "\"rounds_per_sec\": %.1f}",
      r.selector.c_str(), r.threads, r.vertices, r.edges, r.rounds,
      r.questions, r.build_seconds, r.assign_seconds, r.apply_seconds,
      r.assign_us_per_round(), r.rounds_per_sec());
  return buf;
}

int Run(bool smoke, const char* json_path) {
  // TopoSort / Random drive the acceptance graph (>= 2k-vertex closure);
  // the path-cover selectors run a smaller instance because Hopcroft-Karp
  // per round dominates far earlier. m = 3 attributes puts the comparable
  // fraction near the paper's real-dataset range (~25%).
  const size_t kTopoN = smoke ? 120 : 2500;
  const size_t kPathN = smoke ? 80 : 1000;
  const size_t kAttrs = 3;
  // Several fresh serve loops per configuration: the batch selectors finish
  // in a handful of rounds, so one loop is too thin a sample.
  const int kRepeats = smoke ? 1 : 5;
  const std::vector<int> kThreads = smoke ? std::vector<int>{1, 2}
                                          : std::vector<int>{1, 2, 8};

  PrintTitle("Ask-and-color loop — per-round assignment latency (closure graph)");
  std::printf("%-10s %8s %8s %9s %7s %9s %10s %12s %12s %10s\n", "Selector",
              "Threads", "|V|", "|E|", "Rounds", "Quest", "Build(ms)",
              "Assign(ms)", "Assign(us/r)", "Rounds/s");
  PrintRule();

  std::vector<LoopResult> results;
  bool ok = true;
  for (int threads : kThreads) {
    for (SelectorKind kind :
         {SelectorKind::kTopoSort, SelectorKind::kMultiPath,
          SelectorKind::kSinglePath, SelectorKind::kRandom}) {
      size_t n = (kind == SelectorKind::kTopoSort ||
                  kind == SelectorKind::kRandom)
                     ? kTopoN
                     : kPathN;
      LoopResult r = RunLoop(kind, n, kAttrs, threads, kRepeats, kBenchSeed);
      PrintRow(r);
      results.push_back(r);
      if (!r.completed || r.rounds == 0) {
        std::fprintf(stderr, "FAIL: %s did not color all %zu vertices\n",
                     r.selector.c_str(), n);
        ok = false;
      }
    }
  }

  PrintRule();
  std::printf("peak RSS: %.1f MB\n",
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < results.size(); ++i) {
      std::fprintf(f, "%s%s\n", JsonRow(results[i]).c_str(),
                   i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace power

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json <path>]\n", argv[0]);
      return 2;
    }
  }
  return power::bench::Run(smoke, json_path);
}
