// Command-line entity resolution over a CSV file.
//
//   build/examples/er_cli --demo                # generate + resolve a demo
//   build/examples/er_cli <table.csv> [flags]   # resolve your own table
//
// CSV format (Table::ToCsv): header "id,entity_id,<attr>,...". If the
// entity_id column is all -1 the tool only outputs clusters; otherwise it
// also scores itself against the ground truth.
//
// Flags: --tau=0.3 --eps=0.1 --band=90 --selector=topo|single|multi|random
//        --plus (error tolerance) --budget=N --seed=N --out=clusters.csv
// A malformed value, or a tau outside (0, 1], prints the usage line and
// exits with status 2.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/consolidation.h"
#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "eval/cluster_metrics.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "util/env.h"
#include "util/strings.h"

namespace {

using namespace power;

struct CliOptions {
  std::string csv_path;
  bool demo = false;
  double tau = 0.3;
  double eps = 0.1;
  int band = 90;
  SelectorKind selector = SelectorKind::kTopoSort;
  bool error_tolerant = false;
  size_t budget = 0;
  uint64_t seed = 7;
  std::string out_path;
};

constexpr const char* kUsage =
    "usage: er_cli --demo | <table.csv> [--tau=] [--eps=] "
    "[--band=70|80|90] [--selector=topo|single|multi|random] "
    "[--plus] [--budget=N] [--seed=N] [--out=file.csv]\n";

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool BadValue(const char* name, const std::string& value) {
  std::fprintf(stderr, "bad --%s value '%s'\n", name, value.c_str());
  return false;
}

// Strict parses (util/env.h): the whole value must be a number, and an
// integer must lie in [lo, hi].
bool ParseDoubleFlag(const char* name, const std::string& value, double* out) {
  std::optional<double> v = ParseDouble(value);
  if (!v.has_value()) return BadValue(name, value);
  *out = *v;
  return true;
}

bool ParseIntFlag(const char* name, const std::string& value, int64_t lo,
                  int64_t hi, int64_t* out) {
  std::optional<int64_t> v = ParseInt(value);
  if (!v.has_value() || *v < lo || *v > hi) return BadValue(name, value);
  *out = *v;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  constexpr int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    std::string value;
    int64_t n = 0;
    if (arg == "--demo") {
      opts->demo = true;
    } else if (arg == "--plus") {
      opts->error_tolerant = true;
    } else if (ParseFlag(arg, "tau", &value)) {
      if (!ParseDoubleFlag("tau", value, &opts->tau)) return false;
      if (!(opts->tau > 0.0 && opts->tau <= 1.0)) {
        std::fprintf(stderr, "--tau must be in (0, 1], got '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (ParseFlag(arg, "eps", &value)) {
      if (!ParseDoubleFlag("eps", value, &opts->eps)) return false;
    } else if (ParseFlag(arg, "band", &value)) {
      if (!ParseIntFlag("band", value, kIntMin, kIntMax, &n)) return false;
      opts->band = static_cast<int>(n);
    } else if (ParseFlag(arg, "budget", &value)) {
      if (!ParseIntFlag("budget", value, 0, kInt64Max, &n)) return false;
      opts->budget = static_cast<size_t>(n);
    } else if (ParseFlag(arg, "seed", &value)) {
      if (!ParseIntFlag("seed", value, 0, kInt64Max, &n)) return false;
      opts->seed = static_cast<uint64_t>(n);
    } else if (ParseFlag(arg, "out", &value)) {
      opts->out_path = value;
    } else if (ParseFlag(arg, "selector", &value)) {
      if (value == "topo") {
        opts->selector = SelectorKind::kTopoSort;
      } else if (value == "single") {
        opts->selector = SelectorKind::kSinglePath;
      } else if (value == "multi") {
        opts->selector = SelectorKind::kMultiPath;
      } else if (value == "random") {
        opts->selector = SelectorKind::kRandom;
      } else {
        std::fprintf(stderr, "unknown selector '%s'\n", value.c_str());
        return false;
      }
    } else if (!StartsWith(arg, "--")) {
      opts->csv_path = arg;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return opts->demo || !opts->csv_path.empty();
}

WorkerBand BandFor(int band) {
  if (band <= 70) return Band70();
  if (band <= 80) return Band80();
  return Band90();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  Table table;
  if (opts.demo) {
    DatasetProfile profile = RestaurantProfile();
    profile.num_records = 300;
    profile.num_entities = 240;
    table = DatasetGenerator(opts.seed).Generate(profile);
    std::printf("demo table: %zu records\n", table.num_records());
  } else {
    std::ifstream in(opts.csv_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", opts.csv_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!Table::FromCsv(buffer.str(), &table)) {
      std::fprintf(stderr, "malformed table CSV %s\n",
                   opts.csv_path.c_str());
      return 2;
    }
    std::printf("loaded %zu records, %zu attributes from %s\n",
                table.num_records(), table.schema().num_attributes(),
                opts.csv_path.c_str());
  }

  CrowdOracle crowd(&table, BandFor(opts.band), WorkerModel::kExactAccuracy,
                    5, opts.seed);
  PowerConfig config;
  config.prune_tau = opts.tau;
  config.epsilon = opts.eps;
  config.selector = opts.selector;
  config.error_tolerant = opts.error_tolerant;
  config.max_questions = opts.budget;
  config.seed = opts.seed;
  PowerResult result = PowerFramework(config).Run(table, &crowd);

  auto clusters = BuildClusters(table.num_records(), result.matched_pairs);
  size_t non_singleton = 0;
  for (const auto& c : clusters) {
    if (c.size() > 1) ++non_singleton;
  }
  std::printf("candidates=%zu questions=%zu rounds=%zu clusters=%zu "
              "(%zu with duplicates)%s\n",
              result.num_pairs, result.questions, result.iterations,
              clusters.size(), non_singleton,
              result.budget_exhausted ? " [budget exhausted]" : "");

  // Score against ground truth when the CSV carries real entity ids.
  bool has_truth = false;
  for (const auto& r : table.records()) {
    if (r.entity_id >= 0) has_truth = true;
  }
  if (has_truth) {
    auto prf = ComputePrf(result.matched_pairs, TrueMatchPairs(table));
    ClusterMetrics cm = ComputeClusterMetrics(table, result.matched_pairs);
    std::printf("pairwise P/R/F1 = %.3f/%.3f/%.3f   rand index = %.4f\n",
                prf.precision, prf.recall, prf.f1, cm.rand_index);
  }

  if (!opts.out_path.empty()) {
    std::ofstream out(opts.out_path);
    out << "cluster_id,record_id\n";
    for (size_t c = 0; c < clusters.size(); ++c) {
      for (int r : clusters[c]) {
        out << c << "," << r << "\n";
      }
    }
    std::printf("clusters written to %s\n", opts.out_path.c_str());
  }

  // Show a few consolidated ("golden") records.
  auto entities = ConsolidateEntities(table, result.matched_pairs);
  std::printf("\nsample golden records (medoid value per attribute):\n");
  int shown = 0;
  for (const auto& entity : entities) {
    if (entity.records.size() < 2 || shown >= 3) continue;
    ++shown;
    std::printf("  [%zu records]", entity.records.size());
    for (const auto& v : entity.values) std::printf(" | %s", v.c_str());
    std::printf("\n");
  }
  return 0;
}
