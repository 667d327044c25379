// Marketplace resilience benchmark: what each FaultProfile costs the
// requester — extra HIT postings, retry/backoff waits on the simulated
// clock, rejected-assignment savings — and what it costs the serving loop
// (re-queues, degradations), for the full Power pipeline over the
// platform simulation (PlatformOracle -> Requester -> CrowdPlatform). Each
// row also reports the crowd's own time: the wall seconds spent inside the
// oracle, out of the run's total.
//
// A second section measures the durability tax: the same fault-sweep
// workload with `PowerConfig::checkpoint_path` set, so every state-machine
// phase boundary commits a write-ahead snapshot (util/snapshot.h:
// write-temp + fsync + rename), against the no-checkpoint baseline
// (target: <5% wall-clock overhead on the sweep total).
//
// Usage:
//   bench_platform [--smoke] [--json <path>]
//
// --smoke shrinks the dataset so the binary runs in well under a second; it
// is wired as the `bench_platform_smoke` ctest target to catch rot. --json
// writes both sections as a JSON object (consumed by BENCH_platform.json).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

#include "core/power.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "platform/platform.h"
#include "platform/platform_oracle.h"
#include "platform/requester.h"
#include "util/stopwatch.h"

namespace power {
namespace bench {
namespace {

struct NamedFault {
  std::string name;
  FaultProfile fault;
};

std::vector<NamedFault> FaultGrid() {
  std::vector<NamedFault> grid;
  grid.push_back({"none", {}});
  FaultProfile abandon;
  abandon.abandon_prob = 0.5;
  grid.push_back({"abandon", abandon});
  FaultProfile spam;
  spam.spammer_rate = 0.3;
  grid.push_back({"spam", spam});
  FaultProfile slow;
  slow.slow_tail_prob = 0.2;
  slow.slow_tail_multiplier = 10.0;
  slow.assignment_timeout_seconds = 600.0;
  grid.push_back({"slow+timeout", slow});
  FaultProfile combined;
  combined.abandon_prob = 0.4;
  combined.spammer_rate = 0.2;
  combined.slow_tail_prob = 0.2;
  combined.slow_tail_multiplier = 10.0;
  combined.assignment_timeout_seconds = 600.0;
  grid.push_back({"combined", combined});
  return grid;
}

// Forwards to the platform oracle and times the crowd's own share of a run:
// every batch the framework asks, through the requester and the simulated
// marketplace.
class TimedOracle : public PairOracle {
 public:
  explicit TimedOracle(PairOracle* inner) : inner_(inner) {}

  VoteResult Ask(int i, int j) override {
    Stopwatch watch;
    VoteResult vote = inner_->Ask(i, j);
    seconds_ += watch.ElapsedSeconds();
    return vote;
  }
  std::vector<VoteResult> AskBatch(
      const std::vector<std::pair<int, int>>& pairs) override {
    Stopwatch watch;
    std::vector<VoteResult> votes = inner_->AskBatch(pairs);
    seconds_ += watch.ElapsedSeconds();
    return votes;
  }
  std::string SaveDurableState() const override {
    return inner_->SaveDurableState();
  }
  bool RestoreDurableState(const std::string& blob) override {
    return inner_->RestoreDurableState(blob);
  }

  double seconds() const { return seconds_; }

 private:
  PairOracle* inner_;
  double seconds_ = 0.0;
};

struct FaultRow {
  std::string profile;
  size_t questions = 0;
  size_t rounds = 0;
  size_t hits_posted = 0;
  size_t reposted = 0;    // question reposts inside the requester
  size_t requeued = 0;    // framework-level re-queues (requester exhausted)
  size_t degraded = 0;    // fell back to the §6 machine answer
  size_t rejected = 0;    // assignments rejected (not paid)
  double sim_hours = 0.0; // simulated clock at the end (crowd + backoff)
  double dollars = 0.0;   // realized cost: approved assignments only
  size_t checkpoints = 0; // durable phase-boundary commits (0 = no path set)
  double wall_seconds = 0.0;
  double crowd_seconds = 0.0;  // inside the oracle, part of wall_seconds
  double f1 = 0.0;
};

FaultRow RunProfile(const BenchDataset& ds, const NamedFault& nf,
                    const std::string& checkpoint_path = std::string()) {
  PlatformConfig pc;
  pc.difficulty_scale = ds.human_hardness;
  pc.fault = nf.fault;
  pc.seed = kBenchSeed;
  Table table = ds.table;  // CrowdPlatform binds a non-owning pointer
  CrowdPlatform platform(&table, pc);
  RetryPolicy policy;
  policy.max_attempts = 4;
  PlatformOracle oracle(&platform, policy);
  TimedOracle timed(&oracle);

  PowerConfig config;
  config.selector = SelectorKind::kTopoSort;
  config.checkpoint_path = checkpoint_path;

  Stopwatch watch;
  PowerResult result = PowerFramework(config).Run(table, &timed);

  FaultRow row;
  row.profile = nf.name;
  row.wall_seconds = watch.ElapsedSeconds();
  row.crowd_seconds = timed.seconds();
  row.questions = result.questions;
  row.rounds = platform.rounds_posted();
  row.hits_posted = platform.hits_posted();
  row.reposted = oracle.requester().questions_reposted();
  row.requeued = result.requeued_questions;
  row.degraded = result.degraded_questions;
  row.rejected = platform.assignments_rejected();
  row.sim_hours = platform.clock()->now_seconds() / 3600.0;
  row.dollars = platform.total_cost_dollars();
  row.checkpoints = result.checkpoints_written;
  row.f1 = ComputePrf(result.matched_pairs, TrueMatchPairs(table)).f1;
  return row;
}

// ---------------------------------------------------------------------------
// Checkpoint-overhead section: the durability tax of write-ahead snapshots.
// ---------------------------------------------------------------------------

struct CheckpointRow {
  std::string profile;
  size_t checkpoints = 0;        // commits per checkpointed run
  double base_seconds = 0.0;     // min-of-reps, no checkpoint path
  double ckpt_seconds = 0.0;     // min-of-reps, checkpointing every phase
  double overhead_pct = 0.0;
};

std::string CheckpointScratchPath() {
  // TMPDIR is the platform's convention, not a POWER_* knob; EnvRaw is the
  // sanctioned raw read (no parse, no default to document).
  const char* tmp = EnvRaw("TMPDIR");
  std::string dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  return dir + "/bench_platform_ckpt_" + std::to_string(::getpid()) + ".bin";
}

// Runs `nf` with and without a checkpoint path, `reps` times each (min-of-
// reps damps scheduler noise), and checks that checkpointing is write-only:
// the measured run must produce the identical result either way.
CheckpointRow MeasureCheckpointOverhead(const BenchDataset& ds,
                                        const NamedFault& nf,
                                        const std::string& ckpt_path, int reps,
                                        bool* ok) {
  CheckpointRow row;
  row.profile = nf.name;
  row.base_seconds = 1e30;
  row.ckpt_seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    FaultRow base = RunProfile(ds, nf);
    // A completed job clears its checkpoint, so every rep starts clean.
    FaultRow ckpt = RunProfile(ds, nf, ckpt_path);
    row.base_seconds = std::min(row.base_seconds, base.wall_seconds);
    row.ckpt_seconds = std::min(row.ckpt_seconds, ckpt.wall_seconds);
    row.checkpoints = ckpt.checkpoints;
    if (base.questions != ckpt.questions || base.f1 != ckpt.f1 ||
        base.dollars != ckpt.dollars || ckpt.checkpoints == 0) {
      std::fprintf(stderr,
                   "FAIL: checkpointing changed profile %s (questions "
                   "%zu->%zu, f1 %.4f->%.4f, checkpoints %zu)\n",
                   nf.name.c_str(), base.questions, ckpt.questions, base.f1,
                   ckpt.f1, ckpt.checkpoints);
      *ok = false;
    }
  }
  row.overhead_pct =
      row.base_seconds > 0.0
          ? 100.0 * (row.ckpt_seconds - row.base_seconds) / row.base_seconds
          : 0.0;
  return row;
}

void PrintCheckpointRow(const CheckpointRow& r) {
  std::printf("%-18s %7zu %12.4f %12.4f %9.1f%%\n", r.profile.c_str(),
              r.checkpoints, r.base_seconds, r.ckpt_seconds, r.overhead_pct);
}

std::string JsonCheckpointRow(const CheckpointRow& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"profile\": \"%s\", \"checkpoints\": %zu, "
                "\"base_seconds\": %.4f, \"ckpt_seconds\": %.4f, "
                "\"overhead_pct\": %.1f}",
                r.profile.c_str(), r.checkpoints, r.base_seconds,
                r.ckpt_seconds, r.overhead_pct);
  return buf;
}

void PrintRow(const FaultRow& r) {
  std::printf(
      "%-14s %7zu %7zu %7zu %8zu %8zu %8zu %8zu %9.1f %8.2f %7.3f %8.3f "
      "%8.4f\n",
      r.profile.c_str(), r.questions, r.rounds, r.hits_posted, r.reposted,
      r.requeued, r.degraded, r.rejected, r.sim_hours, r.dollars, r.f1,
      r.wall_seconds, r.crowd_seconds);
}

std::string JsonRow(const FaultRow& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"profile\": \"%s\", \"questions\": %zu, \"rounds\": %zu, "
      "\"hits_posted\": %zu, \"reposted\": %zu, \"requeued\": %zu, "
      "\"degraded\": %zu, \"rejected\": %zu, \"sim_hours\": %.2f, "
      "\"dollars\": %.2f, \"f1\": %.4f, \"wall_seconds\": %.3f, "
      "\"crowd_seconds\": %.4f}",
      r.profile.c_str(), r.questions, r.rounds, r.hits_posted, r.reposted,
      r.requeued, r.degraded, r.rejected, r.sim_hours, r.dollars, r.f1,
      r.wall_seconds, r.crowd_seconds);
  return buf;
}

int Run(bool smoke, const char* json_path) {
  DatasetProfile profile = RestaurantProfile();
  if (smoke) {
    profile.num_records = 120;
    profile.num_entities = 100;
  }
  BenchDataset ds = MakeDataset(profile);

  PrintTitle("Marketplace resilience — retry/backoff overhead per fault profile (" +
             ds.name + ")");
  std::printf("%-14s %7s %7s %7s %8s %8s %8s %8s %9s %8s %7s %8s %8s\n",
              "Profile", "Quest", "Rounds", "HITs", "Repost", "Requeue",
              "Degrade", "Reject", "Sim(h)", "Dollars", "F1", "Wall(s)",
              "Crowd(s)");
  PrintRule();

  std::vector<FaultRow> results;
  bool ok = true;
  for (const NamedFault& nf : FaultGrid()) {
    FaultRow row = RunProfile(ds, nf);
    PrintRow(row);
    if (row.questions == 0) {
      std::fprintf(stderr, "FAIL: profile %s asked no questions\n",
                   nf.name.c_str());
      ok = false;
    }
    results.push_back(std::move(row));
  }

  // The durability tax is a fixed cost per phase boundary (serialize + two
  // fsyncs + rename), so it amortizes with round size. Smoke keeps the tiny
  // dataset (the ratio there is dominated by fsync latency and means
  // nothing); the real measurement scales Restaurant up to the regime
  // checkpointing exists for — jobs long enough to be worth resuming.
  DatasetProfile ckpt_profile = RestaurantProfile();
  if (!smoke) {
    ckpt_profile.num_records *= 16;
    ckpt_profile.num_entities *= 16;
  } else {
    ckpt_profile.num_records = 120;
    ckpt_profile.num_entities = 100;
  }
  BenchDataset ckpt_ds = MakeDataset(ckpt_profile);

  PrintTitle("Checkpoint overhead — write-ahead snapshots at every phase "
             "boundary vs none (" + std::to_string(ckpt_profile.num_records) +
             " records)");
  std::printf("%-18s %7s %12s %12s %10s\n", "Profile", "Ckpts", "Base(s)",
              "Ckpt(s)", "Overhead");
  PrintRule();
  const int reps = smoke ? 2 : 3;
  const std::string ckpt_path = CheckpointScratchPath();
  std::vector<CheckpointRow> ckpt_rows;
  CheckpointRow total;
  total.profile = "fault-sweep-total";
  for (const NamedFault& nf : FaultGrid()) {
    CheckpointRow row =
        MeasureCheckpointOverhead(ckpt_ds, nf, ckpt_path, reps, &ok);
    PrintCheckpointRow(row);
    total.checkpoints += row.checkpoints;
    total.base_seconds += row.base_seconds;
    total.ckpt_seconds += row.ckpt_seconds;
    ckpt_rows.push_back(std::move(row));
  }
  total.overhead_pct =
      total.base_seconds > 0.0
          ? 100.0 * (total.ckpt_seconds - total.base_seconds) /
                total.base_seconds
          : 0.0;
  PrintRule();
  PrintCheckpointRow(total);
  if (!smoke && total.overhead_pct >= 5.0) {
    // Informational, not fatal: the 5% budget is judged on the recorded
    // JSON. Smoke runs are exempt — at 120 records the fixed fsync cost
    // swamps any ratio a real workload would see.
    std::fprintf(stderr, "note: checkpoint overhead %.1f%% exceeds the 5%% "
                 "target on this run\n", total.overhead_pct);
  }
  ckpt_rows.push_back(std::move(total));
  std::remove(ckpt_path.c_str());
  std::remove((ckpt_path + ".prev").c_str());

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"fault_grid\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      std::fprintf(f, "%s%s\n", JsonRow(results[i]).c_str(),
                   i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n  \"checkpoint_overhead\": [\n");
    for (size_t i = 0; i < ckpt_rows.size(); ++i) {
      std::fprintf(f, "%s%s\n", JsonCheckpointRow(ckpt_rows[i]).c_str(),
                   i + 1 == ckpt_rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
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
