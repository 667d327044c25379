// Measurement program of the repository benchmark (perfbench/run.py runs it
// and turns its raw samples into metrics).
//
// One process, one worker thread. A run makes whole passes over a fixed set
// of tables, at least three and then more while --seconds allow: the k-th
// table is generated from TableSeed(seed, k) and serialized to CSV before
// anything is timed, and the program only ever sees that text. After the
// measured passes, a pass of its own computes each table's reference
// candidate pairs with the all-pairs scan (and, in traced mode, with the
// prefix join as well, which must agree), which the runs' outputs are
// checked against.
//
//   --mode timed   a repetition times the host probe (HostProbe), then sets
//                  up (Table::FromCsv, the platform and oracle constructors)
//                  and calls PowerFramework::Run, with tracing off. Nothing
//                  else is on the timed path.
//   --mode traced  a repetition does one Run as in timed mode (the overhead
//                  baseline) and drives the same pipeline stage by stage
//                  with a span around each call into a layer's public entry
//                  point, in alternating order.
//
// The result is written to --out as JSON lines: one per repetition, with its
// raw samples, spans and counters, then one with the tables' references and
// the machine they were taken on.
//
// Usage:
//   perfbench --workload <batch-dense|crowd-faulty>
//             --seed N --mode <timed|traced> --seconds S --out <path>
//             [--checkpoint <path>] [--records N] [--tables N]
#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "core/power.h"
#include "data/generator.h"
#include "data/table.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "group/grouped_graph.h"
#include "group/split_grouper.h"
#include "platform/platform.h"
#include "platform/platform_oracle.h"
#include "platform/requester.h"
#include "sim/feature_cache.h"
#include "sim/similarity_matrix.h"
#include "sim/simd_kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace power {
namespace perfbench {
namespace {

// One worker thread. On a shared host the steps a pool runs in parallel wait
// for the slowest of its threads, so another tenant on any one core shows in
// every run; and on these workloads the pool saves little, since the prefix
// join that dominates batch-dense runs on one thread.
constexpr int kThreads = 1;
// The references are computed after the measured passes, on four threads.
constexpr int kReferenceThreads = 4;
constexpr size_t kMinPasses = 3;
// Passes short of kMinPasses are made only while they end within this many
// seconds, so that a slow host cannot push a run past run.py's time limit.
constexpr double kMaxMeasureS = 100.0;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// CPU seconds of the process. The timed path runs on one thread, so this is
// the time it computed: time the host gave the core to someone else (steal)
// or another process held it is not counted, and neither is time spent
// waiting for the disk.
double CpuNow() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// A fixed piece of work that uses nothing of the library and nothing of the
// input: merges of sorted token lists, as blocking verifies candidates, and
// a sort, over about 1 MB. A timed repetition times it first, so it starts
// cold and refills its data from memory as the program does. On a shared
// host, the CPU time of such work doubles for minutes at a time while the
// other tenants load the memory they share with it; the probe's median over
// a run measures that, and run.py scales the run's times by it.
class HostProbe {
 public:
  HostProbe() : lists_(kLists * kLength), sorted_(kSorted) {
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (size_t l = 0; l < kLists; ++l) {
      uint32_t* list = &lists_[l * kLength];
      for (size_t k = 0; k < kLength; ++k) list[k] = Next(&x) % kVocabulary;
      std::sort(list, list + kLength);
    }
  }

  // CPU seconds of one round of the work.
  double Seconds() {
    const double start = CpuNow();
    uint64_t common = 0;
    for (size_t a = 0; a < kLists; ++a) {
      const uint32_t* p = &lists_[a * kLength];
      const uint32_t* q = &lists_[((a * 7919 + 1) % kLists) * kLength];
      size_t i = 0, j = 0;
      while (i < kLength && j < kLength) {
        if (p[i] < q[j]) {
          ++i;
        } else if (q[j] < p[i]) {
          ++j;
        } else {
          ++common, ++i, ++j;
        }
      }
    }
    uint64_t x = common | 1;
    for (uint32_t& v : sorted_) v = Next(&x);
    std::sort(sorted_.begin(), sorted_.end());
    sink_ += common + sorted_[common % kSorted];
    return CpuNow() - start;
  }

 private:
  static constexpr size_t kLists = 16384;
  static constexpr size_t kLength = 16;
  static constexpr uint32_t kVocabulary = 4096;
  static constexpr size_t kSorted = 65536;

  static uint32_t Next(uint64_t* x) {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    return static_cast<uint32_t>(*x);
  }

  std::vector<uint32_t> lists_;
  std::vector<uint32_t> sorted_;
  // Keeps the work from being optimized away.
  uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  DatasetProfile profile;
  // SinglePath, Power+, and a faulty platform with retries.
  bool faulty = false;
  // A checkpoint at every phase boundary.
  bool checkpoint = false;
  // Tables a run makes its passes over (see Main).
  size_t tables = 0;
};

// Keeps `base`'s records-per-entity ratio at `records` records (the same
// extrapolation the scale bench applies to ACMPub).
DatasetProfile Resized(DatasetProfile base, size_t records) {
  const double ratio = static_cast<double>(base.num_entities) /
                       static_cast<double>(base.num_records);
  base.num_records = records;
  base.num_entities = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(records) * ratio));
  return base;
}

// Seed of the k-th table of a run: the run's own seed first, then a
// SplitMix64 stream, so every seed names one fixed sequence of tables.
uint64_t TableSeed(uint64_t seed, uint64_t k) {
  if (k == 0) return seed;
  uint64_t z = seed + k * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::optional<Workload> MakeWorkload(const std::string& name,
                                     size_t records_override,
                                     size_t tables_override) {
  Workload w;
  w.name = name;
  size_t records = 0;
  // A timed pass over a workload's tables takes about 6 to 7 seconds on a
  // quiet host and twice that on a busy one, so a 30-second run makes three
  // to five passes. The table counts keep the crowd figures, which vary from
  // table to table, steady across seeds.
  if (name == "batch-dense") {
    // ACMPub's short-tailed vocabulary: the prefix join verifies most of
    // what it indexes and runs about 3.5x slower than the all-pairs scan.
    // The checkpoint layer is measured here: a table has only a few crowd
    // rounds, so the commits' disk time, which varies widely on a shared
    // disk, is a small share of the run.
    w.profile = AcmPubProfile(1.0);
    w.checkpoint = true;
    records = 6000;
    w.tables = 12;
  } else if (name == "crowd-faulty") {
    // Hundreds of one-question rounds over a marketplace that abandons,
    // spams and times out, with retries and Power+.
    w.profile = CoraProfile();
    w.faulty = true;
    records = 2000;
    w.tables = 64;
  } else {
    return std::nullopt;
  }
  if (records_override > 0) records = records_override;
  if (tables_override > 0) w.tables = tables_override;
  w.profile = Resized(w.profile, records);
  return w;
}

PowerConfig MakeConfig(const Workload& w, const std::string& checkpoint) {
  PowerConfig config;
  config.num_threads = kThreads;
  if (w.faulty) {
    config.selector = SelectorKind::kSinglePath;
    config.error_tolerant = true;
  }
  if (w.checkpoint) config.checkpoint_path = checkpoint;
  return config;
}

// bench_platform's `combined` marketplace: abandonment, spam, a slow tail
// and an assignment timeout at once.
FaultProfile CombinedFaults() {
  FaultProfile f;
  f.abandon_prob = 0.4;
  f.spammer_rate = 0.2;
  f.slow_tail_prob = 0.2;
  f.slow_tail_multiplier = 10.0;
  f.assignment_timeout_seconds = 600.0;
  return f;
}

// What a user builds before calling Run: the table parsed from CSV, the
// marketplace over it, and the oracle over the marketplace.
struct RunInputs {
  Table table;
  std::unique_ptr<CrowdPlatform> platform;
  std::unique_ptr<PlatformOracle> oracle;
};

void Ingest(const std::string& csv, RunInputs* s) {
  if (!Table::FromCsv(csv, &s->table)) Die("generated CSV does not parse");
}

void BuildCrowd(const Workload& w, uint64_t seed, RunInputs* s) {
  PlatformConfig pc;
  pc.difficulty_scale = w.profile.human_hardness;
  pc.seed = seed;
  if (w.faulty) pc.fault = CombinedFaults();
  s->platform = std::make_unique<CrowdPlatform>(&s->table, pc);
  if (w.faulty) {
    RetryPolicy policy;
    policy.max_attempts = 4;
    s->oracle = std::make_unique<PlatformOracle>(s->platform.get(), policy);
  } else {
    s->oracle = std::make_unique<PlatformOracle>(s->platform.get());
  }
}

std::unique_ptr<RunInputs> SetUp(const Workload& w, const std::string& csv,
                               uint64_t seed) {
  auto s = std::make_unique<RunInputs>();
  Ingest(csv, s.get());
  BuildCrowd(w, seed, s.get());
  return s;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

// Resets the process's peak-RSS watermark (VmHWM) to its current RSS, after
// handing freed heap back to the kernel, so the next reading is the peak of
// what ran in between.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<uint64_t> SortedKeys(
    const std::vector<std::pair<int, int>>& pairs) {
  std::vector<uint64_t> keys;
  keys.reserve(pairs.size());
  for (const auto& [i, j] : pairs) keys.push_back(PairKey(i, j));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<uint64_t> SortedKeys(const std::unordered_set<uint64_t>& set) {
  std::vector<uint64_t> keys(set.begin(), set.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string Digest(const std::vector<uint64_t>& sorted_keys) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t k : sorted_keys) h = Fnv(h, k);
  return Hex(h);
}

// Spans kept in memory for the traced run, written out at the end.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  int Begin(std::string name) {
    spans_.push_back({std::move(name), Now(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int id) {
    spans_[id].end = Now();
    open_ = spans_[id].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// Forwards to the real oracle and measures how long the crowd waits for
// the machine: the gap from one AskBatch returning to the next call. With
// a tracer it also records each AskBatch as a `crowd.ask` span.
class TimingOracle : public PairOracle {
 public:
  TimingOracle(PairOracle* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  VoteResult Ask(int i, int j) override { return inner_->Ask(i, j); }

  std::vector<VoteResult> AskBatch(
      const std::vector<std::pair<int, int>>& pairs) override {
    const double start = Now();
    if (last_return_ >= 0.0) gaps_ms_.push_back((start - last_return_) * 1e3);
    const int span = tracer_ != nullptr ? tracer_->Begin("crowd.ask") : -1;
    std::vector<VoteResult> votes = inner_->AskBatch(pairs);
    if (span >= 0) tracer_->End(span);
    posted_ += pairs.size();
    last_return_ = Now();
    return votes;
  }

  std::string SaveDurableState() const override {
    return inner_->SaveDurableState();
  }
  bool RestoreDurableState(const std::string& blob) override {
    return inner_->RestoreDurableState(blob);
  }

  const std::vector<double>& gaps_ms() const { return gaps_ms_; }
  size_t posted() const { return posted_; }

 private:
  PairOracle* inner_;
  Tracer* tracer_;
  double last_return_ = -1.0;
  std::vector<double> gaps_ms_;
  size_t posted_ = 0;
};

void RemoveCheckpoint(const std::string& path) {
  if (path.empty()) return;
  for (const char* suffix : {"", ".prev", ".tmp"}) {
    std::remove((path + suffix).c_str());
  }
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : 0;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string List(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t k = 0; k < items.size(); ++k) {
    if (k > 0) out += ',';
    out += items[k];
  }
  out += ']';
  return out;
}

std::string NumList(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double v : values) items.push_back(Num(v));
  return List(items);
}

// A flat JSON object built field by field.
class Obj {
 public:
  Obj& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += Quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  Obj& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Obj& Num(const std::string& key, double v) {
    return Raw(key, perfbench::Num(v));
  }
  Obj& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string Json() const {
    std::string out = "{";
    out += body_;
    out += '}';
    return out;
  }

 private:
  std::string body_;
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string MachineJson() {
  return Obj()
      .Str("cpu", CpuModel())
      .Num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .Num("threads", kThreads)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("simd", SimdLevelName(ActiveSimdLevel()))
      .Json();
}

// ---------------------------------------------------------------------------
// Repetitions
// ---------------------------------------------------------------------------

struct RunSample {
  // CPU and wall seconds of Run.
  double run_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  PowerResult result;
  double f1 = 0.0;
  double crowd_usd = 0.0;
  double crowd_hours = 0.0;
  std::vector<double> gaps_ms;
};

// One measured call of the user-facing pipeline on set-up inputs.
RunSample TimedRun(const Workload& w, RunInputs* s, const std::string& ckpt) {
  RemoveCheckpoint(ckpt);
  TimingOracle oracle(s->oracle.get(), nullptr);
  const PowerFramework power(MakeConfig(w, ckpt));
  RunSample out;
  const double start = Now();
  const double cpu_start = CpuNow();
  out.result = power.Run(s->table, &oracle);
  out.run_s = CpuNow() - cpu_start;
  out.wall_s = Now() - start;
  out.peak_rss_mb = PeakRssMb();
  out.f1 = ComputePrf(out.result.matched_pairs, TrueMatchPairs(s->table)).f1;
  const CrowdPlatform& platform = *s->platform;
  out.crowd_usd = platform.total_cost_dollars();
  out.crowd_hours = platform.clock().now_seconds() / 3600.0;
  out.gaps_ms = oracle.gaps_ms();
  RemoveCheckpoint(ckpt);
  return out;
}

std::string RunJson(const RunSample& r) {
  const PowerResult& p = r.result;
  return Obj()
      .Num("run_s", r.run_s)
      .Num("wall_s", r.wall_s)
      .Num("peak_rss_mb", r.peak_rss_mb)
      .Num("questions", static_cast<double>(p.questions))
      .Num("rounds", static_cast<double>(p.iterations))
      .Num("f1", r.f1)
      .Num("crowd_usd", r.crowd_usd)
      .Num("crowd_hours", r.crowd_hours)
      .Num("pairs", static_cast<double>(p.num_pairs))
      .Num("groups", static_cast<double>(p.num_groups))
      .Num("edges", static_cast<double>(p.num_edges))
      .Num("blue_groups", static_cast<double>(p.num_blue_groups))
      .Bool("budget_exhausted", p.budget_exhausted)
      .Num("degraded", static_cast<double>(p.degraded_questions))
      .Num("resumed", static_cast<double>(p.resumed))
      .Num("checkpoints", static_cast<double>(p.checkpoints_written))
      .Str("matched_digest", Digest(SortedKeys(p.matched_pairs)))
      .Raw("gaps_ms", NumList(r.gaps_ms))
      .Json();
}

// One repetition's JSON, and the matched pairs (sorted keys) of its run.
struct Rep {
  std::string json;
  std::vector<uint64_t> matched;
};

// One repetition of a timed run: the host probe, set-up, then Run.
Rep TimedRep(const Workload& w, const std::string& csv, uint64_t table_seed,
             const std::string& ckpt, HostProbe* probe) {
  const double probe_s = probe->Seconds();
  ResetPeakRss();
  const double start = CpuNow();
  std::unique_ptr<RunInputs> inputs = SetUp(w, csv, table_seed);
  const double setup_s = CpuNow() - start;
  const RunSample run = TimedRun(w, inputs.get(), ckpt);
  return {Obj()
              .Num("probe_s", probe_s)
              .Num("setup_s", setup_s)
              .Raw("run", RunJson(run))
              .Json(),
          SortedKeys(run.result.matched_pairs)};
}

// One repetition of a traced run: one untraced Run (the overhead baseline),
// and the same pipeline driven stage by stage through each layer's public
// entry point with a span around each call. The two go in the order
// `baseline_first` gives, which the caller alternates. Every stage call of
// the traced run lives in this one function.
Rep TracedRep(const Workload& w, const std::string& csv, uint64_t table_seed,
              size_t pass, const std::string& ckpt, bool baseline_first) {
  RunSample baseline;
  auto run_baseline = [&] {
    ResetPeakRss();
    std::unique_ptr<RunInputs> s = SetUp(w, csv, table_seed);
    baseline = TimedRun(w, s.get(), ckpt);
  };
  if (baseline_first) run_baseline();

  ResetPeakRss();
  RemoveCheckpoint(ckpt);
  Tracer tr;
  Obj counters;
  auto inputs = std::make_unique<RunInputs>();
  int span = tr.Begin("data.ingest");
  Ingest(csv, inputs.get());
  tr.End(span);
  span = tr.Begin("crowd.setup");
  BuildCrowd(w, table_seed, inputs.get());
  tr.End(span);
  const PowerConfig config = MakeConfig(w, ckpt);
  TimingOracle oracle(inputs->oracle.get(), &tr);
  ScopedNumThreads threads(config.num_threads);

  const double run_cpu_start = CpuNow();
  const int run = tr.Begin("run");
  span = tr.Begin("sim.features");
  FeatureCache features(inputs->table);
  tr.End(span);

  span = tr.Begin("blocking.candidates");
  std::vector<std::pair<int, int>> candidates = GenerateCandidates(
      features, config.prune_tau, config.candidate_method, CandidateOptions{});
  tr.End(span);
  counters.Num("blocking.rss_mb", PeakRssMb());

  span = tr.Begin("sim.vectors");
  std::vector<SimilarPair> pairs =
      ComputePairSimilarities(features, candidates, config.component_floor);
  tr.End(span);
  counters.Num("sim.rss_mb", PeakRssMb());

  span = tr.Begin("core.job_setup");
  RunOnPairsJob job(config, pairs, &oracle);
  tr.End(span);
  counters.Num("core.job_rss_mb", PeakRssMb());

  // Checkpoint size after every step, read from outside with stat().
  std::vector<double> checkpoint_bytes;
  while (!job.done()) {
    span = tr.Begin(std::string("core.step.") + RunPhaseName(job.phase()));
    job.Step();
    tr.End(span);
    if (!config.checkpoint_path.empty()) {
      checkpoint_bytes.push_back(
          static_cast<double>(FileSize(config.checkpoint_path)));
    }
  }
  // Groups the loop colored without asking the crowd about them.
  size_t inferred = 0;
  const ColoringState& coloring = job.coloring();
  const size_t num_groups = coloring.graph().num_vertices();
  for (size_t g = 0; g < num_groups; ++g) {
    const int v = static_cast<int>(g);
    if (!coloring.IsUncolored(v) && !coloring.asked(v)) ++inferred;
  }
  const bool all_settled = coloring.AllColored();

  span = tr.Begin("core.finish");
  PowerResult result = job.Finish();
  tr.End(span);
  tr.End(run);
  const double run_cpu_s = CpuNow() - run_cpu_start;
  RemoveCheckpoint(ckpt);

  // Grouping and graph construction again, split apart, on the same
  // vectors (RunOnPairsJob's constructor does both in one call).
  std::vector<std::vector<double>> sims;
  sims.reserve(pairs.size());
  for (const SimilarPair& p : pairs) sims.push_back(p.sims);
  span = tr.Begin("group.split");
  std::vector<VertexGroup> groups =
      SplitGrouper().Group(sims, config.epsilon);
  tr.End(span);
  const size_t split_groups = groups.size();
  span = tr.Begin("graph.build");
  GroupedGraph graph = BuildGroupedGraph(std::move(groups));
  tr.End(span);

  const CrowdPlatform& platform = *inputs->platform;
  const Requester& requester = inputs->oracle->requester();
  RunSample traced;
  traced.result = result;
  traced.run_s = run_cpu_s;
  traced.wall_s = tr.spans()[run].end - tr.spans()[run].start;
  traced.peak_rss_mb = PeakRssMb();
  traced.f1 =
      ComputePrf(result.matched_pairs, TrueMatchPairs(inputs->table)).f1;
  traced.crowd_usd = platform.total_cost_dollars();
  traced.crowd_hours = platform.clock().now_seconds() / 3600.0;
  traced.gaps_ms = oracle.gaps_ms();

  counters.Num("records", static_cast<double>(inputs->table.num_records()))
      .Num("blocking.pairs", static_cast<double>(candidates.size()))
      .Str("candidate_digest", Digest(SortedKeys(candidates)))
      .Num("group.groups", static_cast<double>(split_groups))
      .Num("graph.edges", static_cast<double>(graph.graph.num_edges()))
      .Num("core.commits", static_cast<double>(result.checkpoints_written))
      .Num("select.inferred", static_cast<double>(inferred))
      .Bool("all_settled", all_settled)
      .Num("crowd.posted", static_cast<double>(oracle.posted()))
      .Num("platform.hits", static_cast<double>(platform.hits_posted()))
      .Num("platform.completed",
           static_cast<double>(platform.assignments_completed()))
      .Num("platform.rejected",
           static_cast<double>(platform.assignments_rejected()))
      .Num("platform.reposted",
           static_cast<double>(requester.questions_reposted()))
      .Num("platform.backoff_hours", requester.backoff_seconds() / 3600.0)
      .Raw("checkpoint_bytes", NumList(checkpoint_bytes));

  const std::string run_id = w.name + "/" + std::to_string(table_seed) +
                             "/" + std::to_string(pass);
  std::vector<std::string> spans;
  for (const Span& s : tr.spans()) {
    spans.push_back(Obj()
                        .Str("name", s.name)
                        .Str("run_id", run_id)
                        .Num("start", s.start)
                        .Num("end", s.end)
                        .Num("parent", s.parent)
                        .Json());
  }
  if (!baseline_first) run_baseline();
  return {Obj()
              .Bool("baseline_first", baseline_first)
              .Raw("baseline", RunJson(baseline))
              .Raw("traced", RunJson(traced))
              .Raw("counters", counters.Json())
              .Raw("spans", List(spans))
              .Json(),
          SortedKeys(result.matched_pairs)};
}

// The candidate pairs one blocking method finds: what a table's runs are
// checked against.
std::vector<uint64_t> ReferencePairs(const std::string& csv, double tau,
                                     CandidateMethod method) {
  Table table;
  if (!Table::FromCsv(csv, &table)) Die("generated CSV does not parse");
  ScopedNumThreads threads(kReferenceThreads);
  FeatureCache features(table);
  return SortedKeys(
      GenerateCandidates(features, tau, method, CandidateOptions{}));
}

std::string ReferenceJson(const std::vector<uint64_t>& keys) {
  return Obj()
      .Num("pairs", static_cast<double>(keys.size()))
      .Str("digest", Digest(keys))
      .Json();
}

// A table's reference, computed apart from every measured repetition: the
// all-pairs scan's candidates (and, for a traced run, the prefix join's,
// which must agree), and whether `matched` lies within them.
std::string VerifyTable(const std::string& csv, bool traced,
                        const std::vector<uint64_t>& matched) {
  // Both workloads block at the default PowerConfig's threshold.
  const double tau = PowerConfig().prune_tau;
  const std::vector<uint64_t> scan =
      ReferencePairs(csv, tau, CandidateMethod::kAllPairs);
  Obj out;
  out.Raw("all_pairs", ReferenceJson(scan));
  if (traced) {
    out.Raw("prefix_join",
            ReferenceJson(
                ReferencePairs(csv, tau, CandidateMethod::kPrefixJoin)));
  }
  return out
      .Bool("matched_in_reference",
            std::includes(scan.begin(), scan.end(), matched.begin(),
                          matched.end()))
      .Json();
}

// Generating a table is part of no metric: the generator's table is freed
// before anything is measured, leaving only its CSV text.
std::string TableCsv(const Workload& w, uint64_t table_seed) {
  return DatasetGenerator(table_seed).Generate(w.profile).ToCsv();
}

int Main(int argc, char** argv) {
  std::string workload_name, mode, out_path, ckpt;
  uint64_t seed = 51;
  double seconds = 10.0;
  size_t records = 0;
  size_t tables = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--checkpoint") {
      ckpt = value;
    } else if (flag == "--records") {
      records = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--tables") {
      tables = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      Die("unknown flag " + flag);
    }
  }
  std::optional<Workload> w = MakeWorkload(workload_name, records, tables);
  if (!w.has_value()) Die("unknown workload '" + workload_name + "'");
  if (out_path.empty()) Die("--out is required");
  if (w->checkpoint && ckpt.empty()) Die(w->name + " needs --checkpoint");
  if (mode != "timed" && mode != "traced") Die("unknown mode '" + mode + "'");
  const bool traced = mode == "traced";

  // A run makes whole passes over the workload's tables, one repetition of
  // each table per pass: at least kMinPasses (fewer only where a pass would
  // end after kMaxMeasureS), then more while the next can end within
  // --seconds. So every table is measured equally often, and the
  // per-table medians cover the same inputs however fast the machine is; a
  // median over three or more passes also sets aside the first pass, which
  // runs while the process's buffers still grow. A traced run alternates
  // which of its two runs goes first, by table and pass.
  std::vector<uint64_t> seeds;
  for (size_t k = 0; k < w->tables; ++k) seeds.push_back(TableSeed(seed, k));
  // Each repetition is written out as it ends, so that the samples of
  // earlier repetitions do not add to the memory of later ones.
  std::ofstream out(out_path);
  std::vector<std::vector<uint64_t>> matched(w->tables);
  HostProbe probe;
  const double start = Now();
  size_t passes = 0;
  for (double pass_s = 0.0;; ++passes) {
    const double end = Now() - start + pass_s;
    if (passes > 0 && end > seconds &&
        (passes >= kMinPasses || end > kMaxMeasureS)) {
      break;
    }
    const double pass_start = Now();
    for (size_t k = 0; k < w->tables; ++k) {
      const std::string csv = TableCsv(*w, seeds[k]);
      Rep rep = traced ? TracedRep(*w, csv, seeds[k], passes, ckpt,
                                   (passes + k) % 2 == 0)
                       : TimedRep(*w, csv, seeds[k], ckpt, &probe);
      out << Obj().Num("table", static_cast<double>(k)).Raw("rep", rep.json)
                 .Json()
          << "\n";
      if (passes == 0) matched[k] = std::move(rep.matched);
    }
    pass_s = Now() - pass_start;
  }

  // The references, in a pass of their own after the measured ones.
  std::vector<std::string> table_json;
  for (size_t k = 0; k < w->tables; ++k) {
    const std::string csv = TableCsv(*w, seeds[k]);
    table_json.push_back(
        Obj()
            .Str("table_seed", std::to_string(seeds[k]))
            .Raw("reference", VerifyTable(csv, traced, matched[k]))
            .Json());
  }
  out << Obj()
             .Str("workload", w->name)
             .Num("seed", static_cast<double>(seed))
             .Str("mode", mode)
             .Num("passes", static_cast<double>(passes))
             .Raw("machine", MachineJson())
             .Raw("tables", List(table_json))
             .Json()
      << "\n";
  out.close();
  if (!out) Die("cannot write " + out_path);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace power

int main(int argc, char** argv) { return power::perfbench::Main(argc, argv); }
