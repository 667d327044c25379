#ifndef POWER_CORE_POWER_H_
#define POWER_CORE_POWER_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "core/er_result.h"
#include "core/error_tolerance.h"
#include "core/job_journal.h"
#include "crowd/pair_oracle.h"
#include "data/table.h"
#include "graph/coloring.h"
#include "group/grouped_graph.h"
#include "select/selector.h"
#include "sim/pair.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace power {

enum class GroupingKind { kNone, kSplit, kGreedy };
enum class BuilderKind { kBruteForce, kQuickSort, kRangeTree };

const char* GroupingKindName(GroupingKind kind);
const char* BuilderKindName(BuilderKind kind);

/// Configuration of the full Power / Power+ pipeline. Defaults mirror the
/// paper's experimental setup (§7.2): split grouping with ε = 0.1, the
/// index-based graph builder, topological-sorting question selection; Power+
/// additionally enables the error-tolerant coloring of §6.
struct PowerConfig {
  // Pruning (§7.1): record-level Jaccard threshold and per-attribute floor.
  // prune_tau must be in (0, 1] (ValidateConfig: "power: candidate
  // threshold tau=<value> is outside (0, 1]").
  double prune_tau = 0.3;
  double component_floor = 0.2;
  /// kAuto picks by counted work (see CandidateMethod::kAuto): the prefix
  /// join only when its posting visits are few against the scan's pairs
  /// (AutoCandidateMethod); the explicit methods pin one path. All three
  /// settings produce the identical sorted candidate vector — the knob is
  /// purely a performance choice.
  CandidateMethod candidate_method = CandidateMethod::kAuto;

  GroupingKind grouping = GroupingKind::kSplit;
  /// Must be >= 0 under every grouping kind (ValidateConfig: "power:
  /// grouping epsilon=<value> must be >= 0").
  double epsilon = 0.1;

  BuilderKind builder = BuilderKind::kRangeTree;
  SelectorKind selector = SelectorKind::kTopoSort;

  // Power+ (§6). With error_tolerant = false the confidence gate is off and
  // every voted answer propagates (plain Power).
  bool error_tolerant = false;
  /// Hard cap on crowd questions; 0 = unlimited. When the budget runs out
  /// with vertices still uncolored, the remaining pairs are settled by the
  /// §6 histogram estimator instead of the crowd (budgeted extension of
  /// Algorithm 5).
  size_t max_questions = 0;
  double confidence_threshold = 0.8;
  ErrorToleranceConfig tolerance;

  /// Fault tolerance: a platform-backed oracle may return *partial* rounds
  /// (unanswered pairs carry VoteResult::total_votes == 0 — HITs expired,
  /// no quorum, retry budget exhausted). The loop re-posts a round's
  /// unanswered residue up to this many total attempts, holding the round's
  /// answered votes so the whole batch still applies atomically (this is
  /// what makes a fault pattern whose retries eventually succeed
  /// byte-identical to the fault-free baseline). Questions still unanswered
  /// after the last attempt degrade to the §6 histogram/machine answer
  /// instead of wedging the loop. Must be >= 1; 1 = degrade immediately
  /// (ValidateConfig: "power: max_ask_attempts=0 must be >= 1").
  size_t max_ask_attempts = 8;

  uint64_t seed = 7;

  /// Durable-job checkpointing (core/job_journal.h): when non-empty, the
  /// ask-and-color loop commits a checksummed checkpoint to this path at
  /// every state-machine phase boundary, and a fresh run against the same
  /// path + configuration resumes instead of restarting — answers already
  /// paid for are never re-asked. Empty (the default) defers to the
  /// POWER_CHECKPOINT environment knob; both empty = no checkpointing.
  std::string checkpoint_path;

  /// Threads for the machine-side hot paths (candidate generation,
  /// similarity vectors, graph construction). 0 = process default
  /// (POWER_THREADS env var, else hardware concurrency); 1 = the exact
  /// serial path. Parallelism never changes results: every sharded loop
  /// merges per-chunk output deterministically, so PowerResult is identical
  /// at any thread count (tests/parallel_determinism_test.cc).
  int num_threads = 0;
};

/// The first reason `config` cannot run, or an empty string when it can:
/// prune_tau outside (0, 1] (or NaN; GenerateCandidates' message),
/// epsilon < 0 (or NaN), max_ask_attempts < 1, or tolerance.num_histograms
/// < 1. PowerFramework::Run, both RunOnPairs overloads and the
/// RunOnPairsJob constructor check it before any other work and abort with
/// the message, so a bad config fails the same way at every entry point and
/// every table size, before the feature cache, the candidates or the
/// similarity table are built.
std::string ValidateConfig(const PowerConfig& config);

/// Pipeline outcome: the common ER result plus pipeline statistics used by
/// the benches (graph/grouping sizes and times).
struct PowerResult : ErResult {
  size_t num_pairs = 0;   // candidate pairs after pruning (Table 3 "#Pairs")
  size_t num_groups = 0;  // grouped-graph vertices
  /// Distinct similarity vectors among the pairs (the table's rows, each
  /// stored once); Split builds its tree over them.
  size_t num_distinct_rows = 0;
  /// Record classes: distinct cell tuples among the records, which the
  /// feature cache, the all-pairs scan and the similarity table each
  /// process once (FeatureCache::num_classes; Run only).
  size_t num_record_classes = 0;
  size_t num_edges = 0;   // grouped-graph edges
  size_t num_blue_groups = 0;
  /// True iff max_questions stopped the loop before all groups were colored.
  bool budget_exhausted = false;
  double grouping_seconds = 0.0;
  double graph_seconds = 0.0;
  /// Time in the pruning / candidate-generation stage (Run only).
  double pruning_seconds = 0.0;
  /// Time computing per-attribute similarity vectors (Run only).
  double similarity_seconds = 0.0;
  /// Resolved thread count the machine-side stages ran with.
  int num_threads = 1;
  /// Candidate method that actually ran (kAuto resolved; Run only).
  const char* candidate_method = "?";
};

/// Phases of the resumable ask-and-color loop, in execution order. One
/// round of the loop is kSelect -> kPost -> kCollect -> kApply, with the
/// kPost -> kCollect edge looping while a faulty crowd leaves residue and
/// retry attempts remain (the PR 5 sub-loop); kSelect transitions to kDone
/// when every group is colored or the question budget is exhausted.
enum class RunPhase : uint8_t {
  kSelect = 0,   // pick the next batch of groups + representative pairs
  kPost = 1,     // stage the wave to post (full batch, then residue)
  kCollect = 2,  // ask the oracle, merge votes, decide retry vs apply
  kApply = 3,    // color every batch member (answer / gate / degrade)
  kDone = 4,     // loop finished; Finish() harvests the result
};

const char* RunPhaseName(RunPhase phase);
/// Parses a RunPhaseName string ("select", "post", ...). False on no match.
bool ParseRunPhase(std::string_view name, RunPhase* out);

/// Exit code of the POWER_CRASH_AT kill point, distinguishable from both a
/// clean exit and a sanitizer/abort failure in subprocess crash tests.
inline constexpr int kCrashExitCode = 86;

/// One resumable resolution job: the ask-and-color loop of
/// PowerFramework::RunOnPairs as an explicit, externally-driveable state
/// machine. The machine-side setup (grouping, graph construction, the rng
/// fork sequence) runs in the constructor, deterministically from
/// (config, pairs); each Step() executes exactly one phase, commits a
/// checkpoint at the phase boundary when a checkpoint path is configured,
/// and honors the POWER_CRASH_AT kill point. Driving Step() to completion
/// and calling Finish() is byte-identical to the historical monolithic
/// loop — including the rng draw order — and a job resumed from any phase
/// boundary completes byte-identical to an uninterrupted run.
///
/// The job owns its similarity table; `oracle` must outlive the job.
class RunOnPairsJob {
 public:
  RunOnPairsJob(const PowerConfig& config, SimilarityTable pairs,
                PairOracle* oracle);
  /// Packing adapter: packs `pairs` into a table and delegates.
  RunOnPairsJob(const PowerConfig& config,
                const std::vector<SimilarPair>& pairs, PairOracle* oracle);

  /// Executes the current phase and commits the boundary checkpoint.
  /// Returns true while the loop has more work (phase != kDone). Returns
  /// false without executing anything on a crashed job.
  bool Step();

  /// Harvests the final PowerResult (GREEN groups, Power+ blue resolution),
  /// moves it out and clears the checkpoint store. Requires phase() ==
  /// kDone; a second call aborts.
  PowerResult Finish();

  RunPhase phase() const { return phase_; }
  /// Rounds started so far (== iterations; round N is in flight from its
  /// kSelect until its kApply completes).
  size_t round() const { return result_.iterations; }
  bool done() const { return phase_ == RunPhase::kDone; }
  /// True once this job object restored its state from a checkpoint.
  bool resumed() const { return result_.resumed > 0; }
  bool crashed() const { return crashed_; }

  /// In-process kill point: marks the job crashed, after which Step() and
  /// Finish() refuse to run (no exception, no teardown — the durable state
  /// on disk is exactly what a real crash at this boundary would leave).
  /// Resume by constructing a new job with the same config and oracle.
  void SimulateCrashForTest() { crashed_ = true; }

  /// Every (i, j) posted to the oracle, in posting order, retries included
  /// — the byte-identity witness the crash-injection sweep compares.
  const std::vector<std::pair<int, int>>& question_trace() const {
    return question_trace_;
  }
  const ColoringState& coloring() const { return *state_; }
  const PowerResult& result() const { return result_; }

 private:
  void StepSelect();
  void StepPost();
  void StepCollect();
  void StepApply();
  bool budget_left() const;
  /// Re-derives the loop-side state from scratch (engine re-seeded, the
  /// machine-side fork sequence replayed, fresh coloring + selector).
  void ResetLoopState();
  bool TryResume();
  JobCheckpoint MakeCheckpoint() const;
  void WriteCheckpoint();
  void MaybeCrash(RunPhase executed);

  PowerConfig config_;
  SimilarityTable pairs_;
  PairOracle* oracle_;
  ScopedNumThreads thread_scope_;
  PowerResult result_;
  bool finished_ = false;

  // Machine-side setup (deterministic from config + pairs; never
  // checkpointed).
  GroupedGraph grouped_;
  uint64_t fingerprint_ = 0;  // computed only with a checkpoint path

  // Loop state (exactly what a checkpoint persists).
  Rng rng_;
  std::unique_ptr<ColoringState> state_;
  std::unique_ptr<QuestionSelector> selector_;
  RunPhase phase_ = RunPhase::kSelect;
  std::vector<int> batch_;
  std::vector<std::pair<int, int>> questions_;
  std::vector<VoteResult> votes_;
  std::vector<size_t> unanswered_;
  size_t attempt_ = 0;
  std::vector<std::pair<int, int>> question_trace_;

  std::unique_ptr<CheckpointStore> store_;
  bool crashed_ = false;
  bool crash_armed_ = false;
  RunPhase crash_phase_ = RunPhase::kSelect;
  uint64_t crash_round_ = 0;
};

/// The partial-order-based crowdsourced entity resolution framework
/// (the paper's system; Algorithm 1 with the refinements of §4-§6).
class PowerFramework {
 public:
  explicit PowerFramework(const PowerConfig& config) : config_(config) {}

  const PowerConfig& config() const { return config_; }

  /// End-to-end: prune candidate pairs from the table, compute similarity
  /// vectors, then resolve via RunOnPairs.
  PowerResult Run(const Table& table, PairOracle* oracle) const;

  /// Resolution over precomputed similar pairs (used by benches that sweep
  /// pipeline stages, and by the paper-example fixtures). Drives a
  /// RunOnPairsJob to completion; with a checkpoint path configured this
  /// auto-resumes from any checkpoint a crashed run left behind.
  PowerResult RunOnPairs(SimilarityTable pairs, PairOracle* oracle) const;
  /// Packing adapter: identical result to the table entry on the same pairs.
  PowerResult RunOnPairs(const std::vector<SimilarPair>& pairs,
                         PairOracle* oracle) const;

 private:
  PowerConfig config_;
};

}  // namespace power

#endif  // POWER_CORE_POWER_H_
