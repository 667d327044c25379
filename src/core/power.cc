#include "core/power.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "graph/builder.h"
#include "group/greedy_grouper.h"
#include "group/grouped_graph.h"
#include "group/split_grouper.h"
#include "sim/similarity_matrix.h"
#include "util/check.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace power {

const char* GroupingKindName(GroupingKind kind) {
  switch (kind) {
    case GroupingKind::kNone:
      return "NonGroup";
    case GroupingKind::kSplit:
      return "Split";
    case GroupingKind::kGreedy:
      return "Greedy";
  }
  return "?";
}

const char* BuilderKindName(BuilderKind kind) {
  switch (kind) {
    case BuilderKind::kBruteForce:
      return "BruteForce";
    case BuilderKind::kQuickSort:
      return "QuickSort";
    case BuilderKind::kRangeTree:
      return "Index";
  }
  return "?";
}

const char* RunPhaseName(RunPhase phase) {
  switch (phase) {
    case RunPhase::kSelect:
      return "select";
    case RunPhase::kPost:
      return "post";
    case RunPhase::kCollect:
      return "collect";
    case RunPhase::kApply:
      return "apply";
    case RunPhase::kDone:
      return "done";
  }
  return "?";
}

bool ParseRunPhase(std::string_view name, RunPhase* out) {
  for (RunPhase p : {RunPhase::kSelect, RunPhase::kPost, RunPhase::kCollect,
                     RunPhase::kApply, RunPhase::kDone}) {
    if (name == RunPhaseName(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

namespace {

std::unique_ptr<GraphBuilder> MakeBuilder(BuilderKind kind, uint64_t seed) {
  switch (kind) {
    case BuilderKind::kBruteForce:
      return std::make_unique<BruteForceBuilder>();
    case BuilderKind::kQuickSort:
      return std::make_unique<QuickSortBuilder>(seed);
    case BuilderKind::kRangeTree:
      return std::make_unique<RangeTreeBuilder>();
  }
  return nullptr;
}

uint64_t Fnv1a64(const void* data, size_t size, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

template <typename T>
uint64_t FnvMix(uint64_t h, const T& v) {
  return Fnv1a64(&v, sizeof(v), h);
}

/// One FNV-1a step over a whole 8-byte word.
uint64_t FnvWord(uint64_t h, uint64_t word) {
  return (h ^ word) * 0x100000001B3ULL;
}

/// Binds a checkpoint to the exact job that wrote it: the loop-relevant
/// configuration (bytewise) plus the full pair table, one step per 8-byte
/// word: n, m, every PairKey, then every pair's similarity bit patterns in
/// pair order, read through the row index. These are the words the
/// expanded layout hashed, so a checkpoint written before the table was
/// interned still matches. Machine-side knobs that cannot change the loop's
/// draws or answers (num_threads, timing) are deliberately excluded so a
/// resume may legally run at a different thread count.
uint64_t JobFingerprint(const PowerConfig& config,
                        const SimilarityTable& pairs) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = FnvMix(h, config.grouping);
  h = FnvMix(h, config.epsilon);
  h = FnvMix(h, config.builder);
  h = FnvMix(h, config.selector);
  h = FnvMix(h, config.error_tolerant);
  h = FnvMix(h, config.max_questions);
  h = FnvMix(h, config.confidence_threshold);
  h = FnvMix(h, config.max_ask_attempts);
  h = FnvMix(h, config.seed);
  h = FnvWord(h, pairs.size());
  h = FnvWord(h, pairs.m);
  for (const auto& [i, j] : pairs.ids) h = FnvWord(h, PairKey(i, j));
  for (size_t p = 0; p < pairs.size(); ++p) {
    for (double s : pairs.row(p)) h = FnvWord(h, std::bit_cast<uint64_t>(s));
  }
  return h;
}

/// Checkpoint path resolution: explicit config wins, else the
/// POWER_CHECKPOINT knob (a path is a bespoke grammar — EnvRaw).
std::string ResolveCheckpointPath(const PowerConfig& config) {
  if (!config.checkpoint_path.empty()) return config.checkpoint_path;
  const char* env = EnvRaw("POWER_CHECKPOINT");
  return env != nullptr ? std::string(env) : std::string();
}

/// Aborts with ValidateConfig's message when `config` cannot run.
void CheckConfig(const PowerConfig& config) {
  const std::string error = ValidateConfig(config);
  if (error.empty()) return;
  std::fprintf(stderr, "%s\n", error.c_str());
  std::abort();
}

}  // namespace

std::string ValidateConfig(const PowerConfig& config) {
  if (std::string error = CandidateThresholdError(config.prune_tau);
      !error.empty()) {
    return error;
  }
  char message[128];
  // NaN compares false with everything, so a NaN floor would clamp no
  // component and a NaN threshold would turn Power+'s gate off
  // (confidence() < NaN). Values above 1 are legal.
  if (std::isnan(config.component_floor)) {
    std::snprintf(message, sizeof(message),
                  "power: component_floor=%g must be a number",
                  config.component_floor);
    return message;
  }
  if (!(config.epsilon >= 0.0)) {
    std::snprintf(message, sizeof(message),
                  "power: grouping epsilon=%g must be >= 0", config.epsilon);
    return message;
  }
  if (std::isnan(config.confidence_threshold)) {
    std::snprintf(message, sizeof(message),
                  "power: confidence_threshold=%g must be a number",
                  config.confidence_threshold);
    return message;
  }
  if (config.max_ask_attempts < 1) {
    std::snprintf(message, sizeof(message),
                  "power: max_ask_attempts=%zu must be >= 1",
                  config.max_ask_attempts);
    return message;
  }
  if (config.tolerance.num_histograms < 1) {
    std::snprintf(message, sizeof(message),
                  "power: tolerance.num_histograms=%d must be >= 1",
                  config.tolerance.num_histograms);
    return message;
  }
  return std::string();
}

PowerResult PowerFramework::Run(const Table& table,
                                PairOracle* oracle) const {
  CheckConfig(config_);
  ScopedNumThreads thread_scope(config_.num_threads);
  SimilarityTable pairs;
  size_t record_classes = 0;
  double pruning_seconds = 0.0;
  double similarity_seconds = 0.0;
  {
    // One feature cache feeds both the pruning scan and the similarity
    // table; its build cost is charged to the pruning stage. It and the
    // candidate list are freed before the job, which reads only the table.
    Stopwatch prune_watch;
    FeatureCache features(table);
    record_classes = features.num_classes();
    std::vector<std::pair<int, int>> candidates = GenerateCandidates(
        features, config_.prune_tau, config_.candidate_method);
    pruning_seconds = prune_watch.ElapsedSeconds();
    Stopwatch sim_watch;
    pairs = ComputeSimilarityTable(features, candidates,
                                   config_.component_floor);
    similarity_seconds = sim_watch.ElapsedSeconds();
  }
  PowerResult result = RunOnPairs(std::move(pairs), oracle);
  result.num_record_classes = record_classes;
  result.pruning_seconds = pruning_seconds;
  result.similarity_seconds = similarity_seconds;
  return result;
}

PowerResult PowerFramework::RunOnPairs(SimilarityTable pairs,
                                       PairOracle* oracle) const {
  CheckConfig(config_);
  RunOnPairsJob job(config_, std::move(pairs), oracle);
  while (job.Step()) {
  }
  return job.Finish();
}

PowerResult PowerFramework::RunOnPairs(const std::vector<SimilarPair>& pairs,
                                       PairOracle* oracle) const {
  CheckConfig(config_);
  return RunOnPairs(PackSimilarPairs(pairs), oracle);
}

RunOnPairsJob::RunOnPairsJob(const PowerConfig& config,
                             const std::vector<SimilarPair>& pairs,
                             PairOracle* oracle)
    : RunOnPairsJob(config, PackSimilarPairs(pairs), oracle) {}

RunOnPairsJob::RunOnPairsJob(const PowerConfig& config, SimilarityTable pairs,
                             PairOracle* oracle)
    : config_(config),
      pairs_(std::move(pairs)),
      oracle_(oracle),
      thread_scope_(config.num_threads),
      rng_(config.seed) {
  // Checked before anything else, so a bad epsilon, attempt budget or
  // histogram count fails the same way under every grouping kind (NonGroup
  // never reads epsilon) and at every table size (an empty pair list never
  // reaches a grouper, the ask loop or Finish's histogram), before any
  // question is paid for. The entry points check first too; this covers a
  // job constructed directly.
  CheckConfig(config_);
  POWER_CHECK(oracle != nullptr);
  result_.num_threads = NumThreads();
  result_.num_pairs = pairs_.size();
  result_.num_distinct_rows = pairs_.num_distinct;
  if (pairs_.empty()) {
    phase_ = RunPhase::kDone;
    return;
  }

  // 1. Grouping (§4.2) + grouped graph (Definition 5). Ungrouped runs use
  //    singleton groups built with the configured graph builder (§4.1).
  Stopwatch grouping_watch;
  if (config_.grouping == GroupingKind::kNone) {
    result_.grouping_seconds = 0.0;
    Stopwatch graph_watch;
    grouped_ = BuildUngrouped(*MakeBuilder(config_.builder, rng_.Fork()),
                              pairs_.rows());
    result_.graph_seconds = graph_watch.ElapsedSeconds();
  } else {
    std::unique_ptr<Grouper> grouper;
    if (config_.grouping == GroupingKind::kSplit) {
      grouper = std::make_unique<SplitGrouper>();
    } else {
      grouper = std::make_unique<GreedyGrouper>();
    }
    std::vector<VertexGroup> groups =
        grouper->Group(pairs_.rows(), config_.epsilon);
    result_.grouping_seconds = grouping_watch.ElapsedSeconds();
    Stopwatch graph_watch;
    grouped_ = BuildGroupedGraph(std::move(groups));
    result_.graph_seconds = graph_watch.ElapsedSeconds();
  }
  result_.num_groups = grouped_.groups.size();
  result_.num_edges = grouped_.graph.num_edges();

  ResetLoopState();

  std::string checkpoint_path = ResolveCheckpointPath(config_);
  if (!checkpoint_path.empty()) {
    fingerprint_ = JobFingerprint(config_, pairs_);
    store_ = std::make_unique<CheckpointStore>(checkpoint_path);
  }

  // POWER_CRASH_AT=<phase>:<round> — the subprocess kill point: the process
  // exits (kCrashExitCode) right after committing the checkpoint at the
  // named phase boundary of the named round.
  if (const char* spec = EnvRaw("POWER_CRASH_AT")) {
    std::string text(spec);
    size_t colon = text.find(':');
    RunPhase phase = RunPhase::kSelect;
    std::optional<int64_t> round;
    if (colon != std::string::npos) {
      round = ParseInt(text.substr(colon + 1));
    }
    if (colon == std::string::npos ||
        !ParseRunPhase(text.substr(0, colon), &phase) || !round ||
        *round < 1 || phase == RunPhase::kDone) {
      std::fprintf(stderr,
                   "power: ignoring malformed POWER_CRASH_AT=\"%s\" "
                   "(expected <select|post|collect|apply>:<round >= 1>)\n",
                   spec);
    } else {
      crash_armed_ = true;
      crash_phase_ = phase;
      crash_round_ = static_cast<uint64_t>(*round);
    }
  }

  if (store_ != nullptr) TryResume();
}

void RunOnPairsJob::ResetLoopState() {
  // Replay the machine-side fork sequence so the loop engine sits exactly
  // where the monolithic implementation left it: seed, one fork consumed by
  // the ungrouped builder, one by the selector.
  rng_ = Rng(config_.seed);
  if (config_.grouping == GroupingKind::kNone) (void)rng_.Fork();
  state_ = std::make_unique<ColoringState>(&grouped_.graph);
  selector_ = MakeSelector(config_.selector, rng_.Fork());
  phase_ = RunPhase::kSelect;
  batch_.clear();
  questions_.clear();
  votes_.clear();
  unanswered_.clear();
  attempt_ = 0;
  question_trace_.clear();
}

bool RunOnPairsJob::TryResume() {
  JobCheckpoint cp;
  if (!store_->Load(&cp)) return false;
  if (cp.fingerprint != fingerprint_) {
    std::fprintf(stderr,
                 "power: checkpoint %s belongs to a different job "
                 "(config/pair fingerprint mismatch); starting clean\n",
                 store_->path().c_str());
    return false;
  }
  const size_t num_groups = grouped_.groups.size();
  bool ok = cp.phase <= static_cast<uint8_t>(RunPhase::kDone);
  for (int g : cp.batch) {
    ok = ok && g >= 0 && static_cast<size_t>(g) < num_groups;
  }
  ok = ok && rng_.RestoreState(cp.rng_state);
  if (ok) {
    SnapshotReader cr(cp.coloring_state);
    ok = state_->RestoreState(&cr) && cr.AtEnd();
  }
  if (ok) {
    SnapshotReader sr(cp.selector_state);
    ok = selector_->RestoreState(&sr) && sr.AtEnd();
  }
  ok = ok && oracle_->RestoreDurableState(cp.oracle_state);
  if (!ok) {
    std::fprintf(stderr,
                 "power: checkpoint %s did not restore cleanly; starting "
                 "clean\n",
                 store_->path().c_str());
    // A partial restore must not leak into the clean start.
    ResetLoopState();
    return false;
  }

  phase_ = static_cast<RunPhase>(cp.phase);
  result_.questions = cp.questions;
  result_.iterations = cp.iterations;
  result_.requeued_questions = cp.requeued_questions;
  result_.degraded_questions = cp.degraded_questions;
  result_.checkpoints_written = cp.checkpoints_written;
  result_.resumed = cp.resumed + 1;
  result_.assignment_seconds = cp.assignment_seconds;

  batch_ = cp.batch;
  questions_.clear();
  votes_.clear();
  for (size_t s = 0; s < batch_.size(); ++s) {
    questions_.push_back({cp.questions_flat[2 * s],
                          cp.questions_flat[2 * s + 1]});
    VoteResult vote;
    vote.yes_votes = cp.votes_flat[2 * s];
    vote.total_votes = cp.votes_flat[2 * s + 1];
    votes_.push_back(vote);
  }
  unanswered_.clear();
  for (int idx : cp.unanswered) {
    unanswered_.push_back(static_cast<size_t>(idx));
  }
  attempt_ = cp.attempt;
  question_trace_.clear();
  for (size_t q = 0; q + 1 < cp.question_trace.size(); q += 2) {
    question_trace_.push_back(
        {cp.question_trace[q], cp.question_trace[q + 1]});
  }
  return true;
}

JobCheckpoint RunOnPairsJob::MakeCheckpoint() const {
  JobCheckpoint cp;
  cp.fingerprint = fingerprint_;
  cp.phase = static_cast<uint8_t>(phase_);
  cp.questions = result_.questions;
  cp.iterations = result_.iterations;
  cp.requeued_questions = result_.requeued_questions;
  cp.degraded_questions = result_.degraded_questions;
  cp.checkpoints_written = result_.checkpoints_written;
  cp.resumed = result_.resumed;
  cp.assignment_seconds = result_.assignment_seconds;
  cp.rng_state = rng_.SaveState();
  SnapshotWriter cw;
  state_->SaveState(&cw);
  cp.coloring_state = cw.payload();
  SnapshotWriter sw;
  selector_->SaveState(&sw);
  cp.selector_state = sw.payload();
  cp.oracle_state = oracle_->SaveDurableState();
  cp.batch = batch_;
  for (const auto& [i, j] : questions_) {
    cp.questions_flat.push_back(i);
    cp.questions_flat.push_back(j);
  }
  for (const VoteResult& vote : votes_) {
    cp.votes_flat.push_back(vote.yes_votes);
    cp.votes_flat.push_back(vote.total_votes);
  }
  for (size_t idx : unanswered_) {
    cp.unanswered.push_back(static_cast<int>(idx));
  }
  cp.attempt = attempt_;
  for (const auto& [i, j] : question_trace_) {
    cp.question_trace.push_back(i);
    cp.question_trace.push_back(j);
  }
  return cp;
}

void RunOnPairsJob::WriteCheckpoint() {
  if (store_ == nullptr) return;
  // Count the write before encoding so the persisted total includes this
  // very checkpoint; the lifetime total then matches an uninterrupted run
  // no matter where a crash splits it.
  ++result_.checkpoints_written;
  SnapshotStatus status = store_->Commit(MakeCheckpoint());
  if (status != SnapshotStatus::kOk) {
    --result_.checkpoints_written;
    std::fprintf(stderr,
                 "power: checkpoint write to %s failed (%s); continuing "
                 "without durability for this boundary\n",
                 store_->path().c_str(), SnapshotStatusName(status));
  }
}

void RunOnPairsJob::MaybeCrash(RunPhase executed) {
  if (!crash_armed_ || executed != crash_phase_ ||
      result_.iterations != crash_round_) {
    return;
  }
  std::fprintf(stderr, "power: POWER_CRASH_AT kill point hit (%s:%llu)\n",
               RunPhaseName(executed),
               static_cast<unsigned long long>(crash_round_));
  // _Exit, not exit/abort: a real crash runs no destructors and flushes no
  // buffers — the durable state is whatever the checkpoint layer committed.
  std::_Exit(kCrashExitCode);
}

bool RunOnPairsJob::Step() {
  if (crashed_ || phase_ == RunPhase::kDone) return false;
  RunPhase executed = phase_;
  switch (executed) {
    case RunPhase::kSelect:
      StepSelect();
      break;
    case RunPhase::kPost:
      StepPost();
      break;
    case RunPhase::kCollect:
      StepCollect();
      break;
    case RunPhase::kApply:
      StepApply();
      break;
    case RunPhase::kDone:
      break;
  }
  WriteCheckpoint();
  MaybeCrash(executed);
  return phase_ != RunPhase::kDone;
}

bool RunOnPairsJob::budget_left() const {
  return config_.max_questions == 0 ||
         result_.questions < config_.max_questions;
}

void RunOnPairsJob::StepSelect() {
  if (state_->AllColored() || !budget_left()) {
    phase_ = RunPhase::kDone;
    return;
  }
  Stopwatch assign_watch;
  batch_ = selector_->NextBatch(*state_);
  result_.assignment_seconds += assign_watch.ElapsedSeconds();
  POWER_CHECK_MSG(!batch_.empty(), "selector must make progress");
  if (config_.max_questions > 0) {
    size_t remaining = config_.max_questions - result_.questions;
    if (batch_.size() > remaining) batch_.resize(remaining);
  }
  ++result_.iterations;
  // "If a group is selected to ask, we randomly select a pair in the
  // group and take the answer of this pair as the answer of the group."
  // The whole batch is one crowd round: posted simultaneously (platform
  // oracles turn it into HITs), so a vertex is asked even if the answer
  // of another batch member deduces its color (MultiPath mid-vertices of
  // different paths can be comparable; §5.3.1 resolves the resulting
  // conflicts by majority voting, which ApplyAnswer implements).
  questions_.clear();
  questions_.reserve(batch_.size());
  for (int g : batch_) {
    const auto& members = grouped_.groups[g].members;
    questions_.push_back(
        pairs_.ids[members[rng_.UniformIndex(members.size())]]);
  }
  votes_.assign(batch_.size(), VoteResult{});
  unanswered_.clear();
  attempt_ = 0;
  phase_ = RunPhase::kPost;
}

void RunOnPairsJob::StepPost() {
  // Stage the wave the collect phase will post: the full round on the
  // first attempt, the unanswered residue on retries. Fault tolerance: an
  // oracle over a faulty platform may answer only part of the round
  // (total_votes == 0 marks the holes); the residue is re-posted — the
  // answered votes held so the round still applies atomically — until the
  // round completes or the attempt budget runs out. Termination is
  // independent of the fault pattern: the kPost/kCollect sub-loop runs at
  // most max_ask_attempts waves, and afterwards every batch member leaves
  // the UNCOLORED pool for good (colored by its answer, or BLUE by
  // degradation; asked vertices never reopen), so the outer loop strictly
  // shrinks the never-asked set each round.
  if (attempt_ > 0) result_.requeued_questions += unanswered_.size();
  phase_ = RunPhase::kCollect;
}

void RunOnPairsJob::StepCollect() {
  std::vector<std::pair<int, int>> wave;
  if (attempt_ == 0) {
    wave = questions_;
  } else {
    wave.reserve(unanswered_.size());
    for (size_t idx : unanswered_) wave.push_back(questions_[idx]);
  }
  for (const auto& q : wave) question_trace_.push_back(q);
  std::vector<VoteResult> wave_votes = oracle_->AskBatch(wave);
  POWER_CHECK(wave_votes.size() == wave.size());
  if (attempt_ == 0) {
    result_.questions += batch_.size();
    votes_ = std::move(wave_votes);
    unanswered_.clear();
    for (size_t b = 0; b < batch_.size(); ++b) {
      if (votes_[b].total_votes == 0) unanswered_.push_back(b);
    }
  } else {
    std::vector<size_t> still;
    for (size_t k = 0; k < unanswered_.size(); ++k) {
      if (wave_votes[k].total_votes == 0) {
        still.push_back(unanswered_[k]);
      } else {
        votes_[unanswered_[k]] = wave_votes[k];
      }
    }
    unanswered_ = std::move(still);
  }
  if (!unanswered_.empty() && attempt_ + 1 < config_.max_ask_attempts) {
    ++attempt_;
    phase_ = RunPhase::kPost;
  } else {
    phase_ = RunPhase::kApply;
  }
}

void RunOnPairsJob::StepApply() {
  for (size_t b = 0; b < batch_.size(); ++b) {
    int g = batch_[b];
    const VoteResult& vote = votes_[b];
    if (vote.total_votes == 0) {
      // Retry budget exhausted: degrade to the §6 machine answer rather
      // than wedging the loop on a question the crowd will not answer.
      ++result_.degraded_questions;
      state_->MarkBlue(g);
    } else if (config_.error_tolerant &&
               vote.confidence() < config_.confidence_threshold) {
      state_->MarkBlue(g);
    } else {
      state_->ApplyAnswer(g, vote.majority_yes());
    }
  }
  batch_.clear();
  questions_.clear();
  votes_.clear();
  unanswered_.clear();
  attempt_ = 0;
  phase_ = RunPhase::kSelect;
}

PowerResult RunOnPairsJob::Finish() {
  POWER_CHECK_MSG(!crashed_, "Finish on a crashed job");
  POWER_CHECK_MSG(phase_ == RunPhase::kDone,
                  "Finish requires a completed job (phase == kDone)");
  POWER_CHECK_MSG(!finished_, "Finish called twice on one job");
  finished_ = true;
  if (pairs_.empty()) return std::move(result_);

  // 3. Harvest GREEN groups at pair granularity, into a set sized once.
  size_t green_members = 0;
  for (size_t g = 0; g < grouped_.groups.size(); ++g) {
    if (state_->color(static_cast<int>(g)) == Color::kGreen) {
      green_members += grouped_.groups[g].members.size();
    }
  }
  result_.matched_pairs.reserve(green_members);
  for (size_t g = 0; g < grouped_.groups.size(); ++g) {
    if (state_->color(static_cast<int>(g)) == Color::kGreen) {
      for (int v : grouped_.groups[g].members) {
        const auto& [i, j] = pairs_.ids[v];
        result_.matched_pairs.insert(PairKey(i, j));
      }
    }
  }
  result_.num_blue_groups = state_->num_blue();
  result_.budget_exhausted = !state_->AllColored();

  // 4. Power+: resolve pairs stuck in BLUE groups via the §6 histograms.
  //    The same estimator settles groups left uncolored by an exhausted
  //    question budget, and groups whose questions the faulty crowd never
  //    answered (degraded above) — the graceful-degradation path.
  if ((config_.error_tolerant && result_.num_blue_groups > 0) ||
      result_.budget_exhausted || result_.degraded_questions > 0) {
    for (const auto& [v, color] : ResolveBlueVertices(
             grouped_, *state_, pairs_.rows(), config_.tolerance)) {
      if (color == Color::kGreen) {
        const auto& [i, j] = pairs_.ids[v];
        result_.matched_pairs.insert(PairKey(i, j));
      }
    }
  }
  // The job is complete: nothing is left to resume, so retire the
  // checkpoint generations instead of letting a stale file shadow the next
  // job that reuses the path.
  if (store_ != nullptr) store_->Clear();
  return std::move(result_);
}

}  // namespace power
