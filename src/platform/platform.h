#ifndef POWER_PLATFORM_PLATFORM_H_
#define POWER_PLATFORM_PLATFORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crowd/worker.h"
#include "data/table.h"
#include "platform/fault.h"
#include "platform/hit.h"
#include "platform/sim_clock.h"
#include "platform/worker_pool.h"
#include "util/rng.h"

namespace power {

/// Configuration of the simulated crowdsourcing marketplace, mirroring the
/// paper's AMT deployment (§7.1): ten pair questions per HIT, $0.10 per HIT
/// per assignment, five assignments per HIT, approval-rate qualification.
struct PlatformConfig {
  size_t pool_size = 200;
  double accuracy_lo = 0.70;
  double accuracy_hi = 0.99;
  int assignments_per_hit = 5;  // the paper's z = 5 workers per question
  double min_approval_rate = 0.0;  // AMT qualification filter
  size_t questions_per_hit = 10;
  double reward_per_hit = 0.10;
  /// Dataset hardness (DatasetProfile::human_hardness) applied to the
  /// task-difficulty answer model. Must lie in [0, 1].
  double difficulty_scale = 0.5;
  /// Failure model (platform/fault.h). Defaults to the perfect crowd.
  FaultProfile fault;
  uint64_t seed = 17;
};

/// Outcome of one posted question within a round.
enum class QuestionStatus {
  /// At least one assignment covering the question was submitted; the vote
  /// is well-formed (total_votes > 0).
  kAnswered,
  /// The qualification filter left no eligible workers, so the HIT was
  /// never taken. Distinguished from kExpired because reposting cannot fix
  /// it (relax min_approval_rate or grow the pool instead).
  kNoQuorum,
  /// Every assignment of the question's HIT was abandoned or timed out; the
  /// HIT expired unanswered. Reposting (with a reward bump) may succeed.
  kExpired,
};

/// An AMT-like marketplace simulation: packs pair questions into HITs,
/// assigns each HIT to qualified workers, simulates their answers (the same
/// task-difficulty model as CrowdSimulator), per-assignment latencies, and
/// the configured FaultProfile (abandonment, spam, timeouts, slow tail);
/// approves assignments by majority agreement (requesters have no gold
/// labels) and pays *approved assignments only*, exactly as AMT settles
/// rejected work. Keeps the cost / latency / approval ledgers the paper's
/// latency and cost figures are built from, plus the fault ledgers the
/// requester-resilience layer (platform/requester.h) reports.
///
/// Rounds may be *partial*: RoundResult carries a per-question
/// QuestionStatus, and unanswered questions come back with zero votes.
///
/// Ground truth for answer generation comes from the bound table's entity
/// ids, exactly as in CrowdOracle.
class CrowdPlatform {
 public:
  CrowdPlatform(const Table* table, const PlatformConfig& config);

  struct RoundResult {
    /// Majority-voted result per posted question, in input order. Questions
    /// whose status is not kAnswered have total_votes == 0.
    std::vector<VoteResult> votes;
    /// status[q] for questions[q] — partial rounds are explicit.
    std::vector<QuestionStatus> status;
    /// Simulated seconds for the round: HITs run in parallel, the round
    /// completes when its slowest (surviving) assignment is submitted or
    /// the assignment timeout cuts off the stragglers.
    double latency_seconds = 0.0;
    /// Dollars actually paid this round (approved assignments only).
    double cost_dollars = 0.0;
    std::vector<Assignment> assignments;

    size_t answered() const {
      size_t n = 0;
      for (QuestionStatus s : status) {
        if (s == QuestionStatus::kAnswered) ++n;
      }
      return n;
    }
  };

  /// Posts one round of questions (one iteration of a §5 selector). The
  /// questions are packed into ceil(n / questions_per_hit) HITs, each
  /// paying reward_per_hit + reward_bonus_dollars per approved assignment
  /// (the requester bumps the bonus when reposting expired HITs; a higher
  /// reward proportionally lowers the abandonment probability). `repost`
  /// tags the posted HITs with their repost generation for the HIT log.
  /// Advances the simulated clock by the round latency.
  RoundResult PostRound(const std::vector<PairQuestion>& questions,
                        double reward_bonus_dollars = 0.0, int repost = 0);

  // Ledger over the platform's lifetime.
  double total_cost_dollars() const { return total_cost_; }
  double total_latency_seconds() const { return total_latency_; }
  size_t hits_posted() const { return hits_posted_; }
  size_t assignments_completed() const { return assignments_completed_; }
  size_t rounds_posted() const { return rounds_posted_; }

  // Fault ledger: what the injected FaultProfile actually did.
  size_t assignments_abandoned() const { return assignments_abandoned_; }
  size_t assignments_expired() const { return assignments_expired_; }
  size_t assignments_rejected() const { return assignments_rejected_; }
  /// HITs that expired with zero submitted assignments (every question in
  /// them reported kExpired or kNoQuorum).
  size_t hits_expired() const { return hits_expired_; }

  const WorkerPool& pool() const { return pool_; }
  /// Mutable pool access for fault-injection tests and offline requester
  /// tooling (e.g. seeding adversarial approval histories).
  WorkerPool* mutable_pool() { return &pool_; }
  const PlatformConfig& config() const { return config_; }

  /// The simulated clock (platform/sim_clock.h). PostRound advances it by
  /// round latency; the requester advances it across retry backoffs.
  SimClock* clock() { return &clock_; }
  const SimClock& clock() const { return clock_; }

  /// Full history of posted HITs and completed assignments, for offline
  /// analysis (e.g. Dawid-Skene worker-quality estimation over the vote
  /// matrix — crowd/quality_estimation.h).
  const std::vector<Hit>& hit_log() const { return hit_log_; }
  const std::vector<Assignment>& assignment_log() const {
    return assignment_log_;
  }

  /// The difficulty honest workers see on the pair (i, j):
  /// TaskDifficulty(difficulty_scale, RecordLevelJaccard(table, i, j)), bit
  /// for bit. Each record's token set is computed the first time a question
  /// names it and kept for the platform's lifetime; records added to the
  /// table later are picked up the same way. Draws nothing from the rng.
  double Difficulty(int i, int j);

 private:
  static constexpr int32_t kNoTokens = -1;

  bool Truth(const PairQuestion& q) const;
  /// Index into token_sets_ of record r's RecordWordTokenSet, computed on
  /// first use.
  int32_t TokenSlot(int r);
  bool WorkerAnswers(const SimWorker& worker, bool truth,
                     double difficulty);

  const Table* table_;
  PlatformConfig config_;
  WorkerPool pool_;
  Rng rng_;
  SimClock clock_;
  int64_t next_hit_id_ = 0;
  std::vector<Hit> hit_log_;
  std::vector<Assignment> assignment_log_;
  // token_slot_[r] indexes record r's token set in token_sets_, or is
  // kNoTokens until a question names r: four bytes per record, plus the
  // sets of the records the crowd has been asked about.
  std::vector<int32_t> token_slot_;
  std::vector<std::vector<std::string>> token_sets_;
  double total_cost_ = 0.0;
  double total_latency_ = 0.0;
  size_t hits_posted_ = 0;
  size_t assignments_completed_ = 0;
  size_t rounds_posted_ = 0;
  size_t assignments_abandoned_ = 0;
  size_t assignments_expired_ = 0;
  size_t assignments_rejected_ = 0;
  size_t hits_expired_ = 0;
};

}  // namespace power

#endif  // POWER_PLATFORM_PLATFORM_H_
