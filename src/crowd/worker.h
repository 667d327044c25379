#ifndef POWER_CROWD_WORKER_H_
#define POWER_CROWD_WORKER_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "crowd/weighted_vote.h"
#include "util/rng.h"

namespace power {

/// Aggregated votes of the z workers assigned to one question (§3.2, §6).
struct VoteResult {
  int yes_votes = 0;
  int total_votes = 0;

  bool majority_yes() const { return 2 * yes_votes > total_votes; }

  /// Confidence of the voted answer: fraction voting with the majority
  /// (the paper's c = y/z).
  double confidence() const {
    if (total_votes == 0) return 0.0;
    int majority = yes_votes > total_votes - yes_votes
                       ? yes_votes
                       : total_votes - yes_votes;
    return static_cast<double>(majority) / total_votes;
  }
};

/// How a worker's answer quality relates to their nominal accuracy band.
///
/// kExactAccuracy reproduces the paper's §7.2.2 simulation study: a worker
/// with accuracy a answers correctly with probability exactly a.
///
/// kTaskDifficulty reproduces the §7.2.1 real-AMT behaviour: the AMT approval
/// rate only bounds *historical* accuracy, and actual per-question accuracy
/// depends mostly on how hard the pair is. The effective correctness
/// probability is
///     0.5 + 0.5 * (1 - difficulty)^gamma,   gamma = 1 + 4 * (1 - a)
/// so that trivial pairs (difficulty 0) are answered almost perfectly by any
/// approval band, fully ambiguous pairs (difficulty 1) become coin flips, and
/// the nominal accuracy only modulates how quickly quality decays in between
/// — this is what makes all bands perform similarly on the easy Restaurant
/// dataset and poorly on dirty Cora, exactly the effect the paper reports.
enum class WorkerModel {
  kExactAccuracy,
  kTaskDifficulty,
};

/// The task difficulty of a pair whose record-level Jaccard similarity is
/// `jaccard`: pairs near the 0.5 ambiguity point are hardest,
///     difficulty = scale * (1 - 2 * |jaccard - 0.5|),
/// where `scale` in [0, 1] is how hard the table's questions are for humans
/// (DatasetProfile::human_hardness). The one formula CrowdOracle and
/// CrowdPlatform score their questions with.
inline double TaskDifficulty(double scale, double jaccard) {
  return scale * (1.0 - 2.0 * std::abs(jaccard - 0.5));
}

/// Nominal worker quality band (the AMT approval-rate groups: 70-80%,
/// 80-90%, above 90%).
struct WorkerBand {
  double accuracy_lo = 0.9;
  double accuracy_hi = 1.0;
};

inline WorkerBand Band70() { return {0.70, 0.80}; }
inline WorkerBand Band80() { return {0.80, 0.90}; }
inline WorkerBand Band90() { return {0.90, 1.00}; }

/// Simulates the crowd answering one pair-comparison question with z
/// independent workers. Deterministic in (seed, call sequence).
class CrowdSimulator {
 public:
  CrowdSimulator(WorkerBand band, WorkerModel model, int workers_per_question,
                 uint64_t seed);

  /// Asks one question whose ground-truth answer is `truth`; `difficulty` in
  /// [0, 1] is ignored under kExactAccuracy.
  VoteResult Ask(bool truth, double difficulty);

  /// Like Ask, but returns each worker's vote together with their *nominal*
  /// accuracy (their approval rate — what the platform would expose), for
  /// weighted aggregation via crowd/weighted_vote.h.
  std::vector<WorkerVote> AskDetailed(bool truth, double difficulty);

  int workers_per_question() const { return workers_per_question_; }

 private:
  WorkerBand band_;
  WorkerModel model_;
  int workers_per_question_;
  Rng rng_;
};

}  // namespace power

#endif  // POWER_CROWD_WORKER_H_
