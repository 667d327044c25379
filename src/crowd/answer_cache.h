#ifndef POWER_CROWD_ANSWER_CACHE_H_
#define POWER_CROWD_ANSWER_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "crowd/pair_oracle.h"
#include "crowd/worker.h"
#include "data/table.h"

namespace power {

/// The crowd, as seen by every algorithm under test.
///
/// Reproduces the paper's fairness protocol (§7.1): "we crowdsource all pairs
/// in each dataset ... if different algorithms ask the same pair, they will
/// use the same answer." Votes for a pair are derived from a per-pair seed
/// (hash of the base seed and the pair key), so the answer a pair receives is
/// independent of which algorithm asks first or in what order — and is then
/// memoized.
///
/// Ground truth comes from the records' entity ids; per-pair difficulty (for
/// the kTaskDifficulty worker model) from the record-level Jaccard
/// similarity through TaskDifficulty (crowd/worker.h): pairs near the 0.5
/// ambiguity point are hardest.
class CrowdOracle : public PairOracle {
 public:
  /// `difficulty_scale` in [0, 1] scales per-pair difficulty: how hard this
  /// table's questions are for humans overall (DatasetProfile's
  /// human_hardness). 0 makes every question as easy as the workers'
  /// nominal accuracy allows; only the kTaskDifficulty model is affected.
  CrowdOracle(const Table* table, WorkerBand band, WorkerModel model,
              int workers_per_question, uint64_t seed,
              double difficulty_scale = 1.0);

  /// Votes of the z workers on the pair (i, j). Memoized.
  VoteResult Ask(int i, int j) override;

  /// Ground truth for the pair (records share an entity id).
  bool Truth(int i, int j) const;

  /// The difficulty the worker model would see for this pair (already
  /// scaled by difficulty_scale).
  double Difficulty(int i, int j) const;

  size_t num_distinct_pairs_asked() const { return cache_.size(); }
  int workers_per_question() const { return workers_per_question_; }
  const Table& table() const { return *table_; }

 private:
  const Table* table_;
  WorkerBand band_;
  WorkerModel model_;
  int workers_per_question_;
  uint64_t seed_;
  double difficulty_scale_;
  std::unordered_map<uint64_t, VoteResult> cache_;
};

}  // namespace power

#endif  // POWER_CROWD_ANSWER_CACHE_H_
