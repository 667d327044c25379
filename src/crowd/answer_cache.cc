#include "crowd/answer_cache.h"

#include "sim/pair.h"
#include "sim/similarity_matrix.h"
#include "util/check.h"

namespace power {
namespace {

uint64_t MixSeed(uint64_t seed, uint64_t key) {
  uint64_t x = seed ^ (key + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

CrowdOracle::CrowdOracle(const Table* table, WorkerBand band,
                         WorkerModel model, int workers_per_question,
                         uint64_t seed, double difficulty_scale)
    : table_(table),
      band_(band),
      model_(model),
      workers_per_question_(workers_per_question),
      seed_(seed),
      difficulty_scale_(difficulty_scale) {
  POWER_CHECK(table != nullptr);
  POWER_CHECK(difficulty_scale >= 0.0 && difficulty_scale <= 1.0);
}

bool CrowdOracle::Truth(int i, int j) const {
  return table_->record(i).entity_id == table_->record(j).entity_id;
}

double CrowdOracle::Difficulty(int i, int j) const {
  return TaskDifficulty(difficulty_scale_, RecordLevelJaccard(*table_, i, j));
}

VoteResult CrowdOracle::Ask(int i, int j) {
  uint64_t key = PairKey(i, j);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  CrowdSimulator sim(band_, model_, workers_per_question_,
                     MixSeed(seed_, key));
  // The exact-accuracy model never reads the difficulty.
  const double difficulty =
      model_ == WorkerModel::kExactAccuracy ? 0.0 : Difficulty(i, j);
  VoteResult result = sim.Ask(Truth(i, j), difficulty);
  return cache_.emplace(key, result).first->second;
}

}  // namespace power
