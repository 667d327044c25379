#ifndef POWER_SIM_PAIR_H_
#define POWER_SIM_PAIR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace power {

/// A similar record pair p_ij that survived pruning, carrying its
/// per-attribute similarity vector (s_ij^1 .. s_ij^m). These are the graph
/// vertices of the partial-order framework (Definition 2).
struct SimilarPair {
  int i = -1;  // record index, i < j
  int j = -1;
  std::vector<double> sims;
};

/// A read-only row-major view of n similarity vectors of width m: vertex v's
/// vector is data[v * m, v * m + m). The groupers and the Power+ pass read
/// the pairs through it.
struct SimilarityRows {
  const double* data = nullptr;
  size_t n = 0;
  size_t m = 0;

  std::span<const double> row(size_t v) const { return {data + v * m, m}; }
};

/// Every candidate pair's similarity vector in one allocation: pair p is
/// ids[p] (i < j) and its vector is values[p * m, p * m + m). This is what
/// PowerFramework::Run hands from the similarity stage to the job, so the
/// pipeline holds no per-pair heap block.
struct SimilarityTable {
  std::vector<std::pair<int, int>> ids;
  size_t m = 0;
  std::vector<double> values;  // ids.size() * m, row-major

  size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }
  std::span<const double> row(size_t p) const {
    return {values.data() + p * m, m};
  }
  SimilarityRows rows() const { return {values.data(), ids.size(), m}; }
};

/// Canonical 64-bit key for a record pair (i < j), used by the answer cache
/// and evaluation sets.
inline uint64_t PairKey(int i, int j) {
  if (i > j) {
    int t = i;
    i = j;
    j = t;
  }
  return (static_cast<uint64_t>(static_cast<uint32_t>(i)) << 32) |
         static_cast<uint32_t>(j);
}

inline int PairKeyFirst(uint64_t key) { return static_cast<int>(key >> 32); }
inline int PairKeySecond(uint64_t key) {
  return static_cast<int>(key & 0xffffffffULL);
}

}  // namespace power

#endif  // POWER_SIM_PAIR_H_
