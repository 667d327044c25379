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

/// A read-only view of n similarity vectors of width m, each distinct row
/// stored once: vertex v's vector is data[index[v] * m, index[v] * m + m).
/// The num_rows distinct rows are in first-occurrence order (the rows of
/// vertices 0..v use ids 0..max(index[0..v]) with no gap), which Split
/// relies on to fold bounds in vertex order. The groupers, the graph
/// builders and the Power+ pass read the pairs through it.
struct SimilarityRows {
  const double* data = nullptr;
  const uint32_t* index = nullptr;
  size_t n = 0;
  size_t m = 0;
  size_t num_rows = 0;

  std::span<const double> row(size_t v) const {
    return {data + size_t{index[v]} * m, m};
  }
};

/// Stores rows of width m once per distinct bit pattern, in the order they
/// are first interned, and hands out each row's id. Rows are compared by
/// their bits, so 0.0 and -0.0 stay distinct. Every interned layout
/// (ComputeSimilarityTable, PackSimilarPairs, PackRows) goes through it.
/// Its hash table is only probed, never iterated: ids follow the interning
/// order alone.
class RowInterner {
 public:
  explicit RowInterner(size_t m);

  /// The id of the m doubles at `row`, appending them when their bits are
  /// new. Ids are dense: the k-th distinct row gets id k.
  uint32_t Intern(const double* row);

  /// Distinct rows interned so far.
  size_t size() const { return size_; }

  /// Moves the distinct rows out, row-major (size() * m doubles), and
  /// leaves the interner empty.
  std::vector<double> TakeRows();

 private:
  uint64_t Hash(const double* row) const;
  void Grow();

  size_t m_;
  size_t size_ = 0;
  std::vector<double> rows_;
  std::vector<uint32_t> slots_;  // id + 1, or 0 for an empty slot
};

/// Every candidate pair and its similarity vector: pair p is ids[p] (i < j)
/// and its vector is distinct[row_of[p] * m, row_of[p] * m + m). Each
/// distinct vector is stored once, in first-occurrence pair order, and each
/// pair holds its row's 4-byte index. This is what PowerFramework::Run hands
/// from the similarity stage to the job.
struct SimilarityTable {
  std::vector<std::pair<int, int>> ids;
  size_t m = 0;
  std::vector<double> distinct;  // num_distinct * m, row-major
  size_t num_distinct = 0;
  std::vector<uint32_t> row_of;  // one per pair

  size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }
  std::span<const double> row(size_t p) const {
    return {distinct.data() + size_t{row_of[p]} * m, m};
  }
  SimilarityRows rows() const {
    return {distinct.data(), row_of.data(), ids.size(), m, num_distinct};
  }
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
