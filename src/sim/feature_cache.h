#ifndef POWER_SIM_FEATURE_CACHE_H_
#define POWER_SIM_FEATURE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/table.h"
#include "sim/simd_kernels.h"

namespace power {

/// The class of a record: the records whose cells are equal byte for byte
/// (raw bytes and lengths, attribute by attribute) form one class. Class ids
/// are dense in [0, num_classes()) and follow first occurrence: class c's
/// first member comes before class c + 1's. A distinct type, so a record id
/// cannot be passed where a class id is read.
enum class RecordClass : uint32_t {};

/// Per-table record feature cache: every string-derived feature the
/// similarity front end consumes, computed once per record class on the
/// deterministic pool and stored in flat CSR-style arrays (offsets + one
/// contiguous value array per feature family):
///
///   lower bytes  — the lower-cased bytes of every cell, concatenated;
///   word ids     — interned word-token ids per cell, each once, in
///                  first-occurrence order;
///   bigram ids   — interned 2-gram ids per cell, each once, in
///                  first-occurrence order;
///   record ids   — sorted-unique word-token ids over the whole record
///                  (identical to WordTokenSet of the ' '-joined record);
///   signatures   — a 256-bit TokenSignature of every record's ids (32 B
///                  per class), for the candidate paths' signature filter;
///   numerics     — the Trim+strtod parse of every cell, done once.
///
/// Every feature is a function of a record's cells, so exact-duplicate
/// records share one copy: the cache interns each record's cell tuple into
/// a RecordClass and computes the features of each class's first member
/// only. Each feature has two accessors, one taking a class and one taking
/// a record, which reads its record's class. The all-pairs scan and the
/// similarity table work on classes; everything else reads records.
///
/// All token families share a single interned dictionary. Interning is a
/// bijection between distinct token strings and their ids, so set sizes and
/// intersection counts — and therefore every similarity double computed
/// from them — are byte-identical to the raw string path
/// (tests/feature_cache_test.cc proves this differentially). A cell span is
/// a set in no particular order: its readers count it against TokenMarks,
/// which does not depend on order. A record span is sorted, because
/// RecordLevelJaccard (the baselines' input) merges two of them. Ids are
/// given by first occurrence over the cells of every record in ascending
/// order; a repeated record adds no token its class's first member did not,
/// so interning the first members alone gives the same ids.
///
/// Determinism at any thread count: the record hash and lowercase passes
/// shard over records (classes) with chunk boundaries that depend only on
/// the count, and every output lands in its own slot; class ids, token ids
/// and every span are written by serial first-occurrence passes in
/// ascending order.
///
/// The cache borrows the table; it must not outlive it, so a temporary table
/// does not compile. Cost: one build is O(total value bytes) — it amortizes
/// as soon as a record participates in more than a handful of pair
/// comparisons, i.e. for any candidate generation or batch similarity pass
/// (see DESIGN.md §10).
class FeatureCache {
 public:
  explicit FeatureCache(const Table& table);
  explicit FeatureCache(Table&&) = delete;

  const Table& table() const { return *table_; }
  size_t num_records() const { return n_; }
  size_t num_attributes() const { return m_; }

  /// Record classes: num_classes() <= num_records(), equal when no record
  /// repeats another.
  size_t num_classes() const { return member_off_.size() - 1; }
  RecordClass ClassOf(size_t i) const { return RecordClass{class_of_[i]}; }
  /// The records of class c, ascending; the first is the one whose cells
  /// the features were computed from.
  std::span<const int> Members(RecordClass c) const {
    const size_t x = Index(c);
    return {members_.data() + member_off_[x],
            member_off_[x + 1] - member_off_[x]};
  }

  /// Lower-cased bytes of table.Value(i, k) (== ToLower of the raw value).
  std::string_view LowerValue(RecordClass c, size_t k) const {
    const size_t x = cell(c, k);
    return std::string_view(lower_bytes_)
        .substr(lower_off_[x], lower_off_[x + 1] - lower_off_[x]);
  }
  std::string_view LowerValue(size_t i, size_t k) const {
    return LowerValue(ClassOf(i), k);
  }

  /// Word-token ids of cell (i, k), each once in first-occurrence order:
  /// the set WordTokenSet returns, interned, not sorted.
  std::span<const int32_t> WordTokenIds(RecordClass c, size_t k) const {
    const size_t x = cell(c, k);
    return {word_ids_.data() + word_off_[x], word_off_[x + 1] - word_off_[x]};
  }
  std::span<const int32_t> WordTokenIds(size_t i, size_t k) const {
    return WordTokenIds(ClassOf(i), k);
  }

  /// Bigram ids of cell (i, k), each once in first-occurrence order: the
  /// set QGramSet(·, 2) returns, interned, not sorted.
  std::span<const int32_t> BigramIds(RecordClass c, size_t k) const {
    const size_t x = cell(c, k);
    return {gram_ids_.data() + gram_off_[x], gram_off_[x + 1] - gram_off_[x]};
  }
  std::span<const int32_t> BigramIds(size_t i, size_t k) const {
    return BigramIds(ClassOf(i), k);
  }

  /// Sorted-unique word-token ids of the whole record — identical to
  /// WordTokenSet over the ' '-joined concatenation of all attribute values
  /// (the one definition RecordLevelJaccard and PrefixFilterJoin share).
  std::span<const int32_t> RecordTokenIds(RecordClass c) const {
    const size_t x = Index(c);
    return {rec_ids_.data() + rec_off_[x], rec_off_[x + 1] - rec_off_[x]};
  }
  std::span<const int32_t> RecordTokenIds(size_t i) const {
    return RecordTokenIds(ClassOf(i));
  }

  /// SignatureOf(RecordTokenIds(c)) for every class, indexed by class id.
  std::span<const TokenSignature> ClassSignatures() const { return rec_sig_; }
  /// SignatureOf(RecordTokenIds(i)).
  const TokenSignature& RecordSignature(size_t i) const {
    return rec_sig_[class_of_[i]];
  }

  /// Cached numeric parse of the raw cell value; returns false (and leaves
  /// *value at the cached 0.0) for non-numeric cells.
  bool NumericValue(RecordClass c, size_t k, double* value) const {
    const size_t x = cell(c, k);
    *value = numeric_val_[x];
    return numeric_ok_[x] != 0;
  }
  bool NumericValue(size_t i, size_t k, double* value) const {
    return NumericValue(ClassOf(i), k, value);
  }

  /// Interned dictionary: ids are dense in [0, dict_size()).
  size_t dict_size() const { return dict_ref_.size(); }
  std::string_view TokenString(int32_t id) const {
    const auto& [off, len] = dict_ref_[static_cast<size_t>(id)];
    return std::string_view(lower_bytes_).substr(off, len);
  }

 private:
  static size_t Index(RecordClass c) { return static_cast<size_t>(c); }
  size_t cell(RecordClass c, size_t k) const { return Index(c) * m_ + k; }

  const Table* table_;
  size_t n_ = 0;
  size_t m_ = 0;

  // Record -> class, and each class's members ascending (classes + 1
  // offsets).
  std::vector<uint32_t> class_of_;
  std::vector<int> members_;
  std::vector<uint32_t> member_off_;
  // The arrays below hold one entry per class (per class cell), not per
  // record.
  // Lower-cased bytes of all class cells, concatenated; classes*m+1 offsets.
  std::string lower_bytes_;
  std::vector<uint64_t> lower_off_;
  // Unique token-id runs per class cell, in first-occurrence order
  // (classes*m+1 offsets each).
  std::vector<int32_t> word_ids_;
  std::vector<uint64_t> word_off_;
  std::vector<int32_t> gram_ids_;
  std::vector<uint64_t> gram_off_;
  // Sorted-unique record-level word-token ids (classes+1 offsets).
  std::vector<int32_t> rec_ids_;
  std::vector<uint64_t> rec_off_;
  std::vector<TokenSignature> rec_sig_;
  // Pre-parsed numerics, one slot per class cell.
  std::vector<double> numeric_val_;
  std::vector<uint8_t> numeric_ok_;
  // Token id -> (offset, length) into lower_bytes_.
  std::vector<std::pair<uint64_t, uint32_t>> dict_ref_;
};

/// One mark byte per id of an id space the caller sizes: the dictionary for
/// FeatureCache token ids, the prefix join's rank count for its ranks. Mark
/// one set A, then Count(B) is |A ∩ B| for every duplicate-free B, and
/// Unmark(A) clears the bytes A set. The similarity table, the all-pairs
/// scan and the prefix join count every intersection through it: the table
/// marks a run's left record once per attribute, the scan and the join
/// mark a record's ids at its first pair to verify. A byte per id counted
/// faster than a bit per id, and faster than the AVX2 merge of the two
/// sorted spans it replaced (DESIGN.md §14, §17).
class TokenMarks {
 public:
  explicit TokenMarks(size_t num_ids) : marks_(num_ids, 0) {}

  void Mark(std::span<const int32_t> ids) { Set(ids, 1); }
  void Unmark(std::span<const int32_t> ids) { Set(ids, 0); }

  size_t Count(std::span<const int32_t> ids) const {
    size_t count = 0;
    for (int32_t id : ids) count += marks_[static_cast<uint32_t>(id)];
    return count;
  }

 private:
  void Set(std::span<const int32_t> ids, uint8_t mark) {
    for (int32_t id : ids) marks_[static_cast<uint32_t>(id)] = mark;
  }

  std::vector<uint8_t> marks_;
};

/// THE record-level Jaccard prune comparison — the one boundary predicate
/// every pruning path shares. Exactly `JaccardOfSets(A, B) >= tau` for
/// sorted-unique sets of the given sizes with `intersection` common
/// elements: the same double division, the same empty-set conventions (both
/// empty -> 1, one empty -> 0), no epsilon, no cross-multiplied rewrite.
///
/// AllPairsCandidates and PrefixFilterJoin (verification, and the
/// signature filter's table in blocking/signature_filter.h, which is also
/// the join's length filter) and SignatureMayReach all route their
/// threshold decision through this one inline, so that a floating-point
/// rewrite in one call site can never make the all-pairs scan and the
/// prefix join disagree on a pair sitting exactly on the tau boundary.
inline bool RecordJaccardAtLeast(size_t intersection, size_t size_a,
                                 size_t size_b, double tau) {
  if (size_a == 0 && size_b == 0) return 1.0 >= tau;
  if (size_a == 0 || size_b == 0) return 0.0 >= tau;
  const size_t uni = size_a + size_b - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni) >= tau;
}

/// The signature filter: false only when no pair of sets with these sizes
/// and signature distance `h` (popcount of their TokenSignatures' XOR) can
/// pass RecordJaccardAtLeast. Each bit set in only one signature names a
/// token of that set the other lacks, and distinct bits name distinct
/// tokens, so h <= |A Δ B| = |A| + |B| - 2|A ∩ B|, i.e.
/// |A ∩ B| <= floor((|A| + |B| - h) / 2). For fixed sizes the predicate is
/// monotone in the intersection (the same double division; rounding is
/// monotone), so evaluating it at that bound — capped at min(|A|, |B|),
/// which makes it imply the length filter — never rejects a pair whose
/// exact intersection passes. Both-empty sets have h = 0 and pass; a pair
/// with one empty set fails, as RecordJaccardAtLeast decides.
inline bool SignatureMayReach(size_t h, size_t size_a, size_t size_b,
                              double tau) {
  const size_t bound =
      std::min({(size_a + size_b - h) / 2, size_a, size_b});
  return RecordJaccardAtLeast(bound, size_a, size_b, tau);
}

}  // namespace power

#endif  // POWER_SIM_FEATURE_CACHE_H_
