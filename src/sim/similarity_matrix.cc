#include "sim/similarity_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "sim/simd_kernels.h"
#include "sim/similarity.h"
#include "sim/tokenizer.h"
#include "util/check.h"
#include "util/parallel.h"

namespace power {
namespace {

// Pairs per pooled chunk. Chunk dictionaries merge serially, and a larger
// chunk leaves fewer chunk-local rows to merge.
constexpr int64_t kPairGrain = 1024;

// Edit similarity over a batch-computed Myers distance: Eq. 2's double
// expression (EditSimilarity in sim/similarity.cc), applied to the same
// integer distance, so batching cannot change a bit.
inline double EditSimilarityFromDistance(size_t dist, size_t len_a,
                                         size_t len_b) {
  const size_t max_len = std::max(len_a, len_b);
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(dist) / static_cast<double>(max_len);
}

// A set similarity from |A ∩ B|, |A| and |B|: exactly the expressions of
// JaccardOfSets, CosineSimilarity and OverlapCoefficient, empty-set rules
// included. Bigram Jaccard and numeric's fallback take the Jaccard branch.
inline double SetSimilarity(SimilarityFunction fn, size_t inter, size_t size_a,
                            size_t size_b) {
  if (size_a == 0 && size_b == 0) return 1.0;
  if (size_a == 0 || size_b == 0) return 0.0;
  switch (fn) {
    case SimilarityFunction::kCosine:
      return static_cast<double>(inter) /
             std::sqrt(static_cast<double>(size_a) *
                       static_cast<double>(size_b));
    case SimilarityFunction::kOverlap:
      return static_cast<double>(inter) /
             static_cast<double>(std::min(size_a, size_b));
    default:
      return static_cast<double>(inter) /
             static_cast<double>(size_a + size_b - inter);
  }
}

// One chunk's scratch: marks over the dictionary, set for the left class's
// ids while its run is counted and clear between runs, and the batched
// Myers pass's buffers.
struct RunScratch {
  TokenMarks marks;
  std::vector<std::string_view> texts;
  std::vector<size_t> dists;
};

// Fills column k of the rows of a run: the class pairs (left, right[t]),
// row t at rows + t * m. Token-family columns mark the left class's ids
// once and count each right class's ids against the marks. Edit-similarity
// columns run the batched Myers kernel against the run's shared reference
// string lower(left, k); it returns the single-pair kernel's integer
// distance (tests/simd_kernels_test.cc). Every function is symmetric in its
// two values, so the left class may be either end of a pair.
void FillColumnForRun(const FeatureCache& features, SimilarityFunction fn,
                      size_t k, RecordClass left,
                      std::span<const RecordClass> right,
                      double component_floor, size_t m, double* rows,
                      RunScratch* scratch) {
  auto put = [&](size_t t, double s) {
    if (s < component_floor) s = 0.0;
    rows[t * m + k] = s;
  };
  switch (fn) {
    case SimilarityFunction::kEditSimilarity: {
      const std::string_view pattern = features.LowerValue(left, k);
      scratch->texts.clear();
      for (const RecordClass c : right) {
        scratch->texts.push_back(features.LowerValue(c, k));
      }
      scratch->dists.resize(scratch->texts.size());
      BatchMyersEditDistance(pattern, scratch->texts.data(),
                             scratch->texts.size(), scratch->dists.data());
      for (size_t t = 0; t < right.size(); ++t) {
        put(t, EditSimilarityFromDistance(scratch->dists[t], pattern.size(),
                                          scratch->texts[t].size()));
      }
      return;
    }
    case SimilarityFunction::kNumeric: {
      // NumericSimilarity: both values parse, or bigram Jaccard.
      const std::span<const int32_t> a = features.BigramIds(left, k);
      double va = 0.0;
      const bool left_numeric = features.NumericValue(left, k, &va);
      scratch->marks.Mark(a);
      for (size_t t = 0; t < right.size(); ++t) {
        double vb = 0.0;
        if (left_numeric && features.NumericValue(right[t], k, &vb)) {
          const double max_abs = std::max(std::abs(va), std::abs(vb));
          if (max_abs == 0.0) {
            put(t, 1.0);
          } else {
            const double sim = 1.0 - std::abs(va - vb) / max_abs;
            put(t, std::max(0.0, sim));
          }
        } else {
          const std::span<const int32_t> b = features.BigramIds(right[t], k);
          put(t, SetSimilarity(fn, scratch->marks.Count(b), a.size(),
                               b.size()));
        }
      }
      scratch->marks.Unmark(a);
      return;
    }
    case SimilarityFunction::kJaccard:
    case SimilarityFunction::kBigramJaccard:
    case SimilarityFunction::kCosine:
    case SimilarityFunction::kOverlap: {
      auto ids = [&](RecordClass c) {
        return fn == SimilarityFunction::kBigramJaccard
                   ? features.BigramIds(c, k)
                   : features.WordTokenIds(c, k);
      };
      const std::span<const int32_t> a = ids(left);
      scratch->marks.Mark(a);
      for (size_t t = 0; t < right.size(); ++t) {
        const std::span<const int32_t> b = ids(right[t]);
        put(t, SetSimilarity(fn, scratch->marks.Count(b), a.size(), b.size()));
      }
      scratch->marks.Unmark(a);
      return;
    }
  }
}

// Which pairs can read their row from an earlier pair. A row is a function
// of the two records' cells, and every similarity function is symmetric in
// its two values, so all pairs of one unordered pair of record classes share
// a row, and only the first of them needs filling. In a list sorted by
// (i, j) with i < j, the first pair of classes {a, b} is their least record
// pair whenever the list holds it: (first(a), first(b)) for a < b, and
// (first(a), second(a)) for a = b, because class ids follow first
// occurrence. Such a pair is recognised from the classes' member lists
// alone. The index lists, per class, the least pairs in the list that touch
// a class of two or more members; a pair of two single-member classes is the
// only pair of its classes, so it is never looked up. A pair whose least
// pair the list lacks is filled itself.
//
// The index stays inactive, and every pair is filled, when no record
// repeats another or when the list is not strictly ascending with i < j for
// every pair (a hand-built list may be in any order).
class LeastPairIndex {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  LeastPairIndex(const FeatureCache& features,
                 const std::vector<std::pair<int, int>>& candidates)
      : features_(features) {
    const size_t n = candidates.size();
    if (features.num_classes() == features.num_records() || n >= kNone) {
      return;
    }
    // The least pairs, per chunk, and whether every pair ascends.
    const size_t chunks = NumChunks(0, static_cast<int64_t>(n), kPairGrain);
    std::vector<std::vector<uint32_t>> least(chunks);
    std::vector<uint8_t> ascending(chunks, 1);
    ParallelForChunked(
        0, static_cast<int64_t>(n), kPairGrain,
        [&](size_t chunk, int64_t begin, int64_t end) {
          for (int64_t p = begin; p < end; ++p) {
            const auto q = static_cast<size_t>(p);
            const auto& [i, j] = candidates[q];
            if (!(i < j) || (q > 0 && !(candidates[q - 1] < candidates[q]))) {
              ascending[chunk] = 0;
              return;
            }
            const RecordClass a = features.ClassOf(static_cast<size_t>(i));
            const RecordClass b = features.ClassOf(static_cast<size_t>(j));
            if (features.Members(a).size() == 1 &&
                features.Members(b).size() == 1) {
              continue;
            }
            if (IsLeast(i, j, a, b)) {
              least[chunk].push_back(static_cast<uint32_t>(q));
            }
          }
        });
    if (std::find(ascending.begin(), ascending.end(), 0) != ascending.end()) {
      return;
    }
    active_ = true;
    // A counting pass, then a fill in pair order.
    const size_t classes = features.num_classes();
    own_.assign(classes, kNone);
    off_.assign(classes + 1, 0);
    auto classes_of = [&](uint32_t q) {
      return std::make_pair(
          Index(features.ClassOf(static_cast<size_t>(candidates[q].first))),
          Index(features.ClassOf(static_cast<size_t>(candidates[q].second))));
    };
    for (const std::vector<uint32_t>& qs : least) {
      for (const uint32_t q : qs) {
        const auto [a, b] = classes_of(q);
        if (a == b) {
          own_[a] = q;
        } else {
          ++off_[a + 1];
          ++off_[b + 1];
        }
      }
    }
    for (size_t c = 0; c < classes; ++c) off_[c + 1] += off_[c];
    partners_.resize(off_.back());
    std::vector<uint32_t> next(off_.begin(), off_.end() - 1);
    for (const std::vector<uint32_t>& qs : least) {
      for (const uint32_t q : qs) {
        const auto [a, b] = classes_of(q);
        if (a == b) continue;
        partners_[next[a]++] = {b, q};
        partners_[next[b]++] = {a, q};
      }
    }
  }

  bool active() const { return active_; }

  // True iff (i, j), i < j, of classes (a, b), is the least pair of its
  // classes.
  bool IsLeast(int i, int j, RecordClass a, RecordClass b) const {
    const std::span<const int> members = features_.Members(a);
    if (members[0] != i) return false;
    return a == b ? members[1] == j : features_.Members(b)[0] == j;
  }

  // The least pair of two members of class a in the list, or kNone.
  uint32_t Own(RecordClass a) const { return own_[Index(a)]; }

  // (other class, least pair) for every least pair in the list of class a
  // and another class.
  std::span<const std::pair<uint32_t, uint32_t>> Partners(
      RecordClass a) const {
    return std::span(partners_).subspan(off_[Index(a)],
                                        off_[Index(a) + 1] - off_[Index(a)]);
  }

  static uint32_t Index(RecordClass c) { return static_cast<uint32_t>(c); }

 private:
  const FeatureCache& features_;
  bool active_ = false;
  std::vector<uint32_t> own_;
  // Per class, partners_[off_[c] .. off_[c + 1]).
  std::vector<uint32_t> off_;
  std::vector<std::pair<uint32_t, uint32_t>> partners_;
};

// One chunk's lookups into a LeastPairIndex: the partners of the left class
// in use are scattered into a table over all classes, and cleared when
// another left class asks, so each lookup is one load.
class SourceLookup {
 public:
  SourceLookup(const LeastPairIndex& index, size_t classes)
      : index_(index),
        source_(index.active() ? classes : 0, LeastPairIndex::kNone) {}

  // The pair whose row pair (i, j) of classes (a, b) reads, or kNone when
  // the pair is filled itself.
  uint32_t Find(int i, int j, RecordClass a, RecordClass b) {
    if (!index_.active() || index_.IsLeast(i, j, a, b)) {
      return LeastPairIndex::kNone;
    }
    if (a == b) return index_.Own(a);
    if (!scattered_ || a != left_) {
      Clear();
      for (const auto& [c, q] : index_.Partners(a)) source_[c] = q;
      left_ = a;
      scattered_ = true;
    }
    return source_[LeastPairIndex::Index(b)];
  }

 private:
  void Clear() {
    if (!scattered_) return;
    for (const auto& entry : index_.Partners(left_)) {
      source_[entry.first] = LeastPairIndex::kNone;
    }
  }

  const LeastPairIndex& index_;
  std::vector<uint32_t> source_;
  RecordClass left_{};
  bool scattered_ = false;
};

// One chunk's distinct rows in first-occurrence order, before the merge,
// and the offsets from the chunk's first pair of the pairs it filled. While
// the LeastPairIndex is inactive a chunk fills every pair, pair t at offset
// t, and `filled` stays empty.
struct ChunkRows {
  std::vector<double> distinct;
  size_t count = 0;
  std::vector<uint32_t> filled;
};

}  // namespace

SimilarPair ComputePairSimilarity(const Table& table, int i, int j,
                                  double component_floor) {
  POWER_CHECK(i != j);
  if (i > j) std::swap(i, j);
  SimilarPair p;
  p.i = i;
  p.j = j;
  const Schema& schema = table.schema();
  p.sims.reserve(schema.num_attributes());
  for (size_t k = 0; k < schema.num_attributes(); ++k) {
    double s = ComputeSimilarity(schema.attribute(k).sim, table.Value(i, k),
                                 table.Value(j, k));
    if (s < component_floor) s = 0.0;
    p.sims.push_back(s);
  }
  return p;
}

SimilarityTable ComputeSimilarityTable(
    const FeatureCache& features,
    const std::vector<std::pair<int, int>>& candidates,
    double component_floor) {
  // Chunks of pairs run on the pool. Within a chunk, every pair that does
  // not read an earlier pair's row (LeastPairIndex) is filled: each run of
  // such pairs that share a left class (candidate lists arrive sorted by
  // (i, j)) is filled column by column into the chunk's row buffer, and the
  // chunk interns its rows into a local dictionary, writing local ids into
  // row_of. A chunk boundary can split a run, which only repeats the run's
  // setup. The merge then interns each chunk's distinct rows in chunk order
  // and rewrites its ids, so ids follow first occurrence in pair order and
  // the table is the same at every thread count. Last, every other pair
  // takes the row id of the pair it reads.
  const Schema& schema = features.table().schema();
  const size_t m = schema.num_attributes();
  const size_t n = candidates.size();
  SimilarityTable out;
  out.m = m;
  out.ids.resize(n);
  out.row_of.resize(n);
  const LeastPairIndex index(features, candidates);
  const bool fills_all = !index.active();
  std::vector<ChunkRows> chunks(NumChunks(0, static_cast<int64_t>(n),
                                          kPairGrain));
  ParallelForChunked(
      0, static_cast<int64_t>(n), kPairGrain,
      [&](size_t chunk, int64_t begin, int64_t end) {
        std::vector<uint32_t>& filled = chunks[chunk].filled;
        std::vector<RecordClass> left;
        std::vector<RecordClass> right;
        if (!fills_all) filled.reserve(static_cast<size_t>(end - begin));
        left.reserve(static_cast<size_t>(end - begin));
        right.reserve(static_cast<size_t>(end - begin));
        SourceLookup lookup(index, features.num_classes());
        for (int64_t p = begin; p < end; ++p) {
          const auto& [i, j] = candidates[static_cast<size_t>(p)];
          POWER_CHECK(i != j);
          out.ids[static_cast<size_t>(p)] = {std::min(i, j), std::max(i, j)};
          const RecordClass a = features.ClassOf(static_cast<size_t>(i));
          const RecordClass b = features.ClassOf(static_cast<size_t>(j));
          const uint32_t source = lookup.Find(i, j, a, b);
          if (source != LeastPairIndex::kNone) {
            out.row_of[static_cast<size_t>(p)] = source;
            continue;
          }
          if (!fills_all) filled.push_back(static_cast<uint32_t>(p - begin));
          left.push_back(a);
          right.push_back(b);
        }
        // left[t] and right[t] are the classes of the t-th filled pair.
        const size_t count = left.size();
        if (count == 0) return;
        RunScratch scratch{TokenMarks(features.dict_size()), {}, {}};
        std::vector<double> rows(count * m);
        for (size_t t = 0; t < count;) {
          size_t u = t;
          while (u < count && left[u] == left[t]) ++u;
          for (size_t k = 0; k < m; ++k) {
            FillColumnForRun(features, schema.attribute(k).sim, k, left[t],
                             std::span(right).subspan(t, u - t),
                             component_floor, m, rows.data() + t * m,
                             &scratch);
          }
          t = u;
        }
        RowInterner local(m);
        for (size_t t = 0; t < count; ++t) {
          const size_t offset = fills_all ? t : filled[t];
          out.row_of[static_cast<size_t>(begin) + offset] =
              local.Intern(rows.data() + t * m);
        }
        chunks[chunk].count = local.size();
        chunks[chunk].distinct = local.TakeRows();
      });
  RowInterner global(m);
  std::vector<uint32_t> to_global;
  bool all_filled = true;
  for (size_t c = 0; c < chunks.size(); ++c) {
    to_global.resize(chunks[c].count);
    for (size_t r = 0; r < chunks[c].count; ++r) {
      to_global[r] = global.Intern(chunks[c].distinct.data() + r * m);
    }
    std::vector<double>().swap(chunks[c].distinct);
    const size_t begin = c * static_cast<size_t>(kPairGrain);
    const size_t end = std::min(n, begin + static_cast<size_t>(kPairGrain));
    if (fills_all) {
      for (size_t p = begin; p < end; ++p) {
        out.row_of[p] = to_global[out.row_of[p]];
      }
      continue;
    }
    all_filled = all_filled && chunks[c].filled.size() == end - begin;
    for (const uint32_t f : chunks[c].filled) {
      out.row_of[begin + f] = to_global[out.row_of[begin + f]];
    }
  }
  out.num_distinct = global.size();
  out.distinct = global.TakeRows();
  if (!all_filled) {
    // A pair that was not filled holds its source pair's index, and every
    // source was filled, so its id is final; only unfilled ids change here.
    ParallelForChunked(
        0, static_cast<int64_t>(n), kPairGrain,
        [&](size_t chunk, int64_t begin, int64_t end) {
          const std::vector<uint32_t>& filled = chunks[chunk].filled;
          size_t f = 0;
          for (int64_t p = begin; p < end; ++p) {
            if (f < filled.size() &&
                static_cast<int64_t>(filled[f]) == p - begin) {
              ++f;
              continue;
            }
            uint32_t& row = out.row_of[static_cast<size_t>(p)];
            row = out.row_of[row];
          }
        });
  }
  return out;
}

std::vector<SimilarPair> ComputePairSimilarities(
    const FeatureCache& features,
    const std::vector<std::pair<int, int>>& candidates,
    double component_floor) {
  const SimilarityTable table =
      ComputeSimilarityTable(features, candidates, component_floor);
  std::vector<SimilarPair> pairs(table.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    pairs[p].i = table.ids[p].first;
    pairs[p].j = table.ids[p].second;
    const std::span<const double> row = table.row(p);
    pairs[p].sims.assign(row.begin(), row.end());
  }
  return pairs;
}

SimilarityTable PackSimilarPairs(const std::vector<SimilarPair>& pairs) {
  SimilarityTable table;
  table.m = pairs.empty() ? 0 : pairs[0].sims.size();
  table.ids.reserve(pairs.size());
  table.row_of.reserve(pairs.size());
  RowInterner interner(table.m);
  for (const SimilarPair& p : pairs) {
    POWER_CHECK_MSG(p.sims.size() == table.m,
                    "every pair's similarity vector must have one width");
    table.ids.emplace_back(p.i, p.j);
    table.row_of.push_back(interner.Intern(p.sims.data()));
  }
  table.num_distinct = interner.size();
  table.distinct = interner.TakeRows();
  return table;
}

std::vector<std::string> RecordWordTokenSet(const Table& table, int i) {
  std::string text;
  for (size_t k = 0; k < table.schema().num_attributes(); ++k) {
    text += table.Value(static_cast<size_t>(i), k);
    text += ' ';
  }
  return WordTokenSet(text);
}

double RecordLevelJaccard(const Table& table, int i, int j) {
  return JaccardOfSets(RecordWordTokenSet(table, i),
                       RecordWordTokenSet(table, j));
}

double RecordLevelJaccard(const FeatureCache& features, int i, int j) {
  return JaccardOfSets(features.RecordTokenIds(static_cast<size_t>(i)),
                       features.RecordTokenIds(static_cast<size_t>(j)));
}

}  // namespace power
