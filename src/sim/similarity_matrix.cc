#include "sim/similarity_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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
// chunk leaves fewer chunk-local rows to merge: at 100k records, 2.25M
// rather than 3.86M at 64 pairs per chunk, for 204k distinct rows.
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

// One chunk's scratch: marks over the dictionary, set for the left record's
// ids while its run is counted and clear between runs, and the batched
// Myers pass's buffers.
struct RunScratch {
  TokenMarks marks;
  std::vector<std::string_view> texts;
  std::vector<size_t> dists;
};

// Fills column k of the rows of the run candidates[begin, end), which all
// share the left record; row t of the run is at rows + t * m. Token-family
// columns mark the left record's ids once and count each right record's
// ids against the marks. Edit-similarity columns run the batched Myers
// kernel against the run's shared reference string lower(i, k); it returns
// the single-pair kernel's integer distance (tests/simd_kernels_test.cc).
// Every function is symmetric in its two values, so the left record may be
// either end of the pair.
void FillColumnForRun(const FeatureCache& features, SimilarityFunction fn,
                      size_t k,
                      const std::vector<std::pair<int, int>>& candidates,
                      int64_t begin, int64_t end, double component_floor,
                      size_t m, double* rows, RunScratch* scratch) {
  const auto left =
      static_cast<size_t>(candidates[static_cast<size_t>(begin)].first);
  auto right = [&](int64_t p) {
    return static_cast<size_t>(candidates[static_cast<size_t>(p)].second);
  };
  auto put = [&](int64_t p, double s) {
    if (s < component_floor) s = 0.0;
    rows[static_cast<size_t>(p - begin) * m + k] = s;
  };
  switch (fn) {
    case SimilarityFunction::kEditSimilarity: {
      const std::string_view pattern = features.LowerValue(left, k);
      scratch->texts.clear();
      for (int64_t p = begin; p < end; ++p) {
        scratch->texts.push_back(features.LowerValue(right(p), k));
      }
      scratch->dists.resize(scratch->texts.size());
      BatchMyersEditDistance(pattern, scratch->texts.data(),
                             scratch->texts.size(), scratch->dists.data());
      for (int64_t p = begin; p < end; ++p) {
        const auto t = static_cast<size_t>(p - begin);
        put(p, EditSimilarityFromDistance(scratch->dists[t], pattern.size(),
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
      for (int64_t p = begin; p < end; ++p) {
        double vb = 0.0;
        if (left_numeric && features.NumericValue(right(p), k, &vb)) {
          const double max_abs = std::max(std::abs(va), std::abs(vb));
          if (max_abs == 0.0) {
            put(p, 1.0);
          } else {
            const double sim = 1.0 - std::abs(va - vb) / max_abs;
            put(p, std::max(0.0, sim));
          }
        } else {
          const std::span<const int32_t> b = features.BigramIds(right(p), k);
          put(p, SetSimilarity(fn, scratch->marks.Count(b), a.size(),
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
      auto ids = [&](size_t r) {
        return fn == SimilarityFunction::kBigramJaccard
                   ? features.BigramIds(r, k)
                   : features.WordTokenIds(r, k);
      };
      const std::span<const int32_t> a = ids(left);
      scratch->marks.Mark(a);
      for (int64_t p = begin; p < end; ++p) {
        const std::span<const int32_t> b = ids(right(p));
        put(p, SetSimilarity(fn, scratch->marks.Count(b), a.size(), b.size()));
      }
      scratch->marks.Unmark(a);
      return;
    }
  }
}

// One chunk's distinct rows in first-occurrence order, before the merge.
struct ChunkRows {
  std::vector<double> distinct;
  size_t count = 0;
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
  // Chunks of pairs run on the pool. Within a chunk, each run of pairs that
  // share a left record (candidate lists arrive sorted by (i, j)) is filled
  // column by column into the chunk's row buffer, and the chunk interns its
  // rows into a local dictionary, writing local ids into row_of. A chunk
  // boundary can split a run, which only repeats the run's setup. The merge
  // then interns each chunk's distinct rows in chunk order and rewrites its
  // ids, so ids follow first occurrence in pair order and the table is the
  // same at every thread count.
  const Schema& schema = features.table().schema();
  const size_t m = schema.num_attributes();
  const size_t n = candidates.size();
  SimilarityTable out;
  out.m = m;
  out.ids.resize(n);
  out.row_of.resize(n);
  std::vector<ChunkRows> chunks(NumChunks(0, static_cast<int64_t>(n),
                                          kPairGrain));
  ParallelForChunked(
      0, static_cast<int64_t>(n), kPairGrain,
      [&](size_t chunk, int64_t begin, int64_t end) {
        RunScratch scratch{TokenMarks(features.dict_size()), {}, {}};
        std::vector<double> rows(static_cast<size_t>(end - begin) * m);
        for (int64_t p = begin; p < end;) {
          const int left = candidates[static_cast<size_t>(p)].first;
          int64_t q = p;
          for (; q < end && candidates[static_cast<size_t>(q)].first == left;
               ++q) {
            const auto& [i, j] = candidates[static_cast<size_t>(q)];
            POWER_CHECK(i != j);
            out.ids[static_cast<size_t>(q)] = {std::min(i, j),
                                               std::max(i, j)};
          }
          double* run_rows = rows.data() + static_cast<size_t>(p - begin) * m;
          for (size_t k = 0; k < m; ++k) {
            FillColumnForRun(features, schema.attribute(k).sim, k, candidates,
                             p, q, component_floor, m, run_rows, &scratch);
          }
          p = q;
        }
        RowInterner local(m);
        for (int64_t p = begin; p < end; ++p) {
          out.row_of[static_cast<size_t>(p)] =
              local.Intern(rows.data() + static_cast<size_t>(p - begin) * m);
        }
        chunks[chunk].count = local.size();
        chunks[chunk].distinct = local.TakeRows();
      });
  RowInterner global(m);
  std::vector<uint32_t> to_global;
  for (size_t c = 0; c < chunks.size(); ++c) {
    to_global.resize(chunks[c].count);
    for (size_t r = 0; r < chunks[c].count; ++r) {
      to_global[r] = global.Intern(chunks[c].distinct.data() + r * m);
    }
    chunks[c] = ChunkRows();
    const size_t begin = c * static_cast<size_t>(kPairGrain);
    const size_t end = std::min(n, begin + static_cast<size_t>(kPairGrain));
    for (size_t p = begin; p < end; ++p) {
      out.row_of[p] = to_global[out.row_of[p]];
    }
  }
  out.num_distinct = global.size();
  out.distinct = global.TakeRows();
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

double RecordLevelJaccard(const Table& table, int i, int j) {
  std::string a;
  std::string b;
  for (size_t k = 0; k < table.schema().num_attributes(); ++k) {
    a += table.Value(i, k);
    a += ' ';
    b += table.Value(j, k);
    b += ' ';
  }
  return JaccardOfSets(WordTokenSet(a), WordTokenSet(b));
}

double RecordLevelJaccard(const FeatureCache& features, int i, int j) {
  return JaccardOfSets(features.RecordTokenIds(static_cast<size_t>(i)),
                       features.RecordTokenIds(static_cast<size_t>(j)));
}

}  // namespace power
