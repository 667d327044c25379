#include "sim/similarity_matrix.h"

#include <algorithm>
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

constexpr int64_t kPairGrain = 64;

// Edit-similarity over a batch-computed Myers distance: the exact double
// expression of the single-pair cached path (feature_cache.cc), applied to
// the same integer distance — so batching cannot change a bit.
inline double EditSimilarityFromDistance(size_t dist, size_t len_a,
                                         size_t len_b) {
  const size_t max_len = std::max(len_a, len_b);
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(dist) / static_cast<double>(max_len);
}

// Fills column k of rows [begin, end) of `out` for the run
// candidates[begin, end) (all sharing the same left record) on an
// edit-similarity attribute, via the batched Myers kernel against the run's
// shared reference string lower(i, k). Scratch is caller-owned so
// steady-state chunks reuse it.
void FillEditAttributeForRun(const FeatureCache& features,
                             const std::vector<std::pair<int, int>>& candidates,
                             int64_t begin, int64_t end, size_t k,
                             double component_floor,
                             std::vector<std::string_view>* texts,
                             std::vector<size_t>* dists,
                             SimilarityTable* out) {
  const size_t count = static_cast<size_t>(end - begin);
  const size_t i = static_cast<size_t>(candidates[static_cast<size_t>(begin)].first);
  const std::string_view pattern = features.LowerValue(i, k);
  texts->clear();
  for (int64_t p = begin; p < end; ++p) {
    texts->push_back(features.LowerValue(
        static_cast<size_t>(candidates[static_cast<size_t>(p)].second), k));
  }
  dists->resize(count);
  BatchMyersEditDistance(pattern, texts->data(), count, dists->data());
  for (int64_t p = begin; p < end; ++p) {
    const size_t t = static_cast<size_t>(p - begin);
    double s = EditSimilarityFromDistance((*dists)[t], pattern.size(),
                                          (*texts)[t].size());
    if (s < component_floor) s = 0.0;
    out->values[static_cast<size_t>(p) * out->m + k] = s;
  }
}

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
  // Each pair's row is independent and lands in its own slot, so the loop
  // shards over the pool; the table is positionally identical to the serial
  // loop's at any thread count.
  //
  // Within a chunk, edit-similarity attributes run through the batched
  // Myers kernel: candidate lists arrive sorted by (i, j), so runs of pairs
  // sharing a left record share one reference string, and the batch
  // advances up to kMyersBatchLanes pairs per column step. The batch
  // returns the same integer distance as the single-pair kernel on every
  // input (tests/simd_kernels_test.cc), so each slot's doubles are
  // unchanged; chunk boundaries can split a run, which only shortens
  // batches, never changes results.
  const Schema& schema = features.table().schema();
  const size_t m = schema.num_attributes();
  bool any_edit = false;
  for (size_t k = 0; k < m; ++k) {
    any_edit |= schema.attribute(k).sim == SimilarityFunction::kEditSimilarity;
  }
  SimilarityTable out;
  out.m = m;
  out.ids.resize(candidates.size());
  out.values.resize(candidates.size() * m);
  ParallelFor(
      0, static_cast<int64_t>(candidates.size()), kPairGrain,
      [&](int64_t begin, int64_t end) {
        for (int64_t p = begin; p < end; ++p) {
          const auto& [i, j] = candidates[static_cast<size_t>(p)];
          POWER_CHECK(i != j);
          const int lo = std::min(i, j);
          const int hi = std::max(i, j);
          out.ids[static_cast<size_t>(p)] = {lo, hi};
          double* row = out.values.data() + static_cast<size_t>(p) * m;
          for (size_t k = 0; k < m; ++k) {
            if (schema.attribute(k).sim ==
                SimilarityFunction::kEditSimilarity) {
              continue;  // filled by the batched pass below
            }
            double s = ComputeSimilarity(features, schema.attribute(k).sim,
                                         static_cast<size_t>(lo),
                                         static_cast<size_t>(hi), k);
            if (s < component_floor) s = 0.0;
            row[k] = s;
          }
        }
        if (!any_edit) return;
        std::vector<std::string_view> texts;
        std::vector<size_t> dists;
        int64_t p = begin;
        while (p < end) {
          int64_t q = p;
          const int left = candidates[static_cast<size_t>(p)].first;
          while (q < end && candidates[static_cast<size_t>(q)].first == left) {
            ++q;
          }
          for (size_t k = 0; k < m; ++k) {
            if (schema.attribute(k).sim ==
                SimilarityFunction::kEditSimilarity) {
              FillEditAttributeForRun(features, candidates, p, q, k,
                                      component_floor, &texts, &dists, &out);
            }
          }
          p = q;
        }
      });
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
  table.values.reserve(pairs.size() * table.m);
  for (const SimilarPair& p : pairs) {
    POWER_CHECK_MSG(p.sims.size() == table.m,
                    "every pair's similarity vector must have one width");
    table.ids.emplace_back(p.i, p.j);
    table.values.insert(table.values.end(), p.sims.begin(), p.sims.end());
  }
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
