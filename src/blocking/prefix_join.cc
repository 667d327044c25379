#include "blocking/prefix_join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "sim/tokenizer.h"
#include "util/check.h"
#include "util/parallel.h"

namespace power {
namespace {

// Processing-order positions probed per pool task. Chunk boundaries depend
// only on the record count, so the per-chunk buffers concatenate to the same
// vector at any thread count.
constexpr int64_t kProbeGrain = 64;

// The join's index, built once and shared read-only by every probe. Records
// are addressed by their position in the processing order (increasing token
// count, ties by id): the index-nested-loop join is only sound when a probe
// sees records no longer than itself, and a posting list that holds
// ascending positions lets each probe stop at its own position.
struct PrefixIndex {
  double tau = 0.0;
  /// Position -> record id.
  std::vector<int> order;
  /// CSR over positions: the record at position k has the rank-space tokens
  /// ranks[token_begin[k] .. token_begin[k + 1]), ascending. A token's rank
  /// orders rarer tokens first (ties by token bytes), so the prefix holds
  /// the most selective tokens.
  std::vector<size_t> token_begin;
  std::vector<int32_t> ranks;
  /// Per position: |x| - ceil(tau*|x|) + 1, capped at |x| (0 for a
  /// token-less record). The prefix is the first prefix_len tokens.
  std::vector<size_t> prefix_len;
  /// CSR over ranks: the positions whose prefix holds rank r are
  /// postings[posting_begin[r] .. posting_begin[r + 1]), ascending.
  std::vector<size_t> posting_begin;
  std::vector<int> postings;

  std::span<const int32_t> Tokens(size_t k) const {
    return std::span<const int32_t>(ranks).subspan(
        token_begin[k], token_begin[k + 1] - token_begin[k]);
  }
  std::span<const int> Postings(int32_t rank) const {
    const size_t r = static_cast<size_t>(rank);
    return std::span<const int>(postings).subspan(
        posting_begin[r], posting_begin[r + 1] - posting_begin[r]);
  }
};

PrefixIndex BuildPrefixIndex(const FeatureCache& features, double tau) {
  PrefixIndex index;
  index.tau = tau;
  const size_t n = features.num_records();

  // 1. Document frequency per interned token over the record-level spans.
  //    The spans are sorted-unique, so this equals the per-record-set count
  //    the string-keyed dictionary used to produce.
  std::vector<int> freq(features.dict_size(), 0);
  for (size_t i = 0; i < n; ++i) {
    for (int32_t id : features.RecordTokenIds(i)) {
      ++freq[static_cast<size_t>(id)];
    }
  }

  // 2. Re-rank so that rarer tokens get smaller ranks, ties broken by token
  //    bytes — the exact (frequency, string) vocab order of the string path.
  std::vector<int32_t> used;
  for (size_t id = 0; id < freq.size(); ++id) {
    if (freq[id] > 0) used.push_back(static_cast<int32_t>(id));
  }
  std::sort(used.begin(), used.end(), [&](int32_t a, int32_t b) {
    if (freq[static_cast<size_t>(a)] != freq[static_cast<size_t>(b)]) {
      return freq[static_cast<size_t>(a)] < freq[static_cast<size_t>(b)];
    }
    return features.TokenString(a) < features.TokenString(b);
  });
  std::vector<int32_t> rank(features.dict_size(), -1);
  for (size_t r = 0; r < used.size(); ++r) {
    rank[static_cast<size_t>(used[r])] = static_cast<int32_t>(r);
  }

  // 3. Processing order: increasing token count, ties by id. Interning and
  //    ranking are bijections, so a span's size is its rank-space size.
  index.order.resize(n);
  for (size_t i = 0; i < n; ++i) index.order[i] = static_cast<int>(i);
  std::sort(index.order.begin(), index.order.end(), [&](int a, int b) {
    const size_t la = features.RecordTokenIds(static_cast<size_t>(a)).size();
    const size_t lb = features.RecordTokenIds(static_cast<size_t>(b)).size();
    if (la != lb) return la < lb;
    return a < b;
  });

  // 4. Rank-space tokens and prefix lengths, laid out in processing order.
  index.token_begin.resize(n + 1, 0);
  index.prefix_len.resize(n, 0);
  for (size_t k = 0; k < n; ++k) {
    const size_t len =
        features.RecordTokenIds(static_cast<size_t>(index.order[k])).size();
    index.token_begin[k + 1] = index.token_begin[k] + len;
    if (len > 0) {
      const size_t prefix = len - static_cast<size_t>(std::ceil(tau * len)) + 1;
      index.prefix_len[k] = std::min(prefix, len);
    }
  }
  index.ranks.resize(index.token_begin[n]);
  for (size_t k = 0; k < n; ++k) {
    auto first = index.ranks.begin() +
                 static_cast<std::ptrdiff_t>(index.token_begin[k]);
    auto out = first;
    for (int32_t id :
         features.RecordTokenIds(static_cast<size_t>(index.order[k]))) {
      *out++ = rank[static_cast<size_t>(id)];
    }
    std::sort(first, out);
  }

  // 5. Prefix posting lists: count, prefix-sum, then scatter in ascending
  //    position so every list comes out sorted.
  index.posting_begin.assign(used.size() + 1, 0);
  for (size_t k = 0; k < n; ++k) {
    const std::span<const int32_t> t = index.Tokens(k);
    for (size_t p = 0; p < index.prefix_len[k]; ++p) {
      ++index.posting_begin[static_cast<size_t>(t[p]) + 1];
    }
  }
  for (size_t r = 0; r < used.size(); ++r) {
    index.posting_begin[r + 1] += index.posting_begin[r];
  }
  index.postings.resize(index.posting_begin[used.size()]);
  std::vector<size_t> fill(index.posting_begin.begin(),
                           index.posting_begin.end() - 1);
  for (size_t k = 0; k < n; ++k) {
    const std::span<const int32_t> t = index.Tokens(k);
    for (size_t p = 0; p < index.prefix_len[k]; ++p) {
      index.postings[fill[static_cast<size_t>(t[p])]++] = static_cast<int>(k);
    }
  }
  return index;
}

// Probes positions [begin, end): each record is joined against the records
// before it in the processing order that share a prefix token. Appends every
// verified pair (min, max) to *out. Token-less records have an empty prefix
// and never match here (see AppendEmptyRecordPairs).
void ProbeRange(const PrefixIndex& index, int begin, int end,
                std::vector<std::pair<int, int>>* out) {
  const double tau = index.tau;
  // Probe-stamped candidate dedup. A probe's candidates lie at positions
  // before its own, so positions [0, end) cover every candidate.
  std::vector<int> last_seen(static_cast<size_t>(end), -1);
  for (int k = begin; k < end; ++k) {
    const std::span<const int32_t> tx = index.Tokens(static_cast<size_t>(k));
    const size_t len_x = tx.size();
    const size_t prefix_x = index.prefix_len[static_cast<size_t>(k)];
    const int x = index.order[static_cast<size_t>(k)];
    for (size_t p = 0; p < prefix_x; ++p) {
      for (int q : index.Postings(tx[p])) {
        if (q >= k) break;
        if (last_seen[static_cast<size_t>(q)] == k) continue;
        last_seen[static_cast<size_t>(q)] = k;
        const std::span<const int32_t> ty =
            index.Tokens(static_cast<size_t>(q));
        const size_t len_y = ty.size();
        // Length filter: the best case shares all of the shorter record, so
        // Jaccard can only reach tau if min/max does. Phrased through the
        // shared predicate — the exact arithmetic of the verification below
        // and of the all-pairs scan — so a boundary pair can never be
        // dropped here that verification would have accepted.
        if (!RecordJaccardAtLeast(std::min(len_x, len_y), len_x, len_y,
                                  tau)) {
          continue;
        }
        // Verification: the exact record-level Jaccard prune decision, same
        // predicate (and same dispatched intersection kernel) as
        // AllPairsCandidates — not a cross-multiplied epsilon rewrite that
        // could disagree with it on the tau boundary.
        const size_t inter = SortedIntersectionSize(tx, ty);
        if (RecordJaccardAtLeast(inter, len_x, len_y, tau)) {
          const int y = index.order[static_cast<size_t>(q)];
          out->emplace_back(std::min(x, y), std::max(x, y));
        }
      }
    }
  }
}

// The record-level prune defines Jaccard(∅, ∅) = 1, so when tau permits,
// every pair of token-less records is a candidate. They never enter the
// posting lists; they lead the processing order, ascending by id.
void AppendEmptyRecordPairs(const PrefixIndex& index,
                            std::vector<std::pair<int, int>>* out) {
  if (!RecordJaccardAtLeast(0, 0, 0, index.tau)) return;
  size_t empty = 0;
  while (empty < index.order.size() && index.Tokens(empty).empty()) ++empty;
  for (size_t a = 0; a < empty; ++a) {
    for (size_t b = a + 1; b < empty; ++b) {
      out->emplace_back(index.order[a], index.order[b]);
    }
  }
}

}  // namespace

std::vector<std::pair<int, int>> PrefixFilterJoin(const FeatureCache& features,
                                                  double tau) {
  POWER_CHECK(tau > 0.0 && tau <= 1.0);
  const PrefixIndex index = BuildPrefixIndex(features, tau);
  const int64_t n = static_cast<int64_t>(index.order.size());
  std::vector<std::vector<std::pair<int, int>>> found(
      NumChunks(0, n, kProbeGrain));
  ParallelForChunked(0, n, kProbeGrain,
                     [&](size_t chunk, int64_t begin, int64_t end) {
                       ProbeRange(index, static_cast<int>(begin),
                                  static_cast<int>(end), &found[chunk]);
                     });
  std::vector<std::pair<int, int>> result;
  for (auto& buf : found) {
    result.insert(result.end(), buf.begin(), buf.end());
  }
  AppendEmptyRecordPairs(index, &result);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::pair<int, int>> PrefixFilterJoin(const Table& table,
                                                  double tau) {
  FeatureCache features(table);
  return PrefixFilterJoin(features, tau);
}

}  // namespace power
