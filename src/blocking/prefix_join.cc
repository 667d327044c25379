#include "blocking/prefix_join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "blocking/signature_filter.h"
#include "sim/simd_kernels.h"
#include "util/check.h"
#include "util/parallel.h"

namespace power {
namespace {

// Processing-order positions probed per pool task. Chunk boundaries depend
// only on the record count, so the per-chunk buffers concatenate to the same
// vector at any thread count.
constexpr int64_t kProbeGrain = 64;

// The join's index, built once and shared read-only by every probe.
// Records are addressed by their position in the processing order.
struct PrefixIndex {
  double tau = 0.0;
  /// Position -> record id. The processing order is increasing token
  /// count, ties by id: the index-nested-loop join is only sound when a
  /// probe sees records no longer than itself, and a posting list that
  /// holds ascending positions lets each probe stop at its own position.
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
  /// Per position: the record's token signature (a copy of the cache's,
  /// laid out beside the ranks so a probe's gather stays local).
  std::vector<TokenSignature> signatures;
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

// 0 .. n-1 ordered by size(i), ties ascending: a counting sort.
template <typename Size>
std::vector<int> CountingOrder(size_t n, Size size) {
  size_t max_size = 0;
  for (size_t i = 0; i < n; ++i) max_size = std::max(max_size, size(i));
  std::vector<size_t> next(max_size + 2, 0);
  for (size_t i = 0; i < n; ++i) ++next[size(i) + 1];
  for (size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[next[size(i)]++] = static_cast<int>(i);
  return order;
}

// The whole index of `features` at `tau`, in the steps below.
PrefixIndex BuildPrefixIndex(const FeatureCache& features, double tau) {
  POWER_CHECK(tau > 0.0 && tau <= 1.0);
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

  // 3. Processing order. Interning and ranking are bijections, so a span's
  //    size is its rank-space size.
  index.order = CountingOrder(
      n, [&](size_t i) { return features.RecordTokenIds(i).size(); });

  // 4. Rank-space tokens, prefix lengths and signatures, laid out in
  //    processing order.
  index.token_begin.resize(n + 1, 0);
  index.prefix_len.resize(n, 0);
  index.signatures.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const auto record = static_cast<size_t>(index.order[k]);
    const size_t len = features.RecordTokenIds(record).size();
    index.token_begin[k + 1] = index.token_begin[k] + len;
    if (len > 0) {
      const size_t prefix = len - static_cast<size_t>(std::ceil(tau * len)) + 1;
      index.prefix_len[k] = std::min(prefix, len);
    }
    index.signatures[k] = features.RecordSignature(record);
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

  // 5. Prefix posting lists: their lengths, prefix-summed into offsets, then
  //    the positions scattered in ascending order, so every list comes out
  //    sorted.
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
  index.postings.resize(index.posting_begin.back());
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

// One chunk's counts, folded into CandidateStats in chunk order.
struct ProbeCounts {
  uint64_t posting_visits = 0;
  uint64_t signature_checks = 0;
  uint64_t verifications = 0;
};

// Probes positions [begin, end): each record is joined against the records
// before it in the processing order that share a prefix token. Appends every
// verified pair (min, max) to *out and returns the range's counts.
// Token-less records have an empty prefix and never match here (see
// AppendEmptyRecordPairs).
ProbeCounts ProbeRange(const PrefixIndex& index, int begin, int end,
                       std::vector<std::pair<int, int>>* out) {
  ProbeCounts counts;
  // Candidates are no longer than the probe, and the probes ascend in
  // length, so the last probe's length bounds every candidate's.
  SignatureLimits limits(index.Tokens(static_cast<size_t>(end - 1)).size(),
                         index.tau);
  // Probe-stamped candidate dedup. A probe's candidates lie at positions
  // before its own, so positions [0, end) cover every candidate.
  std::vector<int> last_seen(static_cast<size_t>(end), -1);
  // The probe's ranks, marked at its first candidate to verify.
  TokenMarks marks(index.posting_begin.size() - 1);
  std::vector<int> candidates;
  std::vector<uint16_t> distances;
  for (int k = begin; k < end; ++k) {
    const std::span<const int32_t> tx = index.Tokens(static_cast<size_t>(k));
    const size_t len_x = tx.size();
    const size_t prefix_x = index.prefix_len[static_cast<size_t>(k)];
    const int x = index.order[static_cast<size_t>(k)];
    limits.Reset(len_x);
    candidates.clear();
    for (size_t p = 0; p < prefix_x; ++p) {
      for (int q : index.Postings(tx[p])) {
        if (q >= k) break;
        ++counts.posting_visits;
        if (last_seen[static_cast<size_t>(q)] == k) continue;
        last_seen[static_cast<size_t>(q)] = k;
        candidates.push_back(q);
      }
    }
    // Signature filter over the probe's candidates, in the order the
    // posting lists offered them. It implies the length filter
    // (|y| >= tau * |x|): the bound is capped at the shorter record's size,
    // and a separate length check in front measured no faster.
    distances.resize(candidates.size());
    GatherSignatureDistances(index.signatures[static_cast<size_t>(k)],
                             index.signatures.data(), candidates.data(),
                             candidates.size(), distances.data());
    counts.signature_checks += candidates.size();
    bool marked = false;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const int q = candidates[c];
      const std::span<const int32_t> ty = index.Tokens(static_cast<size_t>(q));
      const size_t len_y = ty.size();
      if (!limits.MayPass(len_y, distances[c])) continue;
      // Verification: the exact record-level Jaccard prune decision, the
      // same predicate and marked count as AllPairsCandidates — not a
      // cross-multiplied epsilon rewrite that could disagree with it on the
      // tau boundary. Ranking is a bijection, so the rank-space count is
      // the token-space one.
      if (!marked) {
        marks.Mark(tx);
        marked = true;
      }
      ++counts.verifications;
      if (RecordJaccardAtLeast(marks.Count(ty), len_x, len_y, index.tau)) {
        const int y = index.order[static_cast<size_t>(q)];
        out->emplace_back(std::min(x, y), std::max(x, y));
      }
    }
    if (marked) marks.Unmark(tx);
  }
  return counts;
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

std::vector<int> ClassesByTokenCount(const FeatureCache& features) {
  return CountingOrder(features.num_classes(), [&](size_t c) {
    return features.RecordTokenIds(RecordClass{static_cast<uint32_t>(c)})
        .size();
  });
}

std::vector<std::pair<int, int>> PrefixFilterJoin(const FeatureCache& features,
                                                  double tau,
                                                  CandidateStats* stats) {
  const PrefixIndex index = BuildPrefixIndex(features, tau);
  const int64_t n = static_cast<int64_t>(index.order.size());
  const size_t chunks = NumChunks(0, n, kProbeGrain);
  std::vector<std::vector<std::pair<int, int>>> found(chunks);
  std::vector<ProbeCounts> counts(chunks);
  ParallelForChunked(0, n, kProbeGrain,
                     [&](size_t chunk, int64_t begin, int64_t end) {
                       counts[chunk] =
                           ProbeRange(index, static_cast<int>(begin),
                                      static_cast<int>(end), &found[chunk]);
                     });
  std::vector<std::pair<int, int>> result;
  for (auto& buf : found) {
    result.insert(result.end(), buf.begin(), buf.end());
  }
  AppendEmptyRecordPairs(index, &result);
  std::sort(result.begin(), result.end());
  if (stats != nullptr) {
    stats->posting_visits = 0;
    stats->signature_checks = 0;
    stats->verifications = 0;
    for (const ProbeCounts& c : counts) {
      stats->posting_visits += c.posting_visits;
      stats->signature_checks += c.signature_checks;
      stats->verifications += c.verifications;
    }
  }
  return result;
}

}  // namespace power
