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

// The join's index, built once on the plan and shared read-only by every
// probe. Records are addressed by their position in the processing order.
struct PrefixIndex {
  PrefixJoinPlan plan;
  /// Per position: the record's token signature (a copy of the cache's,
  /// laid out beside the ranks so a probe's gather stays local).
  std::vector<TokenSignature> signatures;
  /// CSR over ranks: the positions whose prefix holds rank r are
  /// postings[plan.posting_begin[r] .. plan.posting_begin[r + 1]),
  /// ascending.
  std::vector<int> postings;

  std::span<const int> Postings(int32_t rank) const {
    const size_t r = static_cast<size_t>(rank);
    return std::span<const int>(postings).subspan(
        plan.posting_begin[r],
        plan.posting_begin[r + 1] - plan.posting_begin[r]);
  }
};

// Scatters the prefix postings in ascending position, so every list comes
// out sorted, and copies the signatures into processing order.
PrefixIndex BuildPrefixIndex(const FeatureCache& features,
                             PrefixJoinPlan plan) {
  PrefixIndex index{std::move(plan), {}, {}};
  const PrefixJoinPlan& p = index.plan;
  const size_t n = p.order.size();
  index.signatures.resize(n);
  for (size_t k = 0; k < n; ++k) {
    index.signatures[k] =
        features.RecordSignature(static_cast<size_t>(p.order[k]));
  }
  index.postings.resize(p.posting_begin.back());
  std::vector<size_t> fill(p.posting_begin.begin(), p.posting_begin.end() - 1);
  for (size_t k = 0; k < n; ++k) {
    const std::span<const int32_t> t = p.Tokens(k);
    for (size_t q = 0; q < p.prefix_len[k]; ++q) {
      index.postings[fill[static_cast<size_t>(t[q])]++] = static_cast<int>(k);
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
  const PrefixJoinPlan& plan = index.plan;
  ProbeCounts counts;
  // Candidates are no longer than the probe, and the probes ascend in
  // length, so the last probe's length bounds every candidate's.
  SignatureLimits limits(plan.Tokens(static_cast<size_t>(end - 1)).size(),
                         plan.tau);
  // Probe-stamped candidate dedup. A probe's candidates lie at positions
  // before its own, so positions [0, end) cover every candidate.
  std::vector<int> last_seen(static_cast<size_t>(end), -1);
  // The probe's ranks, marked at its first candidate to verify.
  TokenMarks marks(plan.posting_begin.size() - 1);
  std::vector<int> candidates;
  std::vector<uint16_t> distances;
  for (int k = begin; k < end; ++k) {
    const std::span<const int32_t> tx = plan.Tokens(static_cast<size_t>(k));
    const size_t len_x = tx.size();
    const size_t prefix_x = plan.prefix_len[static_cast<size_t>(k)];
    const int x = plan.order[static_cast<size_t>(k)];
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
      const std::span<const int32_t> ty = plan.Tokens(static_cast<size_t>(q));
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
      if (RecordJaccardAtLeast(marks.Count(ty), len_x, len_y, plan.tau)) {
        const int y = plan.order[static_cast<size_t>(q)];
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
void AppendEmptyRecordPairs(const PrefixJoinPlan& plan,
                            std::vector<std::pair<int, int>>* out) {
  if (!RecordJaccardAtLeast(0, 0, 0, plan.tau)) return;
  size_t empty = 0;
  while (empty < plan.order.size() && plan.Tokens(empty).empty()) ++empty;
  for (size_t a = 0; a < empty; ++a) {
    for (size_t b = a + 1; b < empty; ++b) {
      out->emplace_back(plan.order[a], plan.order[b]);
    }
  }
}

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

}  // namespace

std::vector<int> OrderByTokenCount(const FeatureCache& features) {
  return CountingOrder(features.num_records(), [&](size_t i) {
    return features.RecordTokenIds(i).size();
  });
}

std::vector<int> ClassesByTokenCount(const FeatureCache& features) {
  return CountingOrder(features.num_classes(), [&](size_t c) {
    return features.RecordTokenIds(RecordClass{static_cast<uint32_t>(c)})
        .size();
  });
}

PrefixJoinPlan PlanPrefixJoin(const FeatureCache& features, double tau) {
  POWER_CHECK(tau > 0.0 && tau <= 1.0);
  PrefixJoinPlan plan;
  plan.tau = tau;
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
  plan.order = OrderByTokenCount(features);

  // 4. Rank-space tokens and prefix lengths, laid out in processing order.
  plan.token_begin.resize(n + 1, 0);
  plan.prefix_len.resize(n, 0);
  for (size_t k = 0; k < n; ++k) {
    const size_t len =
        features.RecordTokenIds(static_cast<size_t>(plan.order[k])).size();
    plan.token_begin[k + 1] = plan.token_begin[k] + len;
    if (len > 0) {
      const size_t prefix = len - static_cast<size_t>(std::ceil(tau * len)) + 1;
      plan.prefix_len[k] = std::min(prefix, len);
    }
  }
  plan.ranks.resize(plan.token_begin[n]);
  for (size_t k = 0; k < n; ++k) {
    auto first = plan.ranks.begin() +
                 static_cast<std::ptrdiff_t>(plan.token_begin[k]);
    auto out = first;
    for (int32_t id :
         features.RecordTokenIds(static_cast<size_t>(plan.order[k]))) {
      *out++ = rank[static_cast<size_t>(id)];
    }
    std::sort(first, out);
  }

  // 5. Prefix posting-list lengths, prefix-summed into offsets, and the
  //    probes' visits.
  plan.posting_begin.assign(used.size() + 1, 0);
  for (size_t k = 0; k < n; ++k) {
    const std::span<const int32_t> t = plan.Tokens(k);
    for (size_t p = 0; p < plan.prefix_len[k]; ++p) {
      ++plan.posting_begin[static_cast<size_t>(t[p]) + 1];
    }
  }
  for (size_t r = 0; r < used.size(); ++r) {
    const uint64_t len = plan.posting_begin[r + 1];
    if (len > 1) plan.work += len * (len - 1) / 2;
    plan.posting_begin[r + 1] += plan.posting_begin[r];
  }
  return plan;
}

std::vector<std::pair<int, int>> PrefixFilterJoin(const FeatureCache& features,
                                                  PrefixJoinPlan plan,
                                                  CandidateStats* stats) {
  const PrefixIndex index = BuildPrefixIndex(features, std::move(plan));
  const int64_t n = static_cast<int64_t>(index.plan.order.size());
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
  AppendEmptyRecordPairs(index.plan, &result);
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

std::vector<std::pair<int, int>> PrefixFilterJoin(const FeatureCache& features,
                                                  double tau,
                                                  CandidateStats* stats) {
  return PrefixFilterJoin(features, PlanPrefixJoin(features, tau), stats);
}

}  // namespace power
