#ifndef POWER_BLOCKING_PREFIX_JOIN_H_
#define POWER_BLOCKING_PREFIX_JOIN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "sim/feature_cache.h"

namespace power {

/// The first half of the prefix join's index: the token ranking, every
/// record's rank-space tokens laid out in processing order, the prefix
/// lengths, and the length of every prefix posting list. That is all
/// CandidateMethod::kAuto needs to price the join (`work`), and the join
/// builds the rest of its index on it when it runs.
struct PrefixJoinPlan {
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
  /// CSR offsets over ranks: the positions whose prefix holds rank r will
  /// fill postings[posting_begin[r] .. posting_begin[r + 1]).
  std::vector<size_t> posting_begin;
  /// Σ L(L-1)/2 over the posting lists' lengths L: the entries the probes
  /// visit (each probe walks a list only up to its own position).
  uint64_t work = 0;

  std::span<const int32_t> Tokens(size_t k) const {
    return std::span<const int32_t>(ranks).subspan(
        token_begin[k], token_begin[k + 1] - token_begin[k]);
  }
};

/// The record ids by increasing token count, ties by id: the join's
/// processing order.
std::vector<int> OrderByTokenCount(const FeatureCache& features);

/// The record class ids by increasing token count, ties by id: the
/// all-pairs scan's order.
std::vector<int> ClassesByTokenCount(const FeatureCache& features);

/// Ranks the tokens and counts the prefix posting lists. Requires tau in
/// (0, 1].
PrefixJoinPlan PlanPrefixJoin(const FeatureCache& features, double tau);

/// Set-similarity self-join: returns all record pairs whose record-level
/// word-token Jaccard similarity is >= tau, without enumerating the quadratic
/// pair space.
///
/// This is the substrate the paper needs at ACMPub scale (66,879 records ->
/// 2.2B raw pairs, pruned to 204K). Implements the AllPairs/PPJoin family of
/// filters over the cache's record-level token-id spans and shared
/// dictionary:
///  - global-frequency token ordering (rare tokens first),
///  - prefix filter: records can only reach tau if they share a token within
///    the first |x| - ceil(tau*|x|) + 1 tokens,
///  - signature filter (SignatureMayReach) on the records' 256-bit token
///    signatures, which implies the length filter |y| >= tau * |x|,
///  - verification of the exact Jaccard, counted against the probe's
///    marked ranks (TokenMarks).
///
/// The prefix index is built once, on `plan`; the probes then run on the
/// thread pool over ranges of the processing order. The result is sorted
/// and identical, byte for byte, to AllPairsCandidates(features, tau) at any
/// thread count. Fills the posting_visits, signature_checks and
/// verifications counts of `stats` when given.
std::vector<std::pair<int, int>> PrefixFilterJoin(const FeatureCache& features,
                                                  PrefixJoinPlan plan,
                                                  CandidateStats* stats);

/// Plans and joins. Requires tau in (0, 1].
std::vector<std::pair<int, int>> PrefixFilterJoin(
    const FeatureCache& features, double tau,
    CandidateStats* stats = nullptr);

}  // namespace power

#endif  // POWER_BLOCKING_PREFIX_JOIN_H_
