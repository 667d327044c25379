#ifndef POWER_BLOCKING_PREFIX_JOIN_H_
#define POWER_BLOCKING_PREFIX_JOIN_H_

#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "sim/feature_cache.h"

namespace power {

/// The record class ids by increasing token count, ties by id: the
/// all-pairs scan's order.
std::vector<int> ClassesByTokenCount(const FeatureCache& features);

/// Set-similarity self-join: returns all record pairs whose record-level
/// word-token Jaccard similarity is >= tau, without enumerating the quadratic
/// pair space.
///
/// Implements the AllPairs/PPJoin family of filters over the cache's
/// record-level token-id spans and shared dictionary:
///  - global-frequency token ordering (rare tokens first),
///  - prefix filter: records can only reach tau if they share a token within
///    the first |x| - ceil(tau*|x|) + 1 tokens,
///  - signature filter (SignatureMayReach) on the records' 256-bit token
///    signatures, which implies the length filter |y| >= tau * |x|,
///  - verification of the exact Jaccard, counted against the probe's
///    marked ranks (TokenMarks).
///
/// The prefix index is built once; the probes then run on the thread pool
/// over ranges of the processing order. The result is sorted and identical,
/// byte for byte, to AllPairsCandidates(features, tau) at any thread count.
/// Only a vocabulary whose prefixes are short, a long tail at high tau,
/// makes it faster than the scan (DESIGN.md §14). Fills the posting_visits,
/// signature_checks and verifications counts of `stats` when given.
/// Requires tau in (0, 1].
std::vector<std::pair<int, int>> PrefixFilterJoin(
    const FeatureCache& features, double tau,
    CandidateStats* stats = nullptr);

}  // namespace power

#endif  // POWER_BLOCKING_PREFIX_JOIN_H_
