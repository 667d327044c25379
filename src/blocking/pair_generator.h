#ifndef POWER_BLOCKING_PAIR_GENERATOR_H_
#define POWER_BLOCKING_PAIR_GENERATOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/feature_cache.h"

namespace power {

/// Candidate generation method selector used by the pipeline config.
enum class CandidateMethod {
  kAllPairs,
  kPrefixJoin,
  /// Dispatch by counted work: plan the join (rank the tokens, count the
  /// prefix posting lists) and take it only when
  /// 16 × join_work < scan_work (see CandidateStats and
  /// AutoCandidateMethod), else scan. The factor is fitted on six measured
  /// tables (DESIGN.md §14): the bit-sliced scan decides 256 pairs per step
  /// and skips the token counts the length filter rules out, so a posting
  /// visit, index build included, costs 3–38 of the scan's pairs. Safe as a
  /// blanket default because the two methods return the *same sorted pair
  /// vector* (the differential tests prove it), so the dispatch only ever
  /// changes wall time, never results.
  kAuto,
};

const char* CandidateMethodName(CandidateMethod method);

/// GenerateCandidates' options. It has none: kAuto's choice is counted, not
/// tuned. Kept so that callers passing CandidateOptions{} keep compiling.
struct CandidateOptions {};

/// What GenerateCandidates did, as exact counts: they depend only on the
/// table, tau and the method, never on the thread count or SIMD level.
struct CandidateStats {
  /// The method that ran — never kAuto.
  CandidateMethod resolved = CandidateMethod::kAllPairs;
  /// The two numbers kAuto compares: n(n-1)/2 over the n records, and the
  /// join's posting visits, Σ L(L-1)/2 over the lengths L of its prefix
  /// posting lists. join_work is 0 when the method is pinned to kAllPairs,
  /// which plans no join.
  uint64_t scan_work = 0;
  uint64_t join_work = 0;
  /// Pairs whose signatures were compared, and how many of them then ran
  /// the exact intersection (verifications <= signature_checks). The scan
  /// compares record classes, so it counts C(C-1)/2 class pairs for C
  /// classes (FeatureCache::num_classes); the join counts record pairs.
  uint64_t signature_checks = 0;
  uint64_t verifications = 0;
  /// Posting-list entries the join's probes visited (0 for the scan); it
  /// equals join_work whenever the join runs.
  uint64_t posting_visits = 0;
};

/// Pruning stage (paper §2.2 / §7.1): only pairs whose record-level Jaccard
/// similarity reaches `tau` are kept as graph vertices; everything below is
/// assumed non-matching without asking the crowd.
///
/// Decides all C*(C-1)/2 pairs of the cache's C record classes over their
/// record-level token-id spans, 256 at a time: the signature filter
/// (SignatureMayReach, bit-sliced in SignatureSteps) runs first, so only
/// the pairs that may pass reach the exact intersection. Each accepted class
/// pair, and each class whose identical sets reach tau, is expanded into
/// its record pairs. Fills the signature_checks and verifications counts
/// of `stats` when given.
std::vector<std::pair<int, int>> AllPairsCandidates(
    const FeatureCache& features, double tau,
    CandidateStats* stats = nullptr);

/// kAuto's rule, from the two counted works: the join when
/// 16 × join_work < scan_work, else the scan.
CandidateMethod AutoCandidateMethod(uint64_t scan_work, uint64_t join_work);

/// The message GenerateCandidates aborts with when tau is outside (0, 1]
/// (NaN included), or an empty string when tau can run.
std::string CandidateThresholdError(double tau);

/// Dispatches to AllPairsCandidates or PrefixFilterJoin by `method` (see
/// CandidateMethod::kAuto). Aborts with CandidateThresholdError's message
/// unless tau is in (0, 1], so every method refuses the same thresholds at
/// every table size. Reports the taken path and its counts via `stats`
/// (optional) and, when the POWER_VERBOSE environment variable is set
/// non-empty (and not "0"), on stderr.
std::vector<std::pair<int, int>> GenerateCandidates(
    const FeatureCache& features, double tau, CandidateMethod method,
    const CandidateOptions& options = {}, CandidateStats* stats = nullptr);

}  // namespace power

#endif  // POWER_BLOCKING_PAIR_GENERATOR_H_
