#ifndef POWER_BLOCKING_PAIR_GENERATOR_H_
#define POWER_BLOCKING_PAIR_GENERATOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/feature_cache.h"

namespace power {

/// Candidate generation method selector used by the pipeline config. Both
/// methods return the *same sorted pair vector* (the differential tests
/// prove it), so the choice changes only wall time, never results.
enum class CandidateMethod {
  /// The all-pairs scan over record classes (AllPairsCandidates): the
  /// default, and the faster method on every benchmarked table shape.
  kAllPairs,
  /// The prefix join (PrefixFilterJoin). It wins only where prefixes are
  /// short: a long-tail vocabulary at high tau (DESIGN.md §14).
  kPrefixJoin,
};

const char* CandidateMethodName(CandidateMethod method);

/// GenerateCandidates' options. It has none. Kept so that callers passing
/// CandidateOptions{} keep compiling.
struct CandidateOptions {};

/// What GenerateCandidates did, as exact counts: they depend only on the
/// table, tau and the method, never on the thread count or SIMD level.
struct CandidateStats {
  /// Pairs whose signatures were compared, and how many of them then ran
  /// the exact intersection (verifications <= signature_checks). The scan
  /// compares record classes, so it counts C(C-1)/2 class pairs for C
  /// classes (FeatureCache::num_classes); the join counts record pairs.
  uint64_t signature_checks = 0;
  uint64_t verifications = 0;
  /// Posting-list entries the join's probes visited (0 for the scan):
  /// Σ L(L-1)/2 over the lengths L of its prefix posting lists, since each
  /// probe walks a list only up to its own position.
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

/// The message GenerateCandidates aborts with when tau is outside (0, 1]
/// (NaN included), or an empty string when tau can run.
std::string CandidateThresholdError(double tau);

/// Dispatches to AllPairsCandidates or PrefixFilterJoin by `method`.
/// Aborts with CandidateThresholdError's message unless tau is in (0, 1],
/// so both methods refuse the same thresholds at every table size. Reports
/// the method's counts via `stats` (optional) and, when the POWER_VERBOSE
/// environment variable is set non-empty (and not "0"), on stderr.
std::vector<std::pair<int, int>> GenerateCandidates(
    const FeatureCache& features, double tau, CandidateMethod method,
    const CandidateOptions& options = {}, CandidateStats* stats = nullptr);

}  // namespace power

#endif  // POWER_BLOCKING_PAIR_GENERATOR_H_
