#ifndef POWER_SIM_SIMILARITY_MATRIX_H_
#define POWER_SIM_SIMILARITY_MATRIX_H_

#include <vector>

#include "data/table.h"
#include "sim/feature_cache.h"
#include "sim/pair.h"

namespace power {

/// Computes the per-attribute similarity vector of a candidate pair using the
/// similarity function configured on each attribute (paper §3.1). Components
/// below `component_floor` (the per-attribute bound τ in Table 2's "if
/// s_ij^k < τ we set s_ij^k = 0") are clamped to 0.
///
/// This overload is the legacy string path: it tokenizes/lowercases the raw
/// values on every call. Kept as the differential reference for the cached
/// path below (tests/feature_cache_test.cc); batch work should build a
/// FeatureCache instead.
SimilarPair ComputePairSimilarity(const Table& table, int i, int j,
                                  double component_floor);

/// Cached-feature variant: byte-identical output, no per-call tokenization.
SimilarPair ComputePairSimilarity(const FeatureCache& features, int i, int j,
                                  double component_floor);

/// Computes the similarity vectors of a batch of candidate pairs over cached
/// features into one table, row p for candidates[p] (ids ordered i < j).
/// The pooled loop writes each row in place; edit-similarity columns come
/// from the batched Myers kernel. Every value is bit-identical to the
/// single-pair ComputePairSimilarity at any thread count.
SimilarityTable ComputeSimilarityTable(
    const FeatureCache& features,
    const std::vector<std::pair<int, int>>& candidates,
    double component_floor);

/// ComputeSimilarityTable unpacked into one SimilarPair per row.
std::vector<SimilarPair> ComputePairSimilarities(
    const FeatureCache& features,
    const std::vector<std::pair<int, int>>& candidates,
    double component_floor);

/// Convenience wrapper: builds a FeatureCache for `table` and runs the
/// cached batch. Callers that also generate candidates should build the
/// cache themselves and share it (see PowerFramework::Run).
std::vector<SimilarPair> ComputePairSimilarities(
    const Table& table, const std::vector<std::pair<int, int>>& candidates,
    double component_floor);

/// Packs pairs into a table, bit for bit (the width of the first pair; every
/// pair must have it).
SimilarityTable PackSimilarPairs(const std::vector<SimilarPair>& pairs);

/// Record-level similarity used for pruning (paper §7.1): word-token Jaccard
/// over the concatenation of all attribute values. Legacy string path (it
/// concatenates and tokenizes per call) — the differential reference for the
/// cached overload below.
double RecordLevelJaccard(const Table& table, int i, int j);

/// Cached-feature variant: Jaccard of the two record-level token-id spans.
double RecordLevelJaccard(const FeatureCache& features, int i, int j);

}  // namespace power

#endif  // POWER_SIM_SIMILARITY_MATRIX_H_
