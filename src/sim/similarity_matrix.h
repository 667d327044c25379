#ifndef POWER_SIM_SIMILARITY_MATRIX_H_
#define POWER_SIM_SIMILARITY_MATRIX_H_

#include <string>
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
/// This is the string path: it runs the string similarity functions
/// (sim/similarity.h) that core/consolidation.cc uses, tokenizing and
/// lowercasing the raw values on every call. It shares no code with the
/// cached path below, which makes it the independent reference the tests
/// check every ComputeSimilarityTable row against; batch work should build a
/// FeatureCache instead.
SimilarPair ComputePairSimilarity(const Table& table, int i, int j,
                                  double component_floor);

/// Computes the similarity vectors of a batch of candidate pairs over cached
/// features into one table, pair p for candidates[p] (ids ordered i < j).
/// A row depends only on the two records' classes (FeatureCache), so in a
/// list sorted by (i, j) only the first pair of each unordered class pair
/// is filled, and every later one takes its row id; any other list is
/// filled pair by pair. The pooled loop fills the pairs that share a left
/// class as one run: each token-family column marks the left class's token
/// ids once (a byte per dictionary token) and counts each partner's ids
/// against the marks, and edit-similarity columns come from the batched
/// Myers kernel. Each distinct row is stored once, in first-occurrence pair
/// order. Every value is bit-identical to the string-path
/// ComputePairSimilarity, and the table is the same at any thread count.
SimilarityTable ComputeSimilarityTable(
    const FeatureCache& features,
    const std::vector<std::pair<int, int>>& candidates,
    double component_floor);

/// ComputeSimilarityTable unpacked into one SimilarPair per row.
std::vector<SimilarPair> ComputePairSimilarities(
    const FeatureCache& features,
    const std::vector<std::pair<int, int>>& candidates,
    double component_floor);

/// Packs pairs into a table, bit for bit, interning the rows as
/// ComputeSimilarityTable does (the width of the first pair; every pair must
/// have it).
SimilarityTable PackSimilarPairs(const std::vector<SimilarPair>& pairs);

/// Record i's word-token set over the concatenation of all its attribute
/// values, each followed by ' ': the set RecordLevelJaccard compares.
std::vector<std::string> RecordWordTokenSet(const Table& table, int i);

/// Record-level similarity used for pruning (paper §7.1): word-token Jaccard
/// over the concatenation of all attribute values. This string path
/// concatenates and tokenizes per call. It is the crowd simulators'
/// task-difficulty input: CrowdOracle::Difficulty calls it, and
/// CrowdPlatform caches each record's RecordWordTokenSet the first time a
/// question names it. That keeps a feature-cache build out of their
/// construction; the tests also use it as the reference for the cached
/// overload below.
double RecordLevelJaccard(const Table& table, int i, int j);

/// Cached-feature variant: Jaccard of the two record-level token-id spans.
double RecordLevelJaccard(const FeatureCache& features, int i, int j);

}  // namespace power

#endif  // POWER_SIM_SIMILARITY_MATRIX_H_
