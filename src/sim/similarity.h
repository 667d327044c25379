#ifndef POWER_SIM_SIMILARITY_H_
#define POWER_SIM_SIMILARITY_H_

#include <string_view>

#include "data/schema.h"

namespace power {

/// Levenshtein edit distance (insert / delete / substitute, unit costs).
/// O(|a|*|b|) time, O(min(|a|,|b|)) space.
size_t EditDistance(std::string_view a, std::string_view b);

/// Myers' bit-parallel Levenshtein distance: O(ceil(min(m,n)/64) * max(m,n))
/// time, allocation-free for min(m,n) <= 64 (thread-local scratch above).
/// Returns exactly the same integer as EditDistance on every input
/// (tests/edit_distance_fuzz_test.cc); this is what the similarity hot path
/// runs. EditDistance stays as the reference DP it is tested against.
size_t MyersEditDistance(std::string_view a, std::string_view b);

/// Edit similarity, Eq. 2: 1 - ED(a,b) / max(|a|,|b|). Both empty -> 1.
/// Case-insensitive; lowercases on the fly (no per-call string copies) and
/// computes the distance with MyersEditDistance.
double EditSimilarity(std::string_view a, std::string_view b);

/// Word-token Jaccard, Eq. 1.
double WordJaccard(std::string_view a, std::string_view b);

/// Jaccard over bigram (2-gram) sets — the paper's default (§7.1).
double BigramJaccard(std::string_view a, std::string_view b);

/// Cosine similarity over word-token sets: |A ∩ B| / sqrt(|A| * |B|).
double CosineSimilarity(std::string_view a, std::string_view b);

/// Overlap coefficient over word-token sets: |A ∩ B| / min(|A|, |B|).
/// 1 whenever one token set contains the other (useful for abbreviated
/// attribute values).
double OverlapCoefficient(std::string_view a, std::string_view b);

/// Similarity of numeric values: 1 - |a - b| / max(|a|, |b|), clamped to
/// [0, 1]; both zero -> 1. Input that is not a finite number falls back to
/// BigramJaccard (so the function is safe on mixed columns like Cora's
/// "pages", and two equal "inf" or "nan" cells score 1).
double NumericSimilarity(std::string_view a, std::string_view b);

/// The numeric parse NumericSimilarity and the feature cache share:
/// Trim + strtod, accepting only a full-token parse to a finite value.
/// Allocation-free for trimmed values up to 127 bytes (thread-local buffer
/// above that).
bool ParseNumericValue(std::string_view s, double* value);

/// Dispatches on the attribute's configured function.
double ComputeSimilarity(SimilarityFunction fn, std::string_view a,
                         std::string_view b);

}  // namespace power

#endif  // POWER_SIM_SIMILARITY_H_
