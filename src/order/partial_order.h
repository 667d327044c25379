#ifndef POWER_ORDER_PARTIAL_ORDER_H_
#define POWER_ORDER_PARTIAL_ORDER_H_

#include <span>

namespace power {

/// The paper's partial order on similarity vectors (§3.1, Eqs. 3-4):
///   a ⪰ b  iff  a_k >= b_k for every attribute k              (Dominates)
///   a ≻ b  iff  a ⪰ b and a_k > b_k for some k        (StrictlyDominates)
///
/// Vectors must have equal length. They are spans, so a row of a
/// SimilarityRows view and a VertexGroup bound go through one signature.
/// Comparisons use exact doubles: the similarity pipeline produces the same
/// bit pattern for equal inputs, and grouping (not fuzzy compares) is the
/// paper's mechanism for "almost equal" vectors.
bool Dominates(std::span<const double> a, std::span<const double> b);
bool StrictlyDominates(std::span<const double> a, std::span<const double> b);

/// True iff a ≻ b or b ≻ a (the vertices would be connected in the DAG).
bool Comparable(std::span<const double> a, std::span<const double> b);

/// Three-way dominance relation, computed in one pass (the builders' hot
/// path: two StrictlyDominates calls would scan the vectors twice).
enum class DomOrder {
  kDominates,    // a ≻ b
  kDominatedBy,  // b ≻ a
  kEqual,        // a == b componentwise (⪰ both ways, ≻ neither)
  kIncomparable,
};
DomOrder CompareDominance(std::span<const double> a,
                          std::span<const double> b);

/// Partial order on groups via interval bounds (§4.2, Eqs. 5-6):
/// g_i ⪰ g_j iff l_i^k >= u_j^k for all k; strict if additionally > on some
/// k. `lower`/`upper` are the groups' per-attribute min/max similarity.
bool GroupDominates(std::span<const double> lower_i,
                    std::span<const double> upper_j);
bool GroupStrictlyDominates(std::span<const double> lower_i,
                            std::span<const double> upper_j);

}  // namespace power

#endif  // POWER_ORDER_PARTIAL_ORDER_H_
