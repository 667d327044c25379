#ifndef POWER_GROUP_GROUP_H_
#define POWER_GROUP_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/pair.h"

namespace power {

/// A vertex group (Definition 3): a set of pair-vertices whose similarity
/// vectors differ by at most ε on every attribute. `lower`/`upper` are the
/// per-attribute min/max over members (the paper's g^k.l / g^k.u).
struct VertexGroup {
  std::vector<int> members;
  std::vector<double> lower;
  std::vector<double> upper;
};

/// Sorts the members and computes lower/upper from their rows.
VertexGroup MakeGroup(SimilarityRows sims, std::vector<int> members);

/// Nested vectors, all of one width, interned as a SimilarityTable's rows
/// are: each distinct row once, in first-occurrence order, and one row index
/// per vector.
struct PackedRows {
  std::vector<double> distinct;  // num_distinct * m, row-major
  size_t num_distinct = 0;
  std::vector<uint32_t> row_of;  // one per vector
  size_t m = 0;

  SimilarityRows rows() const {
    return {distinct.data(), row_of.data(), row_of.size(), m, num_distinct};
  }
};

/// Packs nested vectors into rows through RowInterner: the one way a nested
/// entry point, a test or a bench reaches the row API.
PackedRows PackRows(const std::vector<std::vector<double>>& sims);

/// True iff the ε-constraint of Definition 3 holds for this member set.
bool IsValidGroup(SimilarityRows sims, const std::vector<int>& members,
                  double epsilon);

/// True iff the grouping is a partition of {0..n-1}: complete and disjoint
/// (Definition 4).
bool IsPartition(const std::vector<VertexGroup>& groups, size_t n);

/// One singleton group per vertex — the "no grouping" configuration expressed
/// in the grouped representation so the rest of the pipeline is uniform.
std::vector<VertexGroup> SingletonGroups(SimilarityRows sims);

/// A vertex-grouping algorithm (§4.2). Group aborts unless epsilon >= 0.
class Grouper {
 public:
  virtual ~Grouper() = default;
  virtual const char* name() const = 0;
  virtual std::vector<VertexGroup> Group(SimilarityRows sims,
                                         double epsilon) const = 0;
  /// Packing adapter for nested vectors: identical groups to the row entry.
  /// Subclasses re-export it with `using Grouper::Group;`.
  std::vector<VertexGroup> Group(const std::vector<std::vector<double>>& sims,
                                 double epsilon) const;
};

}  // namespace power

#endif  // POWER_GROUP_GROUP_H_
