#ifndef POWER_GROUP_GROUP_H_
#define POWER_GROUP_GROUP_H_

#include <cstddef>
#include <vector>

namespace power {

/// A vertex group (Definition 3): a set of pair-vertices whose similarity
/// vectors differ by at most ε on every attribute. `lower`/`upper` are the
/// per-attribute min/max over members (the paper's g^k.l / g^k.u).
struct VertexGroup {
  std::vector<int> members;
  std::vector<double> lower;
  std::vector<double> upper;
};

/// Recomputes lower/upper from the members' similarity vectors.
VertexGroup MakeGroup(const std::vector<std::vector<double>>& sims,
                      std::vector<int> members);

/// True iff the ε-constraint of Definition 3 holds for this member set.
bool IsValidGroup(const std::vector<std::vector<double>>& sims,
                  const std::vector<int>& members, double epsilon);

/// True iff the grouping is a partition of {0..n-1}: complete and disjoint
/// (Definition 4).
bool IsPartition(const std::vector<VertexGroup>& groups, size_t n);

/// One singleton group per vertex — the "no grouping" configuration expressed
/// in the grouped representation so the rest of the pipeline is uniform.
std::vector<VertexGroup> SingletonGroups(
    const std::vector<std::vector<double>>& sims);

/// A vertex-grouping algorithm (§4.2). Group aborts unless epsilon >= 0.
class Grouper {
 public:
  virtual ~Grouper() = default;
  virtual const char* name() const = 0;
  virtual std::vector<VertexGroup> Group(
      const std::vector<std::vector<double>>& sims, double epsilon) const = 0;
};

}  // namespace power

#endif  // POWER_GROUP_GROUP_H_
