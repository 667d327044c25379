#ifndef POWER_GROUP_SPLIT_GROUPER_H_
#define POWER_GROUP_SPLIT_GROUPER_H_

#include "group/group.h"

namespace power {

/// Algorithm 2 "Vertex Grouping: Split": recursively halves, per attribute,
/// every node whose value range exceeds ε; leaves are the groups. The tree
/// is built over the distinct rows of the SimilarityRows view (vertices with
/// bit-identical vectors always share a leaf), then one ascending pass puts
/// every vertex in its row's leaf: O(|V| + |R| log(1/ε)) for |R| distinct
/// rows, and the fast choice in practice (Appendix E.1.2). The groups equal
/// those of the same tree over every vertex: members, bounds and order.
class SplitGrouper : public Grouper {
 public:
  using Grouper::Group;
  const char* name() const override { return "Split"; }
  std::vector<VertexGroup> Group(SimilarityRows sims,
                                 double epsilon) const override;
};

}  // namespace power

#endif  // POWER_GROUP_SPLIT_GROUPER_H_
