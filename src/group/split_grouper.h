#ifndef POWER_GROUP_SPLIT_GROUPER_H_
#define POWER_GROUP_SPLIT_GROUPER_H_

#include "group/group.h"

namespace power {

/// Algorithm 2 "Vertex Grouping: Split": recursively halves, per attribute,
/// every node whose value range exceeds ε; leaves are the groups.
/// O(|V| log(1/ε)) and the fast choice in practice (Appendix E.1.2).
class SplitGrouper : public Grouper {
 public:
  using Grouper::Group;
  const char* name() const override { return "Split"; }
  std::vector<VertexGroup> Group(SimilarityRows sims,
                                 double epsilon) const override;
};

}  // namespace power

#endif  // POWER_GROUP_SPLIT_GROUPER_H_
