#ifndef POWER_GROUP_GREEDY_GROUPER_H_
#define POWER_GROUP_GREEDY_GROUPER_H_

#include "group/group.h"

namespace power {

/// Appendix A "Vertex Grouping: Greedy": enumerates maximal groups (per
/// attribute via sorted sliding windows, joined across attributes by set
/// intersection — Theorem 3), then greedily covers the vertex set by
/// repeatedly taking the largest remaining group. ln|V| approximation of the
/// NP-hard optimum (Theorem 1); exponential-ish in m and slow on large
/// inputs (the paper could not run it on ACMPub within 10 hours). Group
/// aborts, naming the attribute and the count, when one attribute's join
/// would take more than a fixed number of merge steps (1G, a few seconds;
/// Cora needs at most 119M), rather than run for minutes: use Split there.
class GreedyGrouper : public Grouper {
 public:
  using Grouper::Group;
  const char* name() const override { return "Greedy"; }
  std::vector<VertexGroup> Group(SimilarityRows sims,
                                 double epsilon) const override;
};

}  // namespace power

#endif  // POWER_GROUP_GREEDY_GROUPER_H_
