#include "group/group.h"

#include <algorithm>
#include <span>

#include "util/check.h"

namespace power {

VertexGroup MakeGroup(SimilarityRows sims, std::vector<int> members) {
  POWER_CHECK(!members.empty());
  std::sort(members.begin(), members.end());
  const size_t m = sims.m;
  VertexGroup g;
  g.lower.assign(m, 0.0);
  g.upper.assign(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    double lo = sims.row(members[0])[k];
    double hi = lo;
    for (int v : members) {
      lo = std::min(lo, sims.row(v)[k]);
      hi = std::max(hi, sims.row(v)[k]);
    }
    g.lower[k] = lo;
    g.upper[k] = hi;
  }
  g.members = std::move(members);
  return g;
}

PackedRows PackRows(const std::vector<std::vector<double>>& sims) {
  PackedRows packed;
  packed.m = sims.empty() ? 0 : sims[0].size();
  packed.row_of.reserve(sims.size());
  RowInterner interner(packed.m);
  for (const std::vector<double>& v : sims) {
    POWER_CHECK_MSG(v.size() == packed.m,
                    "every similarity vector must have one width");
    packed.row_of.push_back(interner.Intern(v.data()));
  }
  packed.num_distinct = interner.size();
  packed.distinct = interner.TakeRows();
  return packed;
}

std::vector<VertexGroup> Grouper::Group(
    const std::vector<std::vector<double>>& sims, double epsilon) const {
  const PackedRows packed = PackRows(sims);
  return Group(packed.rows(), epsilon);
}

bool IsValidGroup(SimilarityRows sims, const std::vector<int>& members,
                  double epsilon) {
  if (members.empty()) return false;
  for (size_t k = 0; k < sims.m; ++k) {
    double lo = sims.row(members[0])[k];
    double hi = lo;
    for (int v : members) {
      lo = std::min(lo, sims.row(v)[k]);
      hi = std::max(hi, sims.row(v)[k]);
    }
    if (hi - lo > epsilon + 1e-12) return false;
  }
  return true;
}

bool IsPartition(const std::vector<VertexGroup>& groups, size_t n) {
  std::vector<int> seen(n, 0);
  for (const auto& g : groups) {
    for (int v : g.members) {
      if (v < 0 || static_cast<size_t>(v) >= n) return false;
      if (++seen[v] > 1) return false;
    }
  }
  for (int count : seen) {
    if (count != 1) return false;
  }
  return true;
}

std::vector<VertexGroup> SingletonGroups(SimilarityRows sims) {
  std::vector<VertexGroup> groups;
  groups.reserve(sims.n);
  for (size_t v = 0; v < sims.n; ++v) {
    const std::span<const double> row = sims.row(v);
    VertexGroup g;
    g.members = {static_cast<int>(v)};
    g.lower.assign(row.begin(), row.end());
    g.upper = g.lower;
    groups.push_back(std::move(g));
  }
  return groups;
}

}  // namespace power
