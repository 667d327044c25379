#include "group/greedy_grouper.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "util/check.h"

namespace power {
namespace {

// Maximal 1-d windows: sorts vertices by attribute k descending and emits
// every window [i, t] with value span <= epsilon that is not contained in a
// previous window. Members are returned as sorted vertex-id vectors.
std::vector<std::vector<int>> MaximalGroups1d(SimilarityRows sims, size_t k,
                                              double epsilon) {
  auto at = [&](int v) { return sims.row(static_cast<size_t>(v))[k]; };
  std::vector<int> order(sims.n);
  for (size_t v = 0; v < sims.n; ++v) order[v] = static_cast<int>(v);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (at(a) != at(b)) return at(a) > at(b);
    return a < b;
  });
  std::vector<std::vector<int>> windows;
  size_t prev_end = 0;  // exclusive end of the previous window
  for (size_t i = 0; i < order.size(); ++i) {
    size_t t = i;
    while (t + 1 < order.size() &&
           at(order[i]) - at(order[t + 1]) <= epsilon + 1e-12) {
      ++t;
    }
    // The window [i, t] is maximal iff it extends past every earlier window.
    if (t + 1 > prev_end) {
      std::vector<int> members(order.begin() + i, order.begin() + t + 1);
      std::sort(members.begin(), members.end());
      windows.push_back(std::move(members));
      prev_end = t + 1;
    }
  }
  return windows;
}

std::vector<int> Intersect(const std::vector<int>& a,
                           const std::vector<int>& b) {
  std::vector<int> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

uint64_t HashMembers(const std::vector<int>& members) {
  uint64_t h = 1469598103934665603ULL;
  for (int v : members) {
    h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::vector<VertexGroup> GreedyGrouper::Group(SimilarityRows sims,
                                               double epsilon) const {
  POWER_CHECK(epsilon >= 0.0);
  std::vector<VertexGroup> result;
  if (sims.n == 0) return result;
  const size_t m = sims.m;

  // 1. Candidate maximal groups: join the per-attribute maximal windows
  //    (Theorem 3: the join contains every maximal group).
  std::vector<std::vector<int>> candidates = MaximalGroups1d(sims, 0, epsilon);
  for (size_t k = 1; k < m; ++k) {
    std::vector<std::vector<int>> windows = MaximalGroups1d(sims, k, epsilon);
    std::vector<std::vector<int>> joined;
    std::unordered_set<uint64_t> seen;
    for (const auto& c : candidates) {
      for (const auto& w : windows) {
        std::vector<int> inter = Intersect(c, w);
        if (inter.empty()) continue;
        if (seen.insert(HashMembers(inter)).second) {
          joined.push_back(std::move(inter));
        }
      }
    }
    candidates = std::move(joined);
  }

  // 2. Greedy set cover: take the largest candidate, remove its vertices
  //    everywhere, repeat. Subsets of valid groups stay valid groups, so the
  //    shrunken candidates remain usable.
  std::vector<bool> covered(sims.n, false);
  size_t remaining = sims.n;
  while (remaining > 0) {
    size_t best = 0;
    size_t best_size = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      size_t live = 0;
      for (int v : candidates[c]) {
        if (!covered[v]) ++live;
      }
      if (live > best_size) {
        best_size = live;
        best = c;
      }
    }
    POWER_CHECK_MSG(best_size > 0,
                    "candidate maximal groups must cover all vertices");
    std::vector<int> members;
    for (int v : candidates[best]) {
      if (!covered[v]) {
        members.push_back(v);
        covered[v] = true;
      }
    }
    remaining -= members.size();
    result.push_back(MakeGroup(sims, std::move(members)));
  }
  return result;
}

}  // namespace power
