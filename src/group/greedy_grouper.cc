#include "group/greedy_grouper.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "util/check.h"

namespace power {
namespace {

// The most merge steps one attribute's join may take, counting |c| + |w|
// for every (candidate, window) pair it intersects: about 4 s at 4 ns a
// step. The join grows combinatorially where windows overlap in every
// attribute, and each intersection costs as much as its two member lists:
// on 2,000 random 4-attribute rows at ε 0.05, joining attribute 2 (counted
// from 0) takes 2.96G steps, and on bench_grouping's ACMPub case (180,774
// pairs) at ε 0.05 attribute 1 takes 1.04G and attribute 2 15.3G, where
// Cora at ε 0.2, the largest case Greedy runs on there, takes at most 119M.
constexpr double kMaxJoinSteps = 1e9;

// Summed member count of `sets`, as a double: the step count it feeds can
// pass 2^64 on large inputs, and only its comparison with the bound counts.
double TotalMembers(const std::vector<std::vector<int>>& sets) {
  double total = 0.0;
  for (const std::vector<int>& set : sets) {
    total += static_cast<double>(set.size());
  }
  return total;
}

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
  size_t t = 0;         // last member of window i; never moves back as i grows
  for (size_t i = 0; i < order.size(); ++i) {
    t = std::max(t, i);
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
  //    A joined candidate is kept the first time its member set appears:
  //    `seen` holds indices into `joined`, hashed and compared by members.
  std::vector<std::vector<int>> candidates = MaximalGroups1d(sims, 0, epsilon);
  for (size_t k = 1; k < m; ++k) {
    std::vector<std::vector<int>> windows = MaximalGroups1d(sims, k, epsilon);
    const double steps =
        static_cast<double>(windows.size()) * TotalMembers(candidates) +
        static_cast<double>(candidates.size()) * TotalMembers(windows);
    if (steps > kMaxJoinSteps) {
      std::fprintf(stderr,
                   "power: Greedy grouping refuses to join attribute %zu: "
                   "%zu candidate groups x %zu windows take %.0f merge steps "
                   "(limit %.0f); use Split grouping on this input\n",
                   k, candidates.size(), windows.size(), steps,
                   kMaxJoinSteps);
      std::abort();
    }
    std::vector<std::vector<int>> joined;
    auto hash = [&joined](size_t i) { return HashMembers(joined[i]); };
    auto same = [&joined](size_t a, size_t b) {
      return joined[a] == joined[b];
    };
    std::unordered_set<size_t, decltype(hash), decltype(same)> seen(
        0, hash, same);
    for (const auto& c : candidates) {
      for (const auto& w : windows) {
        std::vector<int> inter = Intersect(c, w);
        if (inter.empty()) continue;
        joined.push_back(std::move(inter));
        if (!seen.insert(joined.size() - 1).second) joined.pop_back();
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
