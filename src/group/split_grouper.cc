#include "group/split_grouper.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace power {

std::vector<VertexGroup> SplitGrouper::Group(SimilarityRows sims,
                                              double epsilon) const {
  POWER_CHECK(epsilon >= 0.0);
  std::vector<VertexGroup> result;
  if (sims.n == 0) return result;
  const size_t m = sims.m;

  // The tree is built over the distinct rows, not the vertices. A member's
  // child key depends only on its row, so vertices with bit-identical rows
  // never separate: the tree is a function of the set of distinct rows.
  //
  // Every node is a range [begin, end) of one permutation of the row ids,
  // holding its rows in the order its parent's split left them. The root
  // holds them ascending and every split is stable, so a node's rows ascend
  // by id, which is their first-occurrence order among the vertices. Nodes
  // are split in FIFO order, so the emitted group order is breadth-first.
  std::vector<uint32_t> perm(sims.num_rows);
  std::iota(perm.begin(), perm.end(), 0);
  std::deque<std::pair<size_t, size_t>> queue = {{0, perm.size()}};
  // key[r * stride + d] is byte d of row r's child key in its node.
  const size_t stride = (m + 7) / 8;
  std::vector<uint8_t> key(perm.size() * stride);
  std::vector<uint32_t> scratch(perm.size());
  std::vector<uint32_t> leaf_of(perm.size());
  std::array<size_t, 257> start{};
  std::vector<double> lo(m), hi(m);
  std::vector<size_t> split_dims;
  while (!queue.empty()) {
    const auto [begin, end] = queue.front();
    queue.pop_front();

    // Per-attribute value ranges of this node, folded over its rows in id
    // order. That is the order in which a fold over the node's vertices in
    // ascending order first meets each row, and meeting a row again never
    // changes a running min or max, so the bounds are bit for bit those of
    // a fold over the vertices (MakeGroup's), signed zeros included.
    const double* first = sims.data + size_t{perm[begin]} * m;
    for (size_t k = 0; k < m; ++k) lo[k] = hi[k] = first[k];
    for (size_t r = begin; r < end; ++r) {
      const double* x = sims.data + size_t{perm[r]} * m;
      for (size_t k = 0; k < m; ++k) {
        lo[k] = std::min(lo[k], x[k]);
        hi[k] = std::max(hi[k], x[k]);
      }
    }
    split_dims.clear();
    for (size_t k = 0; k < m; ++k) {
      if (hi[k] - lo[k] > epsilon) split_dims.push_back(k);
    }
    if (split_dims.empty()) {
      for (size_t r = begin; r < end; ++r) {
        leaf_of[perm[r]] = static_cast<uint32_t>(result.size());
      }
      VertexGroup g;
      g.lower = lo;
      g.upper = hi;
      result.push_back(std::move(g));
      continue;
    }
    // Distribute rows into the 2^t children by the halves they fall in:
    // [l, (l+u)/2] vs ((l+u)/2, u] on every split attribute. Bit b of a
    // row's key is set when it falls in the upper half of split attribute
    // b; byte d holds bits [8d, 8d + 8). A stable LSD counting sort over the
    // bytes orders the rows by key, so the child order — and therefore the
    // emitted group order — is a pure function of the input: children
    // ascend by key, rows keep their relative order within a child. Empty
    // children never appear.
    const size_t t = split_dims.size();
    const size_t digits = (t + 7) / 8;
    for (size_t r = begin; r < end; ++r) {
      const double* x = sims.data + size_t{perm[r]} * m;
      for (size_t d = 0; d < digits; ++d) {
        unsigned byte = 0;
        for (size_t b = 8 * d; b < std::min(t, 8 * d + 8); ++b) {
          const size_t k = split_dims[b];
          byte |= unsigned{x[k] > (lo[k] + hi[k]) / 2.0} << (b % 8);
        }
        key[perm[r] * stride + d] = static_cast<uint8_t>(byte);
      }
    }
    for (size_t d = 0; d < digits; ++d) {
      start.fill(0);
      for (size_t r = begin; r < end; ++r) {
        ++start[key[perm[r] * stride + d] + 1];
      }
      std::partial_sum(start.begin(), start.end(), start.begin());
      for (size_t r = begin; r < end; ++r) {
        scratch[start[key[perm[r] * stride + d]]++] = perm[r];
      }
      std::copy(scratch.begin(), scratch.begin() + (end - begin),
                perm.begin() + begin);
    }
    // A child ends where the next row's key differs in some byte. Every
    // split halves at least one attribute range, so recursion depth is
    // bounded by log2(range/epsilon) per attribute and terminates.
    for (size_t r = begin + 1, child = begin; r <= end; ++r) {
      size_t d = 0;
      while (r < end && d < digits &&
             key[perm[r] * stride + d] == key[perm[r - 1] * stride + d]) {
        ++d;
      }
      if (d < digits) {
        queue.emplace_back(child, r);
        child = r;
      }
    }
  }

  // Every vertex joins its row's leaf in one ascending pass, so members
  // come out sorted.
  std::vector<size_t> sizes(result.size(), 0);
  for (size_t v = 0; v < sims.n; ++v) ++sizes[leaf_of[sims.index[v]]];
  for (size_t g = 0; g < result.size(); ++g) {
    result[g].members.reserve(sizes[g]);
  }
  for (size_t v = 0; v < sims.n; ++v) {
    result[leaf_of[sims.index[v]]].members.push_back(static_cast<int>(v));
  }
  return result;
}

}  // namespace power
