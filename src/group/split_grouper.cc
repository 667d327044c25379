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

  // Every node is a range [begin, end) of one permutation of the vertices,
  // holding its members in the order its parent's split left them. Nodes
  // are split in FIFO order, so the emitted group order is breadth-first.
  std::vector<int> perm(sims.n);
  std::iota(perm.begin(), perm.end(), 0);
  std::deque<std::pair<size_t, size_t>> queue = {{0, perm.size()}};
  // key[v * stride + d] is byte d of vertex v's child key in its node.
  const size_t stride = (m + 7) / 8;
  std::vector<uint8_t> key(sims.n * stride);
  std::vector<int> scratch(sims.n);
  std::array<size_t, 257> start{};
  std::vector<double> lo(m), hi(m);
  std::vector<size_t> split_dims;
  while (!queue.empty()) {
    const auto [begin, end] = queue.front();
    queue.pop_front();

    // Per-attribute value ranges of this node, folded in member order.
    const double* first = sims.data + perm[begin] * m;
    for (size_t k = 0; k < m; ++k) lo[k] = hi[k] = first[k];
    for (size_t r = begin; r < end; ++r) {
      const double* x = sims.data + perm[r] * m;
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
      result.push_back(MakeGroup(
          sims, std::vector<int>(perm.begin() + begin, perm.begin() + end)));
      continue;
    }
    // Distribute members into the 2^t children by the halves they fall in:
    // [l, (l+u)/2] vs ((l+u)/2, u] on every split attribute. Bit b of a
    // member's key is set when it falls in the upper half of split attribute
    // b; byte d holds bits [8d, 8d + 8). A stable LSD counting sort over the
    // bytes orders the members by key, so the child order — and therefore
    // the emitted group order — is a pure function of the input: children
    // ascend by key, members keep their relative order within a child.
    // Empty children never appear.
    const size_t t = split_dims.size();
    const size_t digits = (t + 7) / 8;
    for (size_t r = begin; r < end; ++r) {
      const double* x = sims.data + perm[r] * m;
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
    // A child ends where the next member's key differs in some byte. Every
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
  return result;
}

}  // namespace power
