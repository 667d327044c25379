#include "group/grouped_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/check.h"

namespace power {
namespace {

// Source groups per row block. A block's GE and GT bitsets take
// 2 · kRowBlock · ⌈G/64⌉ words (128·G bytes), beside the CSR they fill.
constexpr size_t kRowBlock = 512;

// One group's bound on one attribute.
struct Bound {
  double value;
  int group;
};

// Sorts bounds ascending. The values are checked non-NaN, so `<` is a
// strict weak order; -0.0 and 0.0 tie, as they do in
// GroupStrictlyDominates.
void SortByValue(Bound* begin, Bound* end) {
  std::sort(begin, end,
            [](const Bound& x, const Bound& y) { return x.value < y.value; });
}

// Every group's upper bound on each attribute, ascending: m runs of G
// entries.
std::vector<Bound> SortedUppers(const std::vector<VertexGroup>& groups,
                                size_t m) {
  const size_t g = groups.size();
  std::vector<Bound> out(m * g);
  for (size_t k = 0; k < m; ++k) {
    Bound* run = out.data() + k * g;
    for (size_t b = 0; b < g; ++b) {
      run[b] = {groups[b].upper[k], static_cast<int>(b)};
    }
    SortByValue(run, run + g);
  }
  return out;
}

inline void SetBit(std::vector<uint64_t>& bits, int b) {
  bits[static_cast<size_t>(b) >> 6] |= uint64_t{1} << (b & 63);
}

}  // namespace

GroupedGraph BuildGroupedGraph(std::vector<VertexGroup> groups) {
  const size_t g = groups.size();
  const size_t m = g == 0 ? 0 : groups[0].lower.size();
  for (const VertexGroup& group : groups) {
    POWER_CHECK_MSG(group.lower.size() == m && group.upper.size() == m,
                    "every group needs bounds of one width");
    for (size_t k = 0; k < m; ++k) {
      POWER_CHECK_MSG(
          !std::isnan(group.lower[k]) && !std::isnan(group.upper[k]),
          "group bounds must not be NaN");
    }
  }
  const std::vector<Bound> uppers = SortedUppers(groups, m);

  // Group a's children are the b with lower_a ≥ upper_b on every attribute
  // (GE, an AND over k) and lower_a > upper_b on some attribute (GT, an OR
  // over k): exactly GroupStrictlyDominates. For one attribute, walking a
  // block's sources by ascending lower bound makes {b : upper_b ≤ lower_a}
  // and {b : upper_b < lower_a} two growing prefixes of the targets sorted
  // by upper bound, kept as running bitsets.
  const size_t words = (g + 63) / 64;
  const size_t block_rows = std::min(kRowBlock, g);
  std::vector<uint64_t> ge(block_rows * words);
  std::vector<uint64_t> gt(block_rows * words);
  std::vector<uint64_t> at_most(words);
  std::vector<uint64_t> below(words);
  std::vector<Bound> sources(block_rows);
  std::vector<int64_t> child_off(g + 1, 0);
  std::vector<int> child_edges;
  for (size_t begin = 0; begin < g; begin += kRowBlock) {
    const size_t end = std::min(g, begin + kRowBlock);
    std::fill(ge.begin(), ge.end(), ~uint64_t{0});
    std::fill(gt.begin(), gt.end(), 0);
    for (size_t k = 0; k < m; ++k) {
      const Bound* upper = uppers.data() + k * g;
      for (size_t a = begin; a < end; ++a) {
        sources[a - begin] = {groups[a].lower[k], static_cast<int>(a)};
      }
      SortByValue(sources.data(), sources.data() + (end - begin));
      std::fill(at_most.begin(), at_most.end(), 0);
      std::fill(below.begin(), below.end(), 0);
      size_t le = 0;
      size_t lt = 0;
      for (size_t i = 0; i < end - begin; ++i) {
        const Bound& src = sources[i];
        const size_t a = static_cast<size_t>(src.group);
        for (; le < g && upper[le].value <= src.value; ++le) {
          SetBit(at_most, upper[le].group);
        }
        for (; lt < g && upper[lt].value < src.value; ++lt) {
          SetBit(below, upper[lt].group);
        }
        uint64_t* ge_row = ge.data() + (a - begin) * words;
        uint64_t* gt_row = gt.data() + (a - begin) * words;
        for (size_t w = 0; w < words; ++w) {
          ge_row[w] &= at_most[w];
          gt_row[w] |= below[w];
        }
      }
    }

    // Children = GE ∧ GT, less the group itself (the oracle loop skips
    // a == b; lower ≤ upper keeps a out of GT anyway). Count, then decode:
    // the set bits come out ascending and unique.
    for (size_t a = begin; a < end; ++a) {
      uint64_t* row = ge.data() + (a - begin) * words;
      const uint64_t* strict = gt.data() + (a - begin) * words;
      row[a >> 6] &= ~(uint64_t{1} << (a & 63));
      int64_t count = 0;
      for (size_t w = 0; w < words; ++w) {
        row[w] &= strict[w];
        count += std::popcount(row[w]);
      }
      child_off[a + 1] = child_off[a] + count;
    }
    child_edges.resize(static_cast<size_t>(child_off[end]));
    for (size_t a = begin; a < end; ++a) {
      const uint64_t* row = ge.data() + (a - begin) * words;
      int* out = child_edges.data() + child_off[a];
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          *out++ = static_cast<int>(w * 64) + std::countr_zero(bits);
        }
      }
    }
  }

  GroupedGraph out;
  out.graph = PairGraph(g);
  out.graph.FreezeFromChildren(std::move(child_off), std::move(child_edges));
  out.groups = std::move(groups);
  return out;
}

GroupedGraph BuildUngrouped(const GraphBuilder& builder, SimilarityRows sims) {
  GroupedGraph out;
  out.groups = SingletonGroups(sims);
  out.graph = builder.Build(sims);
  return out;
}

}  // namespace power
