#include <vector>

#include <gtest/gtest.h>

#include "data/paper_example.h"
#include "order/partial_order.h"
#include "util/rng.h"

namespace power {
namespace {

// Braced vectors for the span parameters (a span has no list constructor).
using V = std::vector<double>;

std::vector<double> RandomVector(Rng& rng, size_t m) {
  std::vector<double> v(m);
  // Coarse grid so equal components (and hence weak-but-not-strict
  // dominance) actually occur.
  for (auto& x : v) x = rng.UniformIndex(5) / 4.0;
  return v;
}

TEST(PartialOrderTest, DominatesIsReflexive) {
  std::vector<double> a = {0.5, 0.7};
  EXPECT_TRUE(Dominates(a, a));
  EXPECT_FALSE(StrictlyDominates(a, a));
}

TEST(PartialOrderTest, StrictRequiresOneStrictCoordinate) {
  EXPECT_TRUE(StrictlyDominates(V{0.5, 0.8}, V{0.5, 0.7}));
  EXPECT_FALSE(StrictlyDominates(V{0.5, 0.7}, V{0.5, 0.8}));
  EXPECT_FALSE(StrictlyDominates(V{0.9, 0.1}, V{0.1, 0.9}));  // incomparable
}

TEST(PartialOrderTest, PaperExampleRelations) {
  auto pairs = PaperExamplePairs();
  auto sims = [&](int a, int b) {
    return pairs[PaperExamplePairIndex(a, b)].sims;
  };
  // "p34 ⪰ p35, p27 ≻ p34, and p27 ≻ p35" (§3.1).
  EXPECT_TRUE(Dominates(sims(3, 4), sims(3, 5)));
  EXPECT_FALSE(StrictlyDominates(sims(3, 4), sims(3, 5)));  // equal vectors
  EXPECT_TRUE(StrictlyDominates(sims(2, 7), sims(3, 4)));
  EXPECT_TRUE(StrictlyDominates(sims(2, 7), sims(3, 5)));
  // p67 dominates p12 (Fig. 1: "there should be an edge between p67 and
  // p12").
  EXPECT_TRUE(StrictlyDominates(sims(6, 7), sims(1, 2)));
  // p12 and p13 are incomparable (0.72 < 0.75 on A1 but 1 > 0.33 on A3).
  EXPECT_FALSE(Comparable(sims(1, 2), sims(1, 3)));
}

TEST(PartialOrderProperty, Antisymmetry) {
  Rng rng(51);
  for (int trial = 0; trial < 1000; ++trial) {
    auto a = RandomVector(rng, 3);
    auto b = RandomVector(rng, 3);
    EXPECT_FALSE(StrictlyDominates(a, b) && StrictlyDominates(b, a));
  }
}

TEST(PartialOrderProperty, Transitivity) {
  Rng rng(53);
  for (int trial = 0; trial < 2000; ++trial) {
    auto a = RandomVector(rng, 3);
    auto b = RandomVector(rng, 3);
    auto c = RandomVector(rng, 3);
    if (StrictlyDominates(a, b) && StrictlyDominates(b, c)) {
      EXPECT_TRUE(StrictlyDominates(a, c));
    }
    if (Dominates(a, b) && Dominates(b, c)) {
      EXPECT_TRUE(Dominates(a, c));
    }
  }
}

TEST(PartialOrderProperty, StrictImpliesWeak) {
  Rng rng(57);
  for (int trial = 0; trial < 1000; ++trial) {
    auto a = RandomVector(rng, 4);
    auto b = RandomVector(rng, 4);
    if (StrictlyDominates(a, b)) {
      EXPECT_TRUE(Dominates(a, b));
    }
  }
}

TEST(CompareDominanceTest, AllFourOutcomes) {
  EXPECT_EQ(CompareDominance(V{0.5, 0.8}, V{0.5, 0.7}), DomOrder::kDominates);
  EXPECT_EQ(CompareDominance(V{0.5, 0.7}, V{0.5, 0.8}),
            DomOrder::kDominatedBy);
  EXPECT_EQ(CompareDominance(V{0.5, 0.7}, V{0.5, 0.7}), DomOrder::kEqual);
  EXPECT_EQ(CompareDominance(V{0.9, 0.1}, V{0.1, 0.9}),
            DomOrder::kIncomparable);
}

TEST(CompareDominanceProperty, ConsistentWithStrictlyDominates) {
  Rng rng(63);
  for (int trial = 0; trial < 2000; ++trial) {
    auto a = RandomVector(rng, 4);
    auto b = RandomVector(rng, 4);
    DomOrder order = CompareDominance(a, b);
    EXPECT_EQ(order == DomOrder::kDominates, StrictlyDominates(a, b));
    EXPECT_EQ(order == DomOrder::kDominatedBy, StrictlyDominates(b, a));
    EXPECT_EQ(order == DomOrder::kEqual, a == b);
  }
}

TEST(GroupOrderTest, UsesBounds) {
  // g_i ⪰ g_j iff l_i^k >= u_j^k for all k (Eq. 5).
  std::vector<double> lower_i = {0.6, 0.7};
  std::vector<double> upper_j = {0.6, 0.7};
  EXPECT_TRUE(GroupDominates(lower_i, upper_j));
  EXPECT_FALSE(GroupStrictlyDominates(lower_i, upper_j));
  EXPECT_TRUE(GroupStrictlyDominates(V{0.65, 0.7}, upper_j));
  EXPECT_FALSE(GroupDominates(V{0.5, 0.9}, upper_j));
}

TEST(GroupOrderProperty, GroupDominanceImpliesMemberDominance) {
  // If l_i >= u_j on all attributes, every member of i weakly dominates
  // every member of j. Simulate with random boxes and samples.
  Rng rng(61);
  for (int trial = 0; trial < 500; ++trial) {
    size_t m = 2 + rng.UniformIndex(3);
    std::vector<double> li(m), ui(m), lj(m), uj(m);
    for (size_t k = 0; k < m; ++k) {
      double a = rng.UniformDouble(0, 1);
      double b = rng.UniformDouble(0, 1);
      li[k] = std::min(a, b);
      ui[k] = std::max(a, b);
      a = rng.UniformDouble(0, 1);
      b = rng.UniformDouble(0, 1);
      lj[k] = std::min(a, b);
      uj[k] = std::max(a, b);
    }
    if (!GroupDominates(li, uj)) continue;
    // Sample members inside the boxes.
    for (int s = 0; s < 10; ++s) {
      std::vector<double> pi(m), pj(m);
      for (size_t k = 0; k < m; ++k) {
        pi[k] = rng.UniformDouble(li[k], ui[k]);
        pj[k] = rng.UniformDouble(lj[k], uj[k]);
      }
      EXPECT_TRUE(Dominates(pi, pj));
    }
  }
}

}  // namespace
}  // namespace power
