#include <algorithm>

#include <gtest/gtest.h>

#include "graph/range_tree.h"
#include "util/rng.h"

namespace power {
namespace {

std::vector<RangeTree2d::Point> RandomPoints(uint64_t seed, size_t n,
                                             int grid) {
  Rng rng(seed);
  std::vector<RangeTree2d::Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back({static_cast<double>(rng.UniformIndex(grid + 1)) / grid,
                      static_cast<double>(rng.UniformIndex(grid + 1)) / grid,
                      static_cast<int>(i)});
  }
  return points;
}

std::vector<int> NaiveQuery(const std::vector<RangeTree2d::Point>& points,
                            double qx, double qy) {
  std::vector<int> out;
  for (const auto& p : points) {
    if (p.x <= qx && p.y <= qy) out.push_back(p.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RangeTreeTest, EmptyTree) {
  RangeTree2d tree;
  tree.Build({});
  EXPECT_EQ(tree.num_points(), 0u);
  EXPECT_TRUE(tree.QueryDominated(1.0, 1.0).empty());
}

TEST(RangeTreeTest, SinglePoint) {
  RangeTree2d tree;
  tree.Build({{0.5, 0.5, 7}});
  EXPECT_EQ(tree.QueryDominated(0.5, 0.5), (std::vector<int>{7}));
  EXPECT_TRUE(tree.QueryDominated(0.4, 0.5).empty());
  EXPECT_TRUE(tree.QueryDominated(0.5, 0.4).empty());
  EXPECT_EQ(tree.QueryDominated(1.0, 1.0), (std::vector<int>{7}));
}

TEST(RangeTreeTest, BoundariesAreInclusive) {
  RangeTree2d tree;
  tree.Build({{0.2, 0.8, 0}, {0.8, 0.2, 1}, {0.5, 0.5, 2}});
  auto got = tree.QueryDominated(0.5, 0.5);
  EXPECT_EQ(got, (std::vector<int>{2}));
}

struct TreeCase {
  size_t n;
  int grid;
  uint64_t seed;
};

// The discovered ctest name carries the printed parameter: print the
// fields, not gtest's dump of the struct's bytes.
void PrintTo(const TreeCase& c, std::ostream* os) {
  *os << "n" << c.n << "_grid" << c.grid << "_seed" << c.seed;
}

class RangeTreeEquivalence : public ::testing::TestWithParam<TreeCase> {};

TEST_P(RangeTreeEquivalence, MatchesNaiveScanOnAllQueries) {
  const TreeCase& c = GetParam();
  auto points = RandomPoints(c.seed, c.n, c.grid);
  RangeTree2d tree;
  tree.Build(points);
  ASSERT_EQ(tree.num_points(), c.n);
  // Query at every point location plus grid corners.
  for (const auto& q : points) {
    auto got = tree.QueryDominated(q.x, q.y);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, NaiveQuery(points, q.x, q.y))
        << "qx=" << q.x << " qy=" << q.y;
  }
  for (double qx : {0.0, 0.3, 1.0}) {
    for (double qy : {0.0, 0.7, 1.0}) {
      auto got = tree.QueryDominated(qx, qy);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, NaiveQuery(points, qx, qy));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RangeTreeEquivalence,
    ::testing::Values(TreeCase{2, 2, 1}, TreeCase{3, 1, 2},
                      TreeCase{17, 4, 3}, TreeCase{64, 8, 4},
                      TreeCase{65, 8, 5}, TreeCase{100, 2, 6},
                      TreeCase{255, 16, 7}, TreeCase{256, 16, 8}));

TEST(RangeTreeTest, HeavyDuplicatesHandled) {
  std::vector<RangeTree2d::Point> points(50, {0.5, 0.5, 0});
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].id = static_cast<int>(i);
  }
  RangeTree2d tree;
  tree.Build(points);
  EXPECT_EQ(tree.QueryDominated(0.5, 0.5).size(), 50u);
  EXPECT_TRUE(tree.QueryDominated(0.49, 0.5).empty());
}

TEST(RangeTreeTest, AppendOverloadAccumulates) {
  RangeTree2d tree;
  tree.Build({{0.1, 0.1, 0}, {0.2, 0.2, 1}});
  std::vector<int> out = {99};
  tree.QueryDominated(1.0, 1.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{0, 1, 99}));
}

}  // namespace
}  // namespace power
