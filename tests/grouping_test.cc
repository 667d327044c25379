#include <algorithm>
#include <cstring>
#include <deque>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "blocking/pair_generator.h"
#include "core/power.h"
#include "data/generator.h"
#include "data/paper_example.h"
#include "group/greedy_grouper.h"
#include "group/split_grouper.h"
#include "sim/feature_cache.h"
#include "sim/similarity_matrix.h"
#include "util/rng.h"

namespace power {
namespace {

std::vector<std::vector<double>> PaperSims() {
  std::vector<std::vector<double>> sims;
  for (const auto& p : PaperExamplePairs()) sims.push_back(p.sims);
  return sims;
}

std::set<std::set<int>> AsSets(const std::vector<VertexGroup>& groups) {
  std::set<std::set<int>> out;
  for (const auto& g : groups) {
    out.insert(std::set<int>(g.members.begin(), g.members.end()));
  }
  return out;
}

std::vector<std::vector<double>> RandomSims(uint64_t seed, size_t n,
                                            size_t m) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (auto& x : v) x = rng.UniformDouble(0.0, 1.0);
  }
  return sims;
}

TEST(GroupTest, MakeGroupComputesBounds) {
  std::vector<std::vector<double>> sims = {{0.1, 0.9}, {0.3, 0.8}};
  VertexGroup g = MakeGroup(PackRows(sims).rows(), {1, 0});
  EXPECT_EQ(g.members, (std::vector<int>{0, 1}));
  EXPECT_EQ(g.lower, (std::vector<double>{0.1, 0.8}));
  EXPECT_EQ(g.upper, (std::vector<double>{0.3, 0.9}));
}

TEST(GroupTest, IsValidGroupRespectsEpsilon) {
  const PackedRows packed = PackRows({{0.1, 0.9}, {0.3, 0.8}});
  const SimilarityRows sims = packed.rows();
  EXPECT_TRUE(IsValidGroup(sims, {0, 1}, 0.2));
  EXPECT_FALSE(IsValidGroup(sims, {0, 1}, 0.1));
  EXPECT_TRUE(IsValidGroup(sims, {0}, 0.0));
  EXPECT_FALSE(IsValidGroup(sims, {}, 1.0));
}

TEST(GroupTest, IsPartition) {
  const PackedRows packed = PackRows({{0.0}, {0.5}, {1.0}});
  auto singletons = SingletonGroups(packed.rows());
  EXPECT_TRUE(IsPartition(singletons, 3));
  // Overlapping groups are not a partition.
  std::vector<VertexGroup> overlap = {MakeGroup(packed.rows(), {0, 1}),
                                      MakeGroup(packed.rows(), {1, 2})};
  EXPECT_FALSE(IsPartition(overlap, 3));
  // Missing vertex 2.
  std::vector<VertexGroup> incomplete = {MakeGroup(packed.rows(), {0, 1})};
  EXPECT_FALSE(IsPartition(incomplete, 3));
}

TEST(SplitGrouperTest, PaperExampleYieldsNineGroups) {
  auto sims = PaperSims();
  auto groups = SplitGrouper().Group(sims, 0.1);
  // The paper's Figure 3/4 walkthrough produces 9 groups at ε = 0.1.
  EXPECT_EQ(groups.size(), 9u);
  EXPECT_TRUE(IsPartition(groups, sims.size()));
  for (const auto& g : groups) {
    EXPECT_TRUE(IsValidGroup(PackRows(sims).rows(), g.members, 0.1));
  }
  auto sets = AsSets(groups);
  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };
  // Stable memberships shared with the paper's walkthrough.
  EXPECT_TRUE(sets.count({idx(4, 5), idx(6, 7)}));            // {p45, p67}
  EXPECT_TRUE(sets.count({idx(2, 4), idx(2, 5)}));            // {p24, p25}
  EXPECT_TRUE(sets.count({idx(3, 7)}));                       // {p37}
  EXPECT_TRUE(sets.count({idx(1, 2)}));                       // {p12}
  EXPECT_TRUE(sets.count({idx(1, 3)}));                       // {p13}
  EXPECT_TRUE(sets.count({idx(2, 3)}));                       // {p23}
  EXPECT_TRUE(
      sets.count({idx(4, 6), idx(4, 7), idx(5, 6), idx(5, 7)}));
}

TEST(GreedyGrouperTest, PaperExampleValidAndSmall) {
  auto sims = PaperSims();
  auto groups = GreedyGrouper().Group(sims, 0.1);
  EXPECT_TRUE(IsPartition(groups, sims.size()));
  for (const auto& g : groups) {
    EXPECT_TRUE(IsValidGroup(PackRows(sims).rows(), g.members, 0.1));
  }
  // The paper's greedy walkthrough ends with 10 groups; allow the exact
  // count to vary with tie-breaking but stay in a tight range.
  EXPECT_GE(groups.size(), 8u);
  EXPECT_LE(groups.size(), 11u);
  auto sets = AsSets(groups);
  auto idx = [](int a, int b) { return PaperExamplePairIndex(a, b); };
  // A size-4 maximal group is picked first (the paper's walkthrough picks
  // {p27, p26, p34, p35}; ties may select one of its size-4 peers).
  size_t max_size = 0;
  for (const auto& s : sets) max_size = std::max(max_size, s.size());
  EXPECT_EQ(max_size, 4u);
  EXPECT_TRUE(sets.count({idx(4, 5), idx(6, 7)}));
}

TEST(SplitGrouperTest, EpsilonZeroGroupsOnlyIdenticalVectors) {
  std::vector<std::vector<double>> sims = {{0.5, 0.5}, {0.5, 0.5},
                                           {0.5, 0.6}};
  auto groups = SplitGrouper().Group(sims, 0.0);
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_TRUE(IsPartition(groups, 3));
}

TEST(SplitGrouperTest, LargeEpsilonYieldsOneGroup) {
  auto sims = PaperSims();
  auto groups = SplitGrouper().Group(sims, 1.0);
  EXPECT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), sims.size());
}

TEST(GrouperTest, EmptyInput) {
  std::vector<std::vector<double>> empty;
  EXPECT_TRUE(SplitGrouper().Group(empty, 0.1).empty());
  EXPECT_TRUE(GreedyGrouper().Group(empty, 0.1).empty());
}

struct GroupCase {
  size_t n;
  size_t m;
  double epsilon;
  uint64_t seed;
};

// The discovered ctest name carries the printed parameter: print the
// fields, not gtest's dump of the struct's bytes.
void PrintTo(const GroupCase& c, std::ostream* os) {
  *os << "n" << c.n << "_m" << c.m << "_eps" << c.epsilon << "_seed" << c.seed;
}

class GrouperProperty : public ::testing::TestWithParam<GroupCase> {};

TEST_P(GrouperProperty, BothGroupersProduceValidPartitions) {
  const GroupCase& c = GetParam();
  auto sims = RandomSims(c.seed, c.n, c.m);
  const PackedRows packed = PackRows(sims);
  for (const Grouper* grouper :
       {static_cast<const Grouper*>(new SplitGrouper()),
        static_cast<const Grouper*>(new GreedyGrouper())}) {
    auto groups = grouper->Group(sims, c.epsilon);
    EXPECT_TRUE(IsPartition(groups, c.n)) << grouper->name();
    for (const auto& g : groups) {
      EXPECT_TRUE(IsValidGroup(packed.rows(), g.members, c.epsilon))
          << grouper->name();
      // Bounds are consistent with members.
      VertexGroup recomputed = MakeGroup(packed.rows(), g.members);
      EXPECT_EQ(g.lower, recomputed.lower);
      EXPECT_EQ(g.upper, recomputed.upper);
    }
    delete grouper;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GrouperProperty,
    ::testing::Values(GroupCase{1, 1, 0.1, 1}, GroupCase{20, 2, 0.1, 2},
                      GroupCase{60, 2, 0.05, 3}, GroupCase{60, 3, 0.2, 4},
                      GroupCase{100, 4, 0.1, 5}, GroupCase{40, 2, 0.5, 6},
                      GroupCase{80, 3, 0.01, 7}));

TEST(GrouperComparison, GreedyNeverWorseThanSplitByMuch) {
  // The paper: Split generates somewhat more groups than Greedy.
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto sims = RandomSims(seed, 120, 2);
    auto split = SplitGrouper().Group(sims, 0.15);
    auto greedy = GreedyGrouper().Group(sims, 0.15);
    EXPECT_LE(greedy.size(), split.size() + 2) << "seed=" << seed;
  }
}

TEST(SplitGrouperTest, LargerEpsilonFewerGroups) {
  auto sims = RandomSims(21, 200, 3);
  size_t prev = sims.size() + 1;
  for (double eps : {0.05, 0.1, 0.2, 0.4}) {
    auto groups = SplitGrouper().Group(sims, eps);
    EXPECT_LE(groups.size(), prev);
    prev = groups.size();
  }
}

// ---------------------------------------------------------------------------
// Split against a reference copy of its queue-of-vectors form: a deque of
// member vectors, each split node's members stable-sorted by child key. A
// key compares as a big integer (bit b is the b-th split attribute, the
// highest bit most significant), which also orders keys past 64 split
// attributes. SplitGrouper must emit the same groups in the same order,
// through its row entry and through the nested adapter.
// ---------------------------------------------------------------------------

// A leaf of the reference: members sorted, bounds folded over them in that
// order from the first member (as MakeGroup folds, so signed zeros match).
VertexGroup ReferenceGroup(const std::vector<std::vector<double>>& sims,
                           std::vector<int> members) {
  std::sort(members.begin(), members.end());
  VertexGroup g;
  for (size_t k = 0; k < sims[members[0]].size(); ++k) {
    double lo = sims[members[0]][k];
    double hi = lo;
    for (int v : members) {
      lo = std::min(lo, sims[v][k]);
      hi = std::max(hi, sims[v][k]);
    }
    g.lower.push_back(lo);
    g.upper.push_back(hi);
  }
  g.members = std::move(members);
  return g;
}

std::vector<VertexGroup> ReferenceSplit(
    const std::vector<std::vector<double>>& sims, double epsilon) {
  std::vector<VertexGroup> result;
  if (sims.empty()) return result;
  const size_t m = sims[0].size();
  std::vector<int> all(sims.size());
  std::iota(all.begin(), all.end(), 0);
  std::deque<std::vector<int>> queue;
  queue.push_back(std::move(all));
  while (!queue.empty()) {
    std::vector<int> node = std::move(queue.front());
    queue.pop_front();
    std::vector<double> lo(m), hi(m);
    for (size_t k = 0; k < m; ++k) {
      lo[k] = hi[k] = sims[node[0]][k];
      for (int v : node) {
        lo[k] = std::min(lo[k], sims[v][k]);
        hi[k] = std::max(hi[k], sims[v][k]);
      }
    }
    std::vector<size_t> split_dims;
    for (size_t k = 0; k < m; ++k) {
      if (hi[k] - lo[k] > epsilon) split_dims.push_back(k);
    }
    if (split_dims.empty()) {
      result.push_back(ReferenceGroup(sims, std::move(node)));
      continue;
    }
    using Keyed = std::pair<std::vector<bool>, int>;
    std::vector<Keyed> keyed;
    for (int v : node) {
      std::vector<bool> key(split_dims.size());
      for (size_t b = 0; b < split_dims.size(); ++b) {
        const size_t k = split_dims[b];
        key[b] = sims[v][k] > (lo[k] + hi[k]) / 2.0;
      }
      keyed.emplace_back(std::move(key), v);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const Keyed& a, const Keyed& b) {
                       for (size_t bit = a.first.size(); bit-- > 0;) {
                         if (a.first[bit] != b.first[bit]) return b.first[bit];
                       }
                       return false;
                     });
    for (size_t i = 0; i < keyed.size();) {
      std::vector<int> members;
      size_t j = i;
      for (; j < keyed.size() && keyed[j].first == keyed[i].first; ++j) {
        members.push_back(keyed[j].second);
      }
      queue.push_back(std::move(members));
      i = j;
    }
  }
  return result;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// memcmp, not ==: a bound of -0.0 where the reference has 0.0 differs.
void ExpectSameGroups(const std::vector<VertexGroup>& got,
                      const std::vector<VertexGroup>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t g = 0; g < got.size(); ++g) {
    EXPECT_TRUE(SameBytes(got[g].members, want[g].members))
        << label << " group " << g;
    EXPECT_TRUE(SameBytes(got[g].lower, want[g].lower))
        << label << " group " << g;
    EXPECT_TRUE(SameBytes(got[g].upper, want[g].upper))
        << label << " group " << g;
  }
}

void ExpectSplitMatchesReference(const std::vector<std::vector<double>>& sims,
                                 const std::string& label) {
  const PackedRows packed = PackRows(sims);
  for (double eps : {0.0, 0.05, 0.1, 1.0}) {
    const std::vector<VertexGroup> want = ReferenceSplit(sims, eps);
    ExpectSameGroups(SplitGrouper().Group(packed.rows(), eps), want,
                     label + " rows eps " + std::to_string(eps));
    ExpectSameGroups(SplitGrouper().Group(sims, eps), want,
                     label + " nested eps " + std::to_string(eps));
  }
}

// Values on a grid of eighths, so many sit exactly on a node's midpoint;
// zero is drawn with either sign.
std::vector<std::vector<double>> GridSims(uint64_t seed, size_t n, size_t m) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (auto& x : v) {
      x = rng.UniformInt(0, 8) / 8.0;
      if (x == 0.0 && rng.Bernoulli(0.5)) x = -0.0;
    }
  }
  return sims;
}

TEST(SplitGrouperDifferential, GridVectorsMatchReference) {
  for (size_t m = 1; m <= 12; ++m) {
    ExpectSplitMatchesReference(GridSims(100 + m, 400, m),
                                "grid m " + std::to_string(m));
  }
  ExpectSplitMatchesReference(GridSims(170, 200, 70), "grid m 70");
}

TEST(SplitGrouperDifferential, DuplicatesAndSingleVertexMatchReference) {
  ExpectSplitMatchesReference({{0.3, 0.7}}, "single vertex");
  ExpectSplitMatchesReference(
      std::vector<std::vector<double>>(50, {0.2, 0.4, 0.9}), "all equal");
  std::vector<std::vector<double>> few = GridSims(7, 6, 4);
  std::vector<std::vector<double>> dups;
  Rng rng(8);
  for (int v = 0; v < 300; ++v) dups.push_back(few[rng.UniformIndex(6)]);
  ExpectSplitMatchesReference(dups, "six distinct vectors");
  // A handful of vectors repeated many times past 8 attributes, so child
  // keys span several bytes.
  for (size_t m : {12u, 20u}) {
    std::vector<std::vector<double>> wide_few = GridSims(9 + m, 5, m);
    std::vector<std::vector<double>> wide_dups;
    for (int v = 0; v < 400; ++v) {
      wide_dups.push_back(wide_few[rng.UniformIndex(5)]);
    }
    ExpectSplitMatchesReference(wide_dups, "five distinct vectors m " +
                                               std::to_string(m));
  }
  // 0.0 and -0.0 copies of one vector, in both orders: bit-distinct rows
  // that always share a leaf, whose bounds keep the sign met first.
  const std::vector<double> pos = {0.0, 0.6, 0.3};
  const std::vector<double> neg = {-0.0, 0.6, 0.3};
  const std::vector<double> far = {0.9, 0.1, 0.3};
  ExpectSplitMatchesReference({pos, neg, far, pos, neg, neg},
                              "zero before negative zero");
  ExpectSplitMatchesReference({neg, pos, far, neg, pos, pos},
                              "negative zero before zero");
}

// Similarity vectors of the pairs a default run keeps from a generated
// table, resized as perfbench resizes its workloads' profiles.
std::vector<std::vector<double>> ProfileSims(DatasetProfile profile,
                                             size_t records) {
  const double ratio = static_cast<double>(profile.num_entities) /
                       static_cast<double>(profile.num_records);
  profile.num_records = records;
  profile.num_entities = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(records) * ratio));
  Table table = DatasetGenerator(51).Generate(profile);
  FeatureCache features(table);
  const PowerConfig config;
  std::vector<std::vector<double>> sims;
  for (const SimilarPair& p : ComputePairSimilarities(
           features, AllPairsCandidates(features, config.prune_tau),
           config.component_floor)) {
    sims.push_back(p.sims);
  }
  return sims;
}

TEST(SplitGrouperDifferential, GeneratedTablesMatchReference) {
  ExpectSplitMatchesReference(ProfileSims(AcmPubProfile(1.0), 6000),
                              "ACMPub 6k");
  ExpectSplitMatchesReference(ProfileSims(CoraProfile(), 2000), "Cora 2k");
}

TEST(GreedyGrouperTest, RowEntryMatchesNested) {
  for (uint64_t seed : {31u, 32u}) {
    const auto sims = GridSims(seed, 80, 3);
    const PackedRows packed = PackRows(sims);
    for (double eps : {0.0, 0.1, 0.3}) {
      ExpectSameGroups(GreedyGrouper().Group(packed.rows(), eps),
                       GreedyGrouper().Group(sims, eps),
                       "greedy seed " + std::to_string(seed) + " eps " +
                           std::to_string(eps));
    }
  }
}

// ---------------------------------------------------------------------------
// Greedy against a reference copy that dedupes each attribute's joined
// candidates through a std::set of member vectors, keeping the first
// occurrence, so a hash collision cannot drop a candidate. GreedyGrouper
// must emit the same groups in the same order.
// ---------------------------------------------------------------------------

// Maximal windows of attribute k: vertices by value descending (ties by
// id), each maximal run spanning at most epsilon, members ascending.
std::vector<std::vector<int>> ReferenceWindows(
    const std::vector<std::vector<double>>& sims, size_t k, double epsilon) {
  std::vector<int> order(sims.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (sims[a][k] != sims[b][k]) return sims[a][k] > sims[b][k];
    return a < b;
  });
  std::vector<std::vector<int>> windows;
  size_t covered_to = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    size_t t = i;
    while (t + 1 < order.size() &&
           sims[order[i]][k] - sims[order[t + 1]][k] <= epsilon + 1e-12) {
      ++t;
    }
    if (t + 1 <= covered_to) continue;  // inside an earlier window
    std::vector<int> members(order.begin() + i, order.begin() + t + 1);
    std::sort(members.begin(), members.end());
    windows.push_back(std::move(members));
    covered_to = t + 1;
  }
  return windows;
}

std::vector<VertexGroup> ReferenceGreedy(
    const std::vector<std::vector<double>>& sims, double epsilon) {
  std::vector<VertexGroup> result;
  if (sims.empty()) return result;
  std::vector<std::vector<int>> candidates = ReferenceWindows(sims, 0, epsilon);
  for (size_t k = 1; k < sims[0].size(); ++k) {
    const std::vector<std::vector<int>> windows =
        ReferenceWindows(sims, k, epsilon);
    std::vector<std::vector<int>> joined;
    std::set<std::vector<int>> seen;
    for (const std::vector<int>& c : candidates) {
      for (const std::vector<int>& w : windows) {
        std::vector<int> both;
        std::set_intersection(c.begin(), c.end(), w.begin(), w.end(),
                              std::back_inserter(both));
        if (!both.empty() && seen.insert(both).second) {
          joined.push_back(std::move(both));
        }
      }
    }
    candidates = std::move(joined);
  }
  // Cover: the first candidate with the most uncovered members, repeated.
  std::vector<bool> covered(sims.size(), false);
  size_t left = sims.size();
  while (left > 0) {
    size_t best = 0;
    size_t best_live = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const size_t live = static_cast<size_t>(
          std::count_if(candidates[c].begin(), candidates[c].end(),
                        [&](int v) { return !covered[v]; }));
      if (live > best_live) {
        best_live = live;
        best = c;
      }
    }
    std::vector<int> members;
    for (int v : candidates[best]) {
      if (!covered[v]) {
        covered[v] = true;
        members.push_back(v);
      }
    }
    left -= members.size();
    result.push_back(ReferenceGroup(sims, std::move(members)));
  }
  return result;
}

void ExpectGreedyMatchesReference(const std::vector<std::vector<double>>& sims,
                                  std::initializer_list<double> epsilons,
                                  const std::string& label) {
  const PackedRows packed = PackRows(sims);
  for (double eps : epsilons) {
    ExpectSameGroups(GreedyGrouper().Group(packed.rows(), eps),
                     ReferenceGreedy(sims, eps),
                     label + " eps " + std::to_string(eps));
  }
}

TEST(GreedyGrouperDifferential, GroupingTestTablesMatchReference) {
  ExpectGreedyMatchesReference(PaperSims(), {0.0, 0.1, 0.2}, "paper example");
  for (const GroupCase& c :
       {GroupCase{1, 1, 0.1, 1}, GroupCase{20, 2, 0.1, 2},
        GroupCase{60, 2, 0.05, 3}, GroupCase{60, 3, 0.2, 4},
        GroupCase{100, 4, 0.1, 5}, GroupCase{40, 2, 0.5, 6},
        GroupCase{80, 3, 0.01, 7}}) {
    ExpectGreedyMatchesReference(RandomSims(c.seed, c.n, c.m), {c.epsilon},
                                 "random seed " + std::to_string(c.seed));
  }
  for (uint64_t seed : {11u, 12u, 13u}) {
    ExpectGreedyMatchesReference(RandomSims(seed, 120, 2), {0.15},
                                 "random 120 seed " + std::to_string(seed));
  }
  for (uint64_t seed : {31u, 32u}) {
    ExpectGreedyMatchesReference(GridSims(seed, 80, 3), {0.0, 0.1, 0.3},
                                 "grid seed " + std::to_string(seed));
  }
}

// A bench_grouping case's vectors: bench seed 51, the prefix join at tau
// 0.3, component floor 0.2.
std::vector<std::vector<double>> BenchSims(const DatasetProfile& profile) {
  const Table table = DatasetGenerator(51).Generate(profile);
  const FeatureCache features(table);
  std::vector<std::vector<double>> sims;
  for (const SimilarPair& p : ComputePairSimilarities(
           features,
           GenerateCandidates(features, 0.3, CandidateMethod::kPrefixJoin),
           0.2)) {
    sims.push_back(p.sims);
  }
  return sims;
}

// bench_grouping's Restaurant and Cora cases at its four epsilons.
TEST(GreedyGrouperDifferential, BenchDatasetsMatchReference) {
  for (const DatasetProfile& profile : {RestaurantProfile(), CoraProfile()}) {
    ExpectGreedyMatchesReference(BenchSims(profile), {0.05, 0.1, 0.15, 0.2},
                                 profile.name);
  }
}

// Greedy refuses a join that would take more than 1G merge steps, naming
// itself, the attribute and the count, and points to Split.
TEST(GreedyGrouperDeathTest, RefusesACombinatorialJoin) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // On random rows the windows overlap in every attribute and the join
  // grows combinatorially: 29,850 candidates meet 936 windows at attribute
  // 2 of 2,000 rows at ε 0.05, where Greedy once ran for minutes.
  const PackedRows random = PackRows(RandomSims(51, 2000, 4));
  EXPECT_DEATH(GreedyGrouper().Group(random.rows(), 0.05),
               "Greedy grouping refuses to join attribute 2: 29850 candidate "
               "groups x 936 windows take 2963653170 merge steps "
               "\\(limit 1000000000\\); use Split grouping");
  // Split groups the same rows at once.
  EXPECT_TRUE(IsPartition(SplitGrouper().Group(random.rows(), 0.05), 2000));
  // bench_grouping's ACMPub case (180,774 pairs) needs only 62,220
  // intersections at attribute 1 at ε 0.1, but they merge windows of
  // thousands of pairs each; Greedy ran its ε 0.05 join for over a minute.
  const PackedRows acm = PackRows(BenchSims(AcmPubProfile(0.1)));
  EXPECT_DEATH(GreedyGrouper().Group(acm.rows(), 0.1),
               "Greedy grouping refuses to join attribute 1: 122 candidate "
               "groups x 510 windows take 1678230292 merge steps");
}

// More than 63 split attributes once aborted on a 64-bit key.
TEST(SplitGrouperTest, SeventyWideAttributesSplit) {
  std::vector<std::vector<double>> sims(4, std::vector<double>(70));
  for (size_t v = 0; v < sims.size(); ++v) {
    for (size_t k = 0; k < 70; ++k) sims[v][k] = (v + k) % 2 ? 0.9 : 0.1;
  }
  auto groups = SplitGrouper().Group(sims, 0.1);
  EXPECT_TRUE(IsPartition(groups, sims.size()));
  for (const auto& g : groups) {
    EXPECT_TRUE(IsValidGroup(PackRows(sims).rows(), g.members, 0.1));
  }
  ExpectSameGroups(groups, ReferenceSplit(sims, 0.1), "70 attributes");
}

}  // namespace
}  // namespace power
