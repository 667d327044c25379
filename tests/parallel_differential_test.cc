// Differential harness for the parallel hot paths: on randomized instances,
// every parallelized stage — candidate generation (the all-pairs scan and
// the prefix join), similarity vectors, all three graph builders and the
// grouped graph — must produce output identical to the serial path
// (num_threads == 1) at every thread count. Edge sets are compared exactly;
// similarity values bit-for-bit (the partial order of §3.1 uses exact double
// comparisons, so "close" is not good enough).
#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/pair_generator.h"
#include "blocking/prefix_join.h"
#include "data/generator.h"
#include "graph/builder.h"
#include "group/grouped_graph.h"
#include "group/split_grouper.h"
#include "order/partial_order.h"
#include "sim/feature_cache.h"
#include "sim/simd_kernels.h"
#include "sim/similarity_matrix.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace power {
namespace {

const int kThreadCounts[] = {1, 2, 8};

std::set<std::pair<int, int>> EdgeSet(const PairGraph& g) {
  std::set<std::pair<int, int>> edges;
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    for (int c : g.children(static_cast<int>(v))) {
      edges.insert({static_cast<int>(v), c});
    }
  }
  return edges;
}

PackedRows RandomSims(uint64_t seed, size_t n, size_t m, int grid) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (auto& x : v) {
      x = static_cast<double>(rng.UniformIndex(grid + 1)) / grid;
    }
  }
  return PackRows(sims);
}

// Two frozen graphs have the same CSR adjacency, vertex for vertex.
void ExpectSameCsr(const PairGraph& got, const PairGraph& want) {
  ASSERT_TRUE(got.frozen());
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (int v = 0; v < static_cast<int>(got.num_vertices()); ++v) {
    auto gc = got.children(v), wc = want.children(v);
    ASSERT_TRUE(std::equal(gc.begin(), gc.end(), wc.begin(), wc.end()))
        << "children diverge at vertex " << v;
    auto gp = got.parents(v), wp = want.parents(v);
    ASSERT_TRUE(std::equal(gp.begin(), gp.end(), wp.begin(), wp.end()))
        << "parents diverge at vertex " << v;
  }
}

struct Instance {
  size_t n;     // vertices
  size_t m;     // attributes
  int grid;     // distinct values per attribute (ties ⇔ duplicate clusters)
  uint64_t seed;
};

// The discovered ctest name carries the printed parameter: print the
// fields, not gtest's dump of the struct's bytes.
void PrintTo(const Instance& c, std::ostream* os) {
  *os << "n" << c.n << "_m" << c.m << "_grid" << c.grid << "_seed" << c.seed;
}

class ParallelBuilderDifferential : public ::testing::TestWithParam<Instance> {
};

TEST_P(ParallelBuilderDifferential, AllBuildersMatchSerialAtEveryThreadCount) {
  const Instance& inst = GetParam();
  const PackedRows packed = RandomSims(inst.seed, inst.n, inst.m, inst.grid);
  const SimilarityRows sims = packed.rows();

  const BruteForceBuilder brute;
  const QuickSortBuilder quick(inst.seed * 31 + 5);
  const RangeTreeBuilder index;
  const GraphBuilder* builders[] = {&brute, &quick, &index};

  for (const GraphBuilder* builder : builders) {
    std::set<std::pair<int, int>> serial_edges;
    size_t serial_edge_count = 0;
    {
      ScopedNumThreads scope(1);
      PairGraph g = builder->Build(sims);
      serial_edges = EdgeSet(g);
      serial_edge_count = g.num_edges();
    }
    for (int threads : kThreadCounts) {
      ScopedNumThreads scope(threads);
      PairGraph g = builder->Build(sims);
      EXPECT_EQ(g.num_vertices(), inst.n);
      EXPECT_EQ(g.num_edges(), serial_edge_count)
          << builder->name() << " threads=" << threads;
      EXPECT_EQ(EdgeSet(g), serial_edges)
          << builder->name() << " threads=" << threads;
      EXPECT_TRUE(g.IsAcyclic()) << builder->name() << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, ParallelBuilderDifferential,
    ::testing::Values(Instance{1, 1, 4, 21}, Instance{2, 2, 1, 22},
                      Instance{17, 2, 3, 23}, Instance{60, 3, 4, 24},
                      Instance{120, 4, 5, 25}, Instance{200, 2, 10, 26},
                      Instance{150, 6, 2, 27},
                      // grid=1 ⇒ heavy duplicate clusters (equal vectors).
                      Instance{100, 3, 1, 28},
                      // Large enough that every parallel branch engages.
                      Instance{400, 3, 6, 29}));

// The three builder kinds must also agree with *each other* on the parallel
// path, not just each with its own serial run.
TEST(ParallelBuilderDifferential, BuilderKindsAgreePairwiseWhenParallel) {
  const PackedRows packed = RandomSims(77, 180, 4, 4);
  const SimilarityRows sims = packed.rows();
  ScopedNumThreads scope(8);
  auto expected = EdgeSet(BruteForceBuilder().Build(sims));
  EXPECT_EQ(EdgeSet(QuickSortBuilder(123).Build(sims)), expected);
  EXPECT_EQ(EdgeSet(RangeTreeBuilder().Build(sims)), expected);
}

// The grouped graph (Definition 5) must freeze to the same CSR adjacency,
// vertex for vertex, at every thread count — not just the same edge set.
TEST(ParallelGroupedGraphDifferential, CsrIdenticalAtEveryThreadCount) {
  const PackedRows sims = RandomSims(29, 400, 3, 50);
  const std::vector<VertexGroup> groups =
      SplitGrouper().Group(sims.rows(), 0.1);
  ASSERT_GT(groups.size(), 64u);  // more than one 64-bit word of targets
  GroupedGraph serial;
  {
    ScopedNumThreads scope(1);
    serial = BuildGroupedGraph(groups);
  }
  ASSERT_GT(serial.graph.num_edges(), 0u);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads scope(threads);
    GroupedGraph g = BuildGroupedGraph(groups);
    ASSERT_EQ(g.groups.size(), serial.groups.size());
    ExpectSameCsr(g.graph, serial.graph);
  }
}

// The grouped graph of Definition 5 by its definition: one
// GroupStrictlyDominates call per ordered group pair. Children are found in
// target order and parents in source order, so both lists are ascending, as
// a frozen graph's are.
struct EdgeLoopCsr {
  std::vector<std::vector<int>> children;
  std::vector<std::vector<int>> parents;
  size_t edges = 0;
};

EdgeLoopCsr GroupedEdgeLoop(const std::vector<VertexGroup>& groups) {
  const int g = static_cast<int>(groups.size());
  EdgeLoopCsr out;
  out.children.resize(groups.size());
  out.parents.resize(groups.size());
  for (int a = 0; a < g; ++a) {
    for (int b = 0; b < g; ++b) {
      if (a != b && GroupStrictlyDominates(groups[a].lower, groups[b].upper)) {
        out.children[a].push_back(b);
        out.parents[b].push_back(a);
        ++out.edges;
      }
    }
  }
  return out;
}

// A frozen graph's children and parents arrays equal the edge loop's.
void ExpectEqualsEdgeLoop(const PairGraph& got, const EdgeLoopCsr& want) {
  ASSERT_TRUE(got.frozen());
  ASSERT_EQ(got.num_vertices(), want.children.size());
  ASSERT_EQ(got.num_edges(), want.edges);
  for (int v = 0; v < static_cast<int>(got.num_vertices()); ++v) {
    const auto children = got.children(v);
    ASSERT_TRUE(std::equal(children.begin(), children.end(),
                           want.children[v].begin(), want.children[v].end()))
        << "children diverge at vertex " << v;
    const auto parents = got.parents(v);
    ASSERT_TRUE(std::equal(parents.begin(), parents.end(),
                           want.parents[v].begin(), want.parents[v].end()))
        << "parents diverge at vertex " << v;
  }
}

// BuildGroupedGraph equals the edge loop at every thread count.
void ExpectBuildEqualsEdgeLoop(const std::vector<VertexGroup>& groups,
                               const std::string& label) {
  const EdgeLoopCsr want = GroupedEdgeLoop(groups);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(label + ", " + std::to_string(groups.size()) +
                 " groups, threads=" + std::to_string(threads));
    ScopedNumThreads scope(threads);
    const GroupedGraph got = BuildGroupedGraph(groups);
    ASSERT_EQ(got.groups.size(), groups.size());
    ExpectEqualsEdgeLoop(got.graph, want);
  }
}

// The similarity rows a default run keeps from a generated table.
SimilarityTable ProfileRows(DatasetProfile profile, size_t records) {
  const double ratio = static_cast<double>(profile.num_entities) /
                       static_cast<double>(profile.num_records);
  profile.num_records = records;
  profile.num_entities = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(records) * ratio));
  const Table table = DatasetGenerator(51).Generate(profile);
  const FeatureCache features(table);
  return ComputeSimilarityTable(
      features, GenerateCandidates(features, 0.3, CandidateMethod::kAuto),
      0.2);
}

// Split's groups of the workloads' table shapes: hundreds of groups over a
// few row blocks, tens of thousands of edges.
TEST(ParallelGroupedGraphOracle, SplitGroupsOfGeneratedTables) {
  const SimilarityTable acm = ProfileRows(AcmPubProfile(1.0), 3000);
  const SimilarityTable cora = ProfileRows(CoraProfile(), 2000);
  for (double eps : {0.05, 0.1}) {
    const std::string where = " eps " + std::to_string(eps);
    ExpectBuildEqualsEdgeLoop(SplitGrouper().Group(acm.rows(), eps),
                              "ACMPub 3k" + where);
    ExpectBuildEqualsEdgeLoop(SplitGrouper().Group(cora.rows(), eps),
                              "Cora 2k" + where);
  }
}

// 3,000 singleton groups of random rows in which no value repeats within an
// attribute, so no bound ties: six row blocks of the build.
TEST(ParallelGroupedGraphOracle, DistinctRandomSingletons) {
  Rng rng(61);
  std::vector<std::vector<double>> rows(3000, std::vector<double>(3));
  for (auto& row : rows) {
    for (double& x : row) x = rng.UniformDouble(0.0, 1.0);
  }
  for (size_t k = 0; k < 3; ++k) {
    std::set<double> values;
    for (const auto& row : rows) values.insert(row[k]);
    ASSERT_EQ(values.size(), rows.size()) << "attribute " << k;
  }
  const PackedRows packed = PackRows(rows);
  const std::vector<VertexGroup> groups = SingletonGroups(packed.rows());
  ASSERT_EQ(groups.size(), 3000u);
  ExpectBuildEqualsEdgeLoop(groups, "random singletons");
}

// n groups of width m on a grid of eighths: each lower bound is a grid
// value, each upper bound the same or one step up, and zero is drawn with
// either sign. One group's lower bound often equals another's upper bound
// exactly, and -0.0 must tie with 0.0 as it does in GroupStrictlyDominates.
std::vector<VertexGroup> GridGroups(uint64_t seed, size_t n, size_t m) {
  Rng rng(seed);
  std::vector<VertexGroup> groups(n);
  for (size_t a = 0; a < n; ++a) {
    groups[a].members = {static_cast<int>(a)};
    for (size_t k = 0; k < m; ++k) {
      double lo = rng.UniformInt(0, 7) / 8.0;
      double hi = rng.Bernoulli(0.5) ? lo : lo + 1.0 / 8.0;
      if (lo == 0.0 && rng.Bernoulli(0.5)) lo = -0.0;
      if (hi == 0.0 && rng.Bernoulli(0.5)) hi = -0.0;
      groups[a].lower.push_back(lo);
      groups[a].upper.push_back(hi);
    }
  }
  return groups;
}

TEST(ParallelGroupedGraphOracle, SignedZerosAndBoundTies) {
  for (size_t m : {size_t{1}, size_t{3}, size_t{70}}) {
    // Below, at and above one 64-bit word of targets; 1,100 groups span
    // three 512-row blocks.
    for (size_t n : {0u, 1u, 63u, 64u, 65u, 1100u}) {
      const std::vector<VertexGroup> groups = GridGroups(7 * n + m, n, m);
      if (n >= 63) {
        // The inputs hold what they are meant to: a lower bound equal to
        // another group's upper bound, and zeros of both signs.
        bool tie = false;
        bool negative_zero = false;
        bool positive_zero = false;
        for (size_t a = 0; a < n; ++a) {
          for (size_t b = 0; b < n; ++b) {
            tie |= a != b && groups[a].lower[0] == groups[b].upper[0];
          }
          for (size_t k = 0; k < m; ++k) {
            negative_zero |= groups[a].lower[k] == 0.0 &&
                             std::signbit(groups[a].lower[k]);
            positive_zero |= groups[a].upper[k] == 0.0 &&
                             !std::signbit(groups[a].upper[k]);
          }
        }
        ASSERT_TRUE(tie) << "m " << m << " n " << n;
        ASSERT_TRUE(m == 1 || (negative_zero && positive_zero))
            << "m " << m << " n " << n;
      }
      ExpectBuildEqualsEdgeLoop(groups, "grid m " + std::to_string(m));
    }
  }
}

// The NonGroup path builds its singleton groups' graph with a base builder,
// the grouped path with the interval dominance of Definition 5. For
// singleton groups interval dominance is strict dominance, so every builder
// must freeze to the edge loop's CSR on real similarity rows, duplicate
// vectors included, at every thread count.
TEST(ParallelUngroupedGraphDifferential, BuildersMatchGroupedEdgeLoop) {
  // About a thousand pairs and a few hundred thousand closure edges each.
  DatasetProfile cora = CoraProfile();
  cora.num_records = 100;
  cora.num_entities = 20;
  const Table tables[] = {DatasetGenerator(51).Generate(AcmPubProfile(0.001)),
                          DatasetGenerator(52).Generate(cora)};
  const BruteForceBuilder brute;
  const QuickSortBuilder quick(17);
  const RangeTreeBuilder index;
  const GraphBuilder* builders[] = {&brute, &quick, &index};
  for (const Table& table : tables) {
    const FeatureCache features(table);
    const SimilarityTable pairs = ComputeSimilarityTable(
        features, GenerateCandidates(features, 0.3, CandidateMethod::kAuto),
        0.2);
    const SimilarityRows rows = pairs.rows();
    std::set<std::vector<double>> distinct;
    for (size_t v = 0; v < rows.n; ++v) {
      distinct.emplace(rows.row(v).begin(), rows.row(v).end());
    }
    ASSERT_LT(distinct.size(), rows.n) << "no duplicate vectors";
    const EdgeLoopCsr want = GroupedEdgeLoop(SingletonGroups(rows));
    ASSERT_GT(want.edges, 0u);
    for (int threads : kThreadCounts) {
      ScopedNumThreads scope(threads);
      for (const GraphBuilder* builder : builders) {
        SCOPED_TRACE(std::string(builder->name()) + " on " +
                     std::to_string(rows.n) + " pairs, threads=" +
                     std::to_string(threads));
        const GroupedGraph got = BuildUngrouped(*builder, rows);
        ASSERT_EQ(got.groups.size(), rows.n);
        ExpectEqualsEdgeLoop(got.graph, want);
      }
    }
  }
}

// A table whose word frequencies fall off like Zipf's law over a large
// vocabulary, so prefixes are selective. Records come in near-duplicate
// clusters (one or two words swapped) so pairs pass at high tau too.
Table LongTailTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  auto zipf_word = [&]() {
    // Inverse-CDF of a 1/rank distribution over ~3000 ranks.
    const double u = rng.UniformDouble(0.0, 1.0);
    const int rank = static_cast<int>(std::exp(u * std::log(3000.0)));
    return "w" + std::to_string(rank);
  };
  Table table(Schema({{"text", SimilarityFunction::kJaccard}}));
  std::vector<std::string> words;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 0 || words.empty()) {
      words.clear();
      const int len = rng.UniformInt(2, 14);
      for (int w = 0; w < len; ++w) words.push_back(zipf_word());
    } else {
      for (int edits = rng.UniformInt(0, 2); edits > 0; --edits) {
        words[rng.UniformIndex(words.size())] = zipf_word();
      }
    }
    std::string text;
    for (const std::string& w : words) text += w + " ";
    table.Add({-1, static_cast<int>(i / 3), {text}});
  }
  return table;
}

// The first `n` records of `table`.
Table Head(const Table& table, size_t n) {
  Table out(table.schema());
  for (size_t i = 0; i < n && i < table.num_records(); ++i) {
    out.Add(table.record(i));
  }
  return out;
}

// The prefix join equals the all-pairs scan byte for byte (order included)
// over tau × thread count × table size × table shape. The join probes
// 64-position ranges of its processing order per pool task (prefix_join.cc),
// so the sizes straddle that grain.
TEST(ParallelPrefixJoinDifferential, EqualsAllPairsByteForByte) {
  DatasetProfile acm = AcmPubProfile(0.005);  // ~334 records, dense vocab
  const Table dense = DatasetGenerator(41).Generate(acm);
  const Table long_tail = LongTailTable(300, 42);
  DatasetProfile restaurant = RestaurantProfile();
  restaurant.num_records = 100;
  restaurant.num_entities = 80;
  const Table base = DatasetGenerator(43).Generate(restaurant);
  // Every record three times over: identical token sets tie on size.
  Table duplicates(base.schema());
  for (size_t copy = 0; copy < 3; ++copy) {
    for (const Record& r : base.records()) duplicates.Add(r);
  }
  // Every third record token-less: Jaccard(∅, ∅) = 1 pairs them all.
  Table tokenless(base.schema());
  for (size_t i = 0; i < 300; ++i) {
    Record r = base.record(i % base.num_records());
    if (i % 3 == 1) {
      for (std::string& v : r.values) v.clear();
    }
    tokenless.Add(r);
  }
  const std::pair<const char*, const Table*> shapes[] = {
      {"dense", &dense},
      {"long_tail", &long_tail},
      {"duplicates", &duplicates},
      {"tokenless", &tokenless}};

  size_t nonempty = 0;
  for (const auto& [shape, table] : shapes) {
    for (size_t n : {0, 1, 2, 63, 64, 65, 300}) {
      const Table head = Head(*table, n);
      const FeatureCache features(head);
      for (double tau : {0.1, 0.3, 0.5, 0.8, 1.0}) {
        SCOPED_TRACE(std::string(shape) + " n=" + std::to_string(n) +
                     " tau=" + std::to_string(tau));
        std::vector<std::pair<int, int>> reference;
        {
          ScopedNumThreads scope(1);
          reference = AllPairsCandidates(features, tau);
        }
        if (!reference.empty()) ++nonempty;
        for (int threads : kThreadCounts) {
          ScopedNumThreads scope(threads);
          EXPECT_EQ(PrefixFilterJoin(features, tau), reference)
              << "threads=" << threads;
        }
      }
    }
  }
  // Not vacuous: most (shape, size, tau) cells of three records or more
  // have candidates.
  EXPECT_GT(nonempty, 60u);
}

// kAuto picks by counted work: the scan on a dense vocabulary, where the
// join's prefix posting lists are long, and the join on a long-tail one at
// tau 0.5, where its prefixes are short (at tau 0.3 this table's join work
// is 0.11 of the scan's, and the scan is the faster). Either way the result
// equals the other method's.
TEST(GenerateCandidatesTest, AutoDispatchesByCountedWork) {
  const Table dense = Head(DatasetGenerator(41).Generate(AcmPubProfile(0.005)),
                           300);
  const Table long_tail = LongTailTable(300, 42);
  struct Case {
    const char* shape;
    const Table* table;
    double tau;
    CandidateMethod picked;
    CandidateMethod other;
  };
  const Case cases[] = {
      {"dense", &dense, 0.3, CandidateMethod::kAllPairs,
       CandidateMethod::kPrefixJoin},
      {"long_tail", &long_tail, 0.5, CandidateMethod::kPrefixJoin,
       CandidateMethod::kAllPairs}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.shape);
    ASSERT_EQ(c.table->num_records(), 300u);
    const FeatureCache features(*c.table);
    CandidateStats stats;
    const std::vector<std::pair<int, int>> pairs = GenerateCandidates(
        features, c.tau, CandidateMethod::kAuto, {}, &stats);
    EXPECT_EQ(stats.resolved, c.picked);
    EXPECT_EQ(stats.scan_work, 300u * 299u / 2);
    EXPECT_GT(stats.join_work, 0u);
    EXPECT_EQ(AutoCandidateMethod(stats.scan_work, stats.join_work),
              c.picked);
    EXPECT_FALSE(pairs.empty());
    EXPECT_EQ(pairs, GenerateCandidates(features, c.tau, c.other));
  }
}

// Restores the ambient SIMD dispatch level when a test that flips it exits.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : saved_(ActiveSimdLevel()) {
    OverrideSimdLevel(level);
  }
  ~ScopedSimdLevel() { OverrideSimdLevel(saved_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel saved_;
};

// The candidate counters are exact: per chunk sums folded in chunk order, so
// they repeat at every thread count and SIMD level, for every method.
TEST(ParallelCandidateCounters, EqualAtEveryThreadCountAndSimdLevel) {
  DatasetProfile cora = CoraProfile();
  cora.num_records = 300;
  cora.num_entities = 60;
  const Table tables[] = {
      Head(DatasetGenerator(41).Generate(AcmPubProfile(0.005)), 300),
      DatasetGenerator(44).Generate(cora), LongTailTable(300, 42)};
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (BuiltWithAvx2() && CpuSupportsAvx2()) levels.push_back(SimdLevel::kAvx2);
  for (const Table& table : tables) {
    const FeatureCache features(table);
    for (CandidateMethod method :
         {CandidateMethod::kAllPairs, CandidateMethod::kPrefixJoin,
          CandidateMethod::kAuto}) {
      SCOPED_TRACE(std::string(CandidateMethodName(method)) + " " +
                   std::to_string(table.num_records()) + " records");
      CandidateStats want;
      std::vector<std::pair<int, int>> reference;
      {
        ScopedNumThreads threads(1);
        ScopedSimdLevel level(SimdLevel::kScalar);
        reference = GenerateCandidates(features, 0.3, method, {}, &want);
      }
      ASSERT_FALSE(reference.empty());
      EXPECT_GT(want.signature_checks, 0u);
      EXPECT_GT(want.verifications, 0u);
      EXPECT_LE(want.verifications, want.signature_checks);
      if (want.resolved == CandidateMethod::kAllPairs) {
        // The scan checks each pair of record classes once; scan_work
        // stays n(n-1)/2 over the records, which kAuto compares.
        const uint64_t classes = features.num_classes();
        EXPECT_EQ(want.signature_checks, classes * (classes - 1) / 2);
        EXPECT_EQ(want.scan_work, 300u * 299u / 2);
        EXPECT_EQ(want.posting_visits, 0u);
      } else {
        EXPECT_EQ(want.posting_visits, want.join_work);
      }
      for (SimdLevel simd : levels) {
        for (int threads : kThreadCounts) {
          SCOPED_TRACE(std::string(SimdLevelName(simd)) + " threads=" +
                       std::to_string(threads));
          ScopedNumThreads thread_scope(threads);
          ScopedSimdLevel level(simd);
          CandidateStats got;
          EXPECT_EQ(GenerateCandidates(features, 0.3, method, {}, &got),
                    reference);
          EXPECT_EQ(got.resolved, want.resolved);
          EXPECT_EQ(got.scan_work, want.scan_work);
          EXPECT_EQ(got.join_work, want.join_work);
          EXPECT_EQ(got.signature_checks, want.signature_checks);
          EXPECT_EQ(got.verifications, want.verifications);
          EXPECT_EQ(got.posting_visits, want.posting_visits);
        }
      }
    }
  }
}

TEST(ParallelSimilarityDifferential, CandidatesAndVectorsMatchSerial) {
  // Varying table sizes / attribute counts via the three dataset profiles.
  struct TableCase {
    DatasetProfile profile;
    uint64_t seed;
  };
  DatasetProfile restaurant = RestaurantProfile();
  restaurant.num_records = 80;
  restaurant.num_entities = 60;
  DatasetProfile cora = CoraProfile();
  cora.num_records = 60;
  cora.num_entities = 12;
  DatasetProfile acm = AcmPubProfile(0.002);
  std::vector<TableCase> cases = {{restaurant, 11}, {cora, 12}, {acm, 13}};

  for (const TableCase& c : cases) {
    Table table = DatasetGenerator(c.seed).Generate(c.profile);

    std::vector<std::pair<int, int>> serial_candidates;
    std::vector<SimilarPair> serial_pairs;
    {
      ScopedNumThreads scope(1);
      const FeatureCache features(table);
      serial_candidates = AllPairsCandidates(features, 0.3);
      serial_pairs = ComputePairSimilarities(features, serial_candidates, 0.2);
    }
    ASSERT_FALSE(serial_candidates.empty()) << c.profile.name;

    for (int threads : kThreadCounts) {
      ScopedNumThreads scope(threads);
      const FeatureCache features(table);
      // Candidate generation: byte-identical, including order.
      EXPECT_EQ(AllPairsCandidates(features, 0.3), serial_candidates)
          << c.profile.name << " threads=" << threads;
      // Similarity vectors: positionally identical, doubles bit-for-bit.
      auto pairs = ComputePairSimilarities(features, serial_candidates, 0.2);
      ASSERT_EQ(pairs.size(), serial_pairs.size());
      for (size_t p = 0; p < pairs.size(); ++p) {
        EXPECT_EQ(pairs[p].i, serial_pairs[p].i);
        EXPECT_EQ(pairs[p].j, serial_pairs[p].j);
        ASSERT_EQ(pairs[p].sims.size(), serial_pairs[p].sims.size());
        for (size_t k = 0; k < pairs[p].sims.size(); ++k) {
          EXPECT_EQ(pairs[p].sims[k], serial_pairs[p].sims[k])
              << c.profile.name << " threads=" << threads << " pair=" << p
              << " attr=" << k;
        }
      }
    }
  }
}

// End-to-end over the similarity stage: the graph built from a parallel
// similarity computation equals the one built fully serially.
TEST(ParallelSimilarityDifferential, GraphFromParallelPipelineMatchesSerial) {
  DatasetProfile profile = RestaurantProfile();
  profile.num_records = 100;
  profile.num_entities = 80;
  Table table = DatasetGenerator(99).Generate(profile);

  std::set<std::pair<int, int>> serial_edges;
  {
    ScopedNumThreads scope(1);
    const FeatureCache features(table);
    auto candidates = AllPairsCandidates(features, 0.3);
    auto pairs = ComputePairSimilarities(features, candidates, 0.2);
    serial_edges = EdgeSet(BuildPairGraph(BruteForceBuilder(), pairs));
  }
  for (int threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    const FeatureCache features(table);
    auto candidates = AllPairsCandidates(features, 0.3);
    auto pairs = ComputePairSimilarities(features, candidates, 0.2);
    EXPECT_EQ(EdgeSet(BuildPairGraph(BruteForceBuilder(), pairs)),
              serial_edges)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace power
