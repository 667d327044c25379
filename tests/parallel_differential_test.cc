// Differential harness for the parallel hot paths: on randomized instances,
// every parallelized stage — candidate generation (the all-pairs scan and
// the prefix join), similarity vectors, all four graph builders and the
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

std::vector<std::vector<double>> RandomSims(uint64_t seed, size_t n, size_t m,
                                            int grid) {
  Rng rng(seed);
  std::vector<std::vector<double>> sims(n, std::vector<double>(m));
  for (auto& v : sims) {
    for (auto& x : v) {
      x = static_cast<double>(rng.UniformIndex(grid + 1)) / grid;
    }
  }
  return sims;
}

struct Instance {
  size_t n;     // vertices
  size_t m;     // attributes
  int grid;     // distinct values per attribute (ties ⇔ duplicate clusters)
  uint64_t seed;
};

class ParallelBuilderDifferential : public ::testing::TestWithParam<Instance> {
};

TEST_P(ParallelBuilderDifferential, AllBuildersMatchSerialAtEveryThreadCount) {
  const Instance& inst = GetParam();
  auto sims = RandomSims(inst.seed, inst.n, inst.m, inst.grid);

  const BruteForceBuilder brute;
  const QuickSortBuilder quick(inst.seed * 31 + 5);
  const RangeTreeBuilder index;
  const RangeTreeMdBuilder index_md;
  const GraphBuilder* builders[] = {&brute, &quick, &index, &index_md};

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

// The four builder kinds must also agree with *each other* on the parallel
// path, not just each with its own serial run.
TEST(ParallelBuilderDifferential, BuilderKindsAgreePairwiseWhenParallel) {
  auto sims = RandomSims(77, 180, 4, 4);
  ScopedNumThreads scope(8);
  auto expected = EdgeSet(BruteForceBuilder().Build(sims));
  EXPECT_EQ(EdgeSet(QuickSortBuilder(123).Build(sims)), expected);
  EXPECT_EQ(EdgeSet(RangeTreeBuilder().Build(sims)), expected);
  EXPECT_EQ(EdgeSet(RangeTreeMdBuilder().Build(sims)), expected);
}

// The grouped graph (Definition 5) must freeze to the same CSR adjacency,
// vertex for vertex, at every thread count — not just the same edge set.
TEST(ParallelGroupedGraphDifferential, CsrIdenticalAtEveryThreadCount) {
  auto sims = RandomSims(29, 400, 3, 50);
  const std::vector<VertexGroup> groups = SplitGrouper().Group(sims, 0.1);
  ASSERT_GT(groups.size(), 64u);  // several 16-row chunks of the edge scan
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
    ASSERT_TRUE(g.graph.frozen());
    ASSERT_EQ(g.groups.size(), serial.groups.size());
    ASSERT_EQ(g.graph.num_vertices(), serial.graph.num_vertices());
    ASSERT_EQ(g.graph.num_edges(), serial.graph.num_edges());
    EXPECT_EQ(g.graph.all_sims(), serial.graph.all_sims());
    for (int v = 0; v < static_cast<int>(g.graph.num_vertices()); ++v) {
      auto gc = g.graph.children(v), sc = serial.graph.children(v);
      ASSERT_TRUE(std::equal(gc.begin(), gc.end(), sc.begin(), sc.end()))
          << "children diverge at vertex " << v;
      auto gp = g.graph.parents(v), sp = serial.graph.parents(v);
      ASSERT_TRUE(std::equal(gp.begin(), gp.end(), sp.begin(), sp.end()))
          << "parents diverge at vertex " << v;
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
      serial_candidates = AllPairsCandidates(table, 0.3);
      serial_pairs = ComputePairSimilarities(table, serial_candidates, 0.2);
    }
    ASSERT_FALSE(serial_candidates.empty()) << c.profile.name;

    for (int threads : kThreadCounts) {
      ScopedNumThreads scope(threads);
      // Candidate generation: byte-identical, including order.
      EXPECT_EQ(AllPairsCandidates(table, 0.3), serial_candidates)
          << c.profile.name << " threads=" << threads;
      // Similarity vectors: positionally identical, doubles bit-for-bit.
      auto pairs = ComputePairSimilarities(table, serial_candidates, 0.2);
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
    auto candidates = AllPairsCandidates(table, 0.3);
    auto pairs = ComputePairSimilarities(table, candidates, 0.2);
    serial_edges = EdgeSet(BuildPairGraph(BruteForceBuilder(), pairs));
  }
  for (int threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    auto candidates = AllPairsCandidates(table, 0.3);
    auto pairs = ComputePairSimilarities(table, candidates, 0.2);
    EXPECT_EQ(EdgeSet(BuildPairGraph(BruteForceBuilder(), pairs)),
              serial_edges)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace power
