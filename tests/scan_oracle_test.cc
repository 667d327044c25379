// An oracle for candidate generation that shares nothing with the signature
// filter: a plain double loop of SortedIntersectionSize and
// RecordJaccardAtLeast over every pair. The all-pairs scan and every
// GenerateCandidates method must return its vector at every tau, thread
// count and SIMD level, on tables built to reach the bit-sliced scan's
// edges: empty and tiny tables, one token count across step boundaries,
// counters of 8 bits and more, and signatures whose bits collide. The scan
// decides classes of records with equal cells: its signature checks must
// equal the class pairs, and its verifications the class pairs the
// row-at-a-time signature table passes, both counted over the oracle's own
// classes of cell tuples. A property test checks the bit-sliced lane
// decision against that table directly. The edge suite runs the whole
// pipeline, with a perfect crowd, on the degenerate tables among these.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/pair_generator.h"
#include "blocking/signature_filter.h"
#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "data/table.h"
#include "sim/feature_cache.h"
#include "sim/pair.h"
#include "sim/simd_kernels.h"
#include "sim/tokenizer.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace power {
namespace {

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

Table TextTable() {
  return Table(Schema({{"text", SimilarityFunction::kJaccard}}));
}

std::string Join(const std::vector<std::string>& words) {
  std::string text;
  for (const std::string& w : words) text += w + " ";
  return text;
}

// `n` records of count(rng) distinct words from draw(rng), in clusters of
// three near duplicates: a cluster's later records swap up to two words of
// the first for words it lacks, so pairs pass at high tau too and the count
// stays.
template <typename Count, typename Draw>
Table ClusteredTable(size_t n, uint64_t seed, Count count, Draw draw) {
  Rng rng(seed);
  Table table = TextTable();
  std::vector<std::string> words;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      const size_t size = count(&rng);
      std::set<std::string> distinct;
      while (distinct.size() < size) distinct.insert(draw(&rng));
      words.assign(distinct.begin(), distinct.end());
    } else {
      for (int edits = rng.UniformInt(0, 2); edits > 0; --edits) {
        const std::string w = draw(&rng);
        if (std::find(words.begin(), words.end(), w) == words.end()) {
          words[rng.UniformIndex(words.size())] = w;
        }
      }
    }
    table.Add({-1, static_cast<int>(i / 3), {Join(words)}});
  }
  return table;
}

// Every record has exactly `size` distinct words.
Table FixedCountTable(size_t n, size_t size, uint64_t seed) {
  return ClusteredTable(
      n, seed, [size](Rng*) { return size; },
      [size](Rng* rng) {
        return "w" + std::to_string(rng->UniformIndex(4 * size));
      });
}

// Records of 40-120 words from a 2000-word vocabulary: popcounts of 64 and
// more, so the scan's counters are 8 bits wide or wider.
Table WideTable(size_t n, uint64_t seed) {
  return ClusteredTable(
      n, seed,
      [](Rng* rng) { return static_cast<size_t>(rng->UniformInt(40, 120)); },
      [](Rng* rng) { return "v" + std::to_string(rng->UniformIndex(2000)); });
}

// Records of 5-30 words drawn from the words whose ids hash to the first
// eight signature bits, so most records have fewer signature bits than
// tokens. A vocabulary record leads the table and fixes the ids: the cache
// interns by first occurrence, so the first record's ids do not depend on
// what follows.
Table CollidingTable(size_t n, uint64_t seed) {
  Table out = TextTable();
  std::vector<std::string> all;
  for (int w = 0; w < 1024; ++w) all.push_back("c" + std::to_string(w));
  out.Add({-1, 0, {Join(all)}});
  std::vector<std::string> colliding;
  {
    const FeatureCache features(out);
    for (int32_t id : features.RecordTokenIds(0)) {
      if (SignatureBit(id) < 8) {
        colliding.emplace_back(features.TokenString(id));
      }
    }
  }
  const Table records = ClusteredTable(
      n, seed,
      [&](Rng* rng) {
        return std::min(colliding.size(),
                        static_cast<size_t>(rng->UniformInt(5, 30)));
      },
      [&](Rng* rng) { return colliding[rng->UniformIndex(colliding.size())]; });
  for (const Record& r : records.records()) out.Add(r);
  return out;
}

Table Resized(DatasetProfile profile, size_t records, uint64_t seed) {
  const double ratio = static_cast<double>(profile.num_entities) /
                       static_cast<double>(profile.num_records);
  profile.num_records = records;
  profile.num_entities = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(records) * ratio));
  return DatasetGenerator(seed).Generate(profile);
}

Table Head(const Table& table, size_t n) {
  Table out(table.schema());
  for (size_t i = 0; i < n && i < table.num_records(); ++i) {
    out.Add(table.record(i));
  }
  return out;
}

// Cora's records widened to 70 attributes, each a copy of one of the base
// columns (value and similarity function), so every stage after blocking
// sees vectors wider than a 64-bit word has bits.
Table SeventyAttributeTable(size_t n, uint64_t seed) {
  const Table base = Resized(CoraProfile(), n, seed);
  const size_t m = base.schema().num_attributes();
  std::vector<Attribute> attrs;
  for (size_t k = 0; k < 70; ++k) {
    attrs.push_back(
        {"a" + std::to_string(k), base.schema().attribute(k % m).sim});
  }
  Table out{Schema(std::move(attrs))};
  for (const Record& r : base.records()) {
    Record wide{-1, r.entity_id, {}};
    for (size_t k = 0; k < 70; ++k) wide.values.push_back(r.values[k % m]);
    out.Add(std::move(wide));
  }
  return out;
}

// An edit-similarity column of 56-72 bytes beside a Jaccard column, in
// clusters of three whose later records change one letter, so the batched
// Myers kernel meets patterns and texts on both sides of its 64-byte word.
Table EditWordTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table out(Schema({{"title", SimilarityFunction::kEditSimilarity},
                    {"text", SimilarityFunction::kJaccard}}));
  std::string title;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      const size_t len = 56 + rng.UniformIndex(17);
      title.clear();
      while (title.size() < len) {
        title += title.empty() || rng.Bernoulli(0.8)
                     ? static_cast<char>('a' + rng.UniformInt(0, 7))
                     : ' ';
      }
    } else {
      title[rng.UniformIndex(title.size())] =
          static_cast<char>('a' + rng.UniformInt(0, 7));
    }
    out.Add({-1, static_cast<int>(i / 3), {title, title}});
  }
  return out;
}

Table OracleTable(const std::string& shape) {
  if (shape == "records_0" || shape == "records_1" || shape == "records_2") {
    return Head(Resized(AcmPubProfile(1.0), 50, 61),
                static_cast<size_t>(shape.back() - '0'));
  }
  if (shape == "identical") {
    const Table base = Resized(CoraProfile(), 10, 62);
    Table out(base.schema());
    for (int i = 0; i < 300; ++i) out.Add(base.record(0));
    return out;
  }
  if (shape == "empty") {
    const Table base = Resized(CoraProfile(), 10, 63);
    Table out(base.schema());
    for (int i = 0; i < 300; ++i) {
      Record r = base.record(0);
      for (std::string& v : r.values) v.clear();
      out.Add(r);
    }
    return out;
  }
  if (shape == "count_255") return FixedCountTable(255, 6, 64);
  if (shape == "count_256") return FixedCountTable(256, 6, 65);
  if (shape == "count_257") return FixedCountTable(257, 6, 66);
  if (shape == "count_513") return FixedCountTable(513, 6, 67);
  if (shape == "wide") return WideTable(400, 68);
  if (shape == "colliding") return CollidingTable(400, 69);
  if (shape == "attributes_70") return SeventyAttributeTable(150, 72);
  if (shape == "edit_word") return EditWordTable(300, 73);
  if (shape == "acm_1500") return Resized(AcmPubProfile(1.0), 1500, 70);
  if (shape == "cora_1500") return Resized(CoraProfile(), 1500, 71);
  ADD_FAILURE() << "unknown shape " << shape;
  return TextTable();
}

int MaxPopcount(const FeatureCache& features) {
  int k = 0;
  for (const TokenSignature& s : features.ClassSignatures()) {
    k = std::max(k, SignatureBits(s).count);
  }
  return k;
}

class ParallelScanOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelScanOracle, EveryMethodMatchesDoubleLoop) {
  const Table table = OracleTable(GetParam());
  const FeatureCache features(table);
  const size_t n = features.num_records();
  std::vector<TokenSignature> sigs(n);
  for (size_t i = 0; i < n; ++i) sigs[i] = features.RecordSignature(i);
  if (GetParam() == "wide") {
    ASSERT_GE(MaxPopcount(features), 64);
  }
  if (GetParam() == "colliding") {
    size_t collided = 0;
    for (size_t i = 1; i < n; ++i) {
      const size_t p = static_cast<size_t>(SignatureBits(sigs[i]).count);
      ASSERT_LE(p, 8u);
      if (p < features.RecordTokenIds(i).size()) ++collided;
    }
    ASSERT_GT(collided, n / 2);
  }
  auto distance = [&](size_t i, size_t j) {
    uint32_t h = 0;
    for (size_t w = 0; w < 4; ++w) {
      h += static_cast<uint32_t>(
          std::popcount(sigs[i].words[w] ^ sigs[j].words[w]));
    }
    return h;
  };
  auto size = [&](size_t i) { return features.RecordTokenIds(i).size(); };
  // Every pair's exact intersection, once.
  struct Facts {
    int i;
    int j;
    uint32_t inter;
  };
  std::vector<Facts> facts;
  if (n > 1) facts.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      facts.push_back({static_cast<int>(i), static_cast<int>(j),
                       static_cast<uint32_t>(SortedIntersectionSize(
                           features.RecordTokenIds(i),
                           features.RecordTokenIds(j)))});
    }
  }
  // The scan decides classes of records with equal cells, so its counters
  // count class pairs. The oracle's own classes: each distinct cell tuple,
  // in first-occurrence order, by its first record.
  std::vector<size_t> firsts;
  {
    std::set<std::vector<std::string>> seen;
    for (size_t i = 0; i < n; ++i) {
      if (seen.insert(table.record(i).values).second) firsts.push_back(i);
    }
  }
  const uint64_t class_pairs =
      firsts.size() * (std::max<size_t>(firsts.size(), 1) - 1) / 2;
  size_t max_size = 0;
  for (size_t i = 0; i < n; ++i) {
    max_size = std::max(max_size, features.RecordTokenIds(i).size());
  }
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (BuiltWithAvx2() && CpuSupportsAvx2()) levels.push_back(SimdLevel::kAvx2);
  size_t nonempty = 0;
  for (double tau : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    SCOPED_TRACE("tau=" + std::to_string(tau));
    std::vector<std::pair<int, int>> want;
    for (const Facts& f : facts) {
      if (RecordJaccardAtLeast(f.inter, size(static_cast<size_t>(f.i)),
                               size(static_cast<size_t>(f.j)), tau)) {
        want.emplace_back(f.i, f.j);
      }
    }
    // The class pairs the row-at-a-time signature table passes.
    uint64_t passes = 0;
    SignatureLimits limits(max_size, tau);
    for (size_t x = 0; x < firsts.size(); ++x) {
      limits.Reset(size(firsts[x]));
      for (size_t y = x + 1; y < firsts.size(); ++y) {
        if (limits.MayPass(size(firsts[y]), distance(firsts[x], firsts[y]))) {
          ++passes;
        }
      }
    }
    if (!want.empty()) ++nonempty;
    for (SimdLevel simd : levels) {
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::string(SimdLevelName(simd)) +
                     " threads=" + std::to_string(threads));
        ScopedNumThreads thread_scope(threads);
        ScopedSimdLevel level(simd);
        CandidateStats stats;
        ASSERT_EQ(AllPairsCandidates(features, tau, &stats), want);
        EXPECT_EQ(stats.signature_checks, class_pairs);
        EXPECT_EQ(stats.verifications, passes);
        for (CandidateMethod method :
             {CandidateMethod::kAllPairs, CandidateMethod::kPrefixJoin}) {
          ASSERT_EQ(GenerateCandidates(features, tau, method), want)
              << CandidateMethodName(method);
        }
      }
    }
  }
  // Not vacuous: from two records up, some tau has candidates.
  if (n >= 2) {
    EXPECT_GT(nonempty, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelScanOracle,
    ::testing::Values("records_0", "records_1", "records_2", "identical",
                      "empty", "count_255", "count_256", "count_257",
                      "count_513", "wide", "colliding", "attributes_70",
                      "edit_word", "acm_1500", "cora_1500"),
    [](const ::testing::TestParamInfo<std::string>& shape) {
      return shape.param;
    });

// Everything in a PowerResult but its timings.
struct RunFacts {
  size_t questions;
  size_t iterations;
  size_t num_pairs;
  size_t num_groups;
  size_t num_distinct_rows;
  size_t num_record_classes;
  size_t num_edges;
  size_t num_blue_groups;
  bool budget_exhausted;
  std::vector<uint64_t> matched;  // sorted

  bool operator==(const RunFacts&) const = default;
};

class ParallelEdgeRun : public ::testing::TestWithParam<std::string> {};

// PowerFramework::Run end to end, Power and Power+, on the oracle's
// degenerate shapes with a perfect crowd: the candidates, the similarity
// table, grouping, the ask-and-color loop and Finish must give one result
// at every thread count, ask at most one question per group, never stop on
// a budget or leave a group BLUE, and match only candidate pairs.
TEST_P(ParallelEdgeRun, PerfectCrowdRunIsThreadInvariantAndBounded) {
  const Table table = OracleTable(GetParam());
  std::set<uint64_t> candidates;
  {
    const FeatureCache features(table);
    for (const auto& [i, j] :
         GenerateCandidates(features, PowerConfig().prune_tau,
                            CandidateMethod::kAllPairs)) {
      candidates.insert(PairKey(i, j));
    }
  }
  for (bool error_tolerant : {false, true}) {
    SCOPED_TRACE(error_tolerant ? "Power+" : "Power");
    std::vector<RunFacts> runs;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      CrowdOracle crowd(&table, {1.0, 1.0}, WorkerModel::kExactAccuracy, 5,
                        74);
      PowerConfig config;
      config.error_tolerant = error_tolerant;
      config.num_threads = threads;
      const PowerResult result = PowerFramework(config).Run(table, &crowd);
      RunFacts facts{result.questions,
                     result.iterations,
                     result.num_pairs,
                     result.num_groups,
                     result.num_distinct_rows,
                     result.num_record_classes,
                     result.num_edges,
                     result.num_blue_groups,
                     result.budget_exhausted,
                     {result.matched_pairs.begin(),
                      result.matched_pairs.end()}};
      std::sort(facts.matched.begin(), facts.matched.end());
      EXPECT_EQ(facts.num_pairs, candidates.size());
      EXPECT_LE(facts.questions, facts.num_groups);
      EXPECT_FALSE(facts.budget_exhausted);
      EXPECT_EQ(facts.num_blue_groups, 0u);
      EXPECT_TRUE(std::includes(candidates.begin(), candidates.end(),
                                facts.matched.begin(), facts.matched.end()));
      runs.push_back(std::move(facts));
    }
    EXPECT_EQ(runs[1], runs[0]);
    EXPECT_EQ(runs[2], runs[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelEdgeRun,
    ::testing::Values("records_0", "records_1", "records_2", "identical",
                      "empty", "wide", "colliding", "attributes_70",
                      "edit_word"),
    [](const ::testing::TestParamInfo<std::string>& shape) {
      return shape.param;
    });

// The bit-sliced decision for one lane is SignatureLimits' decision for that
// pair: for random, colliding, all-zero and all-one signatures laid out in
// steps (a full one and a short one), two rows of each kind, every pair of
// sizes up to 40 and several tau.
TEST(SignatureStepsProperty, LaneDecisionMatchesSignatureLimits) {
  Rng rng(20261019);
  std::vector<TokenSignature> sigs;
  for (size_t t = 0; t < 300; ++t) {
    TokenSignature s;
    switch (t % 5) {
      case 0:  // random words
        for (uint64_t& w : s.words) w = rng.Fork();
        break;
      case 1:  // sparse random bits
        for (int b = rng.UniformInt(0, 20); b > 0; --b) {
          const size_t bit = rng.UniformIndex(256);
          s.words[bit / 64] |= uint64_t{1} << (bit % 64);
        }
        break;
      case 2:  // colliding: a few bits shared by many
        for (int b = rng.UniformInt(0, 4); b > 0; --b) {
          const size_t bit = rng.UniformIndex(6);
          s.words[0] |= uint64_t{1} << bit;
        }
        break;
      case 3:  // all zero
        break;
      default:  // all one
        for (uint64_t& w : s.words) w = ~uint64_t{0};
        break;
    }
    sigs.push_back(s);
  }
  int max_popcount = 0;
  for (const TokenSignature& s : sigs) {
    max_popcount = std::max(max_popcount, SignatureBits(s).count);
  }
  ASSERT_EQ(max_popcount, 256);  // the widest counters: 10 bits
  SignatureSteps steps(max_popcount);
  std::vector<int> ids(sigs.size());
  for (size_t t = 0; t < ids.size(); ++t) ids[t] = static_cast<int>(t);
  const size_t full = SignatureSteps::kLanes;
  steps.Add(sigs, std::span<const int>(ids).first(full));
  steps.Add(sigs, std::span<const int>(ids).subspan(full));
  ASSERT_EQ(steps.size(), 2u);
  // Two rows of each kind, and every lane's distance to them.
  const size_t rows[] = {0, 5, 1, 6, 2, 7, 3, 8, 4, 9};
  std::vector<std::vector<uint32_t>> distance;
  for (size_t x : rows) {
    distance.emplace_back();
    for (const TokenSignature& y : sigs) {
      uint32_t h = 0;
      for (size_t w = 0; w < 4; ++w) {
        h += static_cast<uint32_t>(
            std::popcount(sigs[x].words[w] ^ y.words[w]));
      }
      distance.back().push_back(h);
    }
  }
  size_t passed = 0;
  size_t failed = 0;
  for (double tau : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    SignatureLimits limits(40, tau);
    for (size_t a = 0; a <= 40; ++a) {
      limits.Reset(a);
      for (size_t b = 0; b <= 40; ++b) {
        for (size_t r = 0; r < std::size(rows); ++r) {
          const SignatureBits row(sigs[rows[r]]);
          for (size_t step = 0; step < 2; ++step) {
            const size_t count = step == 0 ? full : sigs.size() - full;
            // Every lane, the odd lanes, and two ranges of one and two
            // words, as the scan's short steps ask.
            LaneMask odd = LaneRange(0, count);
            for (uint64_t& w : odd.words) w &= 0xAAAAAAAAAAAAAAAAull;
            const LaneMask masks[] = {
                LaneRange(0, count), odd,
                LaneRange(0, std::min<size_t>(count, 100)),
                LaneRange(30, std::min<size_t>(count, 60))};
            for (const LaneMask& mask : masks) {
              const LaneMask pass =
                  steps.MayPass(step, row, limits.Limit(b), mask);
              for (size_t lane = 0; lane < SignatureSteps::kLanes; ++lane) {
                const bool asked = (mask.words[lane / 64] >> (lane % 64)) & 1;
                const bool passed_lane =
                    (pass.words[lane / 64] >> (lane % 64)) & 1;
                if (!asked) {
                  ASSERT_FALSE(passed_lane) << "lane " << lane;
                  continue;
                }
                const uint32_t h = distance[r][step * full + lane];
                const bool want = limits.MayPass(b, h);
                ASSERT_EQ(passed_lane, want)
                    << "tau " << tau << " a " << a << " b " << b << " row "
                    << rows[r] << " lane " << lane << " h " << h;
                ++(want ? passed : failed);
              }
            }
          }
        }
      }
    }
  }
  // Not vacuous: both decisions occur often.
  EXPECT_GT(passed, 100000u);
  EXPECT_GT(failed, 100000u);
}

}  // namespace
}  // namespace power
