// Differential tests for the interned similarity table: every row that the
// pooled ComputeSimilarityTable gives a pair equals the single-pair string
// path ComputePairSimilarity(const Table&, ...), which shares no code with
// the feature cache, bit for bit, at 1, 2 and 8 threads; the distinct rows
// and the row index equal a serial first-occurrence reference at every
// thread count and SIMD level; and the nested entry points that remain (the
// unpacked ComputePairSimilarities, the packing RunOnPairs) give identical
// results.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "core/power.h"
#include "crowd/answer_cache.h"
#include "crowd/pair_oracle.h"
#include "data/generator.h"
#include "sim/feature_cache.h"
#include "sim/simd_kernels.h"
#include "sim/similarity.h"
#include "sim/similarity_matrix.h"
#include "util/parallel.h"

namespace power {
namespace {

constexpr double kFloor = 0.2;
constexpr size_t kPairGrain = 1024;  // similarity_matrix.cc's chunk size

Table ProfileTable(DatasetProfile profile, size_t records) {
  const double ratio = static_cast<double>(profile.num_entities) /
                       static_cast<double>(profile.num_records);
  profile.num_records = records;
  profile.num_entities = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(records) * ratio));
  return DatasetGenerator(51).Generate(profile);
}

// ACMPub's shape: bigram Jaccard on every attribute.
Table AcmPubShaped() { return ProfileTable(AcmPubProfile(1.0), 1500); }

// Cora's shape with every other attribute on edit similarity, so the
// batched Myers pass fills those columns.
Table CoraShapedWithEditColumns(size_t records = 600) {
  DatasetProfile profile = CoraProfile();
  for (size_t k = 1; k < profile.attributes.size(); k += 2) {
    profile.attributes[k].sim = SimilarityFunction::kEditSimilarity;
  }
  return ProfileTable(profile, records);
}

// True iff some run of pairs sharing a left record crosses a chunk
// boundary, so the batched pass sees the run split.
bool SomeRunStraddlesAChunk(
    const std::vector<std::pair<int, int>>& candidates) {
  for (size_t p = kPairGrain; p < candidates.size(); p += kPairGrain) {
    if (candidates[p - 1].first == candidates[p].first) return true;
  }
  return false;
}

bool SameBits(std::span<const double> a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), b.size() * sizeof(double)) == 0;
}

void ExpectRowsMatchSinglePair(const Table& table, const std::string& label) {
  FeatureCache features(table);
  const std::vector<std::pair<int, int>> candidates =
      AllPairsCandidates(features, PowerConfig().prune_tau);
  ASSERT_FALSE(candidates.empty()) << label;
  std::vector<SimilarPair> want;
  want.reserve(candidates.size());
  for (const auto& [i, j] : candidates) {
    want.push_back(ComputePairSimilarity(table, i, j, kFloor));
  }
  for (int threads : {1, 2, 8}) {
    ScopedNumThreads scope(threads);
    const SimilarityTable got =
        ComputeSimilarityTable(features, candidates, kFloor);
    ASSERT_EQ(got.size(), candidates.size()) << label;
    ASSERT_EQ(got.m, table.schema().num_attributes()) << label;
    ASSERT_EQ(got.row_of.size(), got.size()) << label;
    ASSERT_EQ(got.distinct.size(), got.num_distinct * got.m) << label;
    size_t mismatches = 0;
    for (size_t p = 0; p < got.size(); ++p) {
      if (got.ids[p] != std::make_pair(want[p].i, want[p].j) ||
          !SameBits(got.row(p), want[p].sims)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << label << " threads " << threads;
  }
}

TEST(SimilarityTableDifferential, BigramRowsMatchSinglePairBitForBit) {
  ExpectRowsMatchSinglePair(AcmPubShaped(), "ACMPub");
}

TEST(SimilarityTableDifferential, EditColumnsMatchSinglePairBitForBit) {
  const Table table = CoraShapedWithEditColumns();
  FeatureCache features(table);
  ASSERT_TRUE(SomeRunStraddlesAChunk(
      AllPairsCandidates(features, PowerConfig().prune_tau)));
  ExpectRowsMatchSinglePair(table, "Cora with edit columns");
}

// A numeric column holding text strtod reads but that is not a finite
// number. The table path parses it in the feature cache, the single-pair
// path in NumericSimilarity; both fall back to bigram Jaccard, so two equal
// cells score 1.
TEST(SimilarityTableDifferential, NumericColumnMatchesSinglePairBitForBit) {
  Table table(Schema({{"title", SimilarityFunction::kJaccard},
                      {"year", SimilarityFunction::kNumeric}}));
  const std::vector<std::string> years = {"inf",  "nan",    "NaN", "1e999",
                                          "-inf", "1994",   " 1995 ",
                                          "12a",  "0",      "-0"};
  for (size_t copy = 0; copy < 3; ++copy) {
    for (size_t y = 0; y < years.size(); ++y) {
      table.Add({-1, static_cast<int>(y),
                 {"partial order crowd " + std::to_string(y % 3),
                  years[(y + copy) % years.size()]}});
    }
  }
  ExpectRowsMatchSinglePair(table, "numeric column");

  FeatureCache features(table);
  const std::vector<std::pair<int, int>> candidates =
      AllPairsCandidates(features, PowerConfig().prune_tau);
  const SimilarityTable got =
      ComputeSimilarityTable(features, candidates, kFloor);
  size_t equal_cells = 0;
  for (size_t p = 0; p < got.size(); ++p) {
    const auto [i, j] = got.ids[p];
    if (table.Value(i, 1) != table.Value(j, 1)) continue;
    ++equal_cells;
    EXPECT_EQ(got.row(p)[1], 1.0) << "year '" << table.Value(i, 1) << "'";
  }
  EXPECT_GT(equal_cells, years.size());
}

TEST(SimilarityTableDifferential, PairSimilaritiesEqualUnpackedTable) {
  const Table table = CoraShapedWithEditColumns();
  FeatureCache features(table);
  const std::vector<std::pair<int, int>> candidates =
      AllPairsCandidates(features, PowerConfig().prune_tau);
  const SimilarityTable packed =
      ComputeSimilarityTable(features, candidates, kFloor);
  const std::vector<SimilarPair> pairs =
      ComputePairSimilarities(features, candidates, kFloor);
  ASSERT_EQ(pairs.size(), packed.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(std::make_pair(pairs[p].i, pairs[p].j), packed.ids[p]);
    EXPECT_TRUE(SameBits(packed.row(p), pairs[p].sims)) << "pair " << p;
  }
  const SimilarityTable repacked = PackSimilarPairs(pairs);
  EXPECT_EQ(repacked.ids, packed.ids);
  EXPECT_EQ(repacked.m, packed.m);
  EXPECT_EQ(repacked.row_of, packed.row_of);
  EXPECT_EQ(repacked.num_distinct, packed.num_distinct);
  ASSERT_EQ(repacked.distinct.size(), packed.distinct.size());
  EXPECT_EQ(std::memcmp(repacked.distinct.data(), packed.distinct.data(),
                        packed.distinct.size() * sizeof(double)),
            0);
}

std::vector<uint64_t> RowBits(const std::vector<double>& row) {
  std::vector<uint64_t> bits;
  for (double s : row) bits.push_back(std::bit_cast<uint64_t>(s));
  return bits;
}

// The interned layout of `candidates` against a serial reference built from
// the string-path rows: ids in first-occurrence pair order, keyed by bit
// pattern. The pair ids, the distinct rows and the index must be identical
// at every thread count and SIMD level. Returns the distinct row count.
size_t ExpectListMatchesReference(
    const Table& table, const FeatureCache& features,
    const std::vector<std::pair<int, int>>& candidates,
    const std::string& label) {
  std::vector<std::pair<int, int>> want_ids;
  std::map<std::vector<uint64_t>, uint32_t> ids;
  std::vector<uint32_t> want_row_of;
  std::vector<double> want_distinct;
  std::set<std::vector<uint64_t>> patterns;
  for (const auto& [i, j] : candidates) {
    const SimilarPair p = ComputePairSimilarity(table, i, j, kFloor);
    want_ids.emplace_back(p.i, p.j);
    const auto [it, fresh] = ids.emplace(RowBits(p.sims), ids.size());
    if (fresh) {
      want_distinct.insert(want_distinct.end(), p.sims.begin(), p.sims.end());
    }
    want_row_of.push_back(it->second);
    patterns.insert(RowBits(p.sims));
  }
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (BuiltWithAvx2() && CpuSupportsAvx2()) levels.push_back(SimdLevel::kAvx2);
  const SimdLevel startup = ActiveSimdLevel();
  for (SimdLevel level : levels) {
    OverrideSimdLevel(level);
    for (int threads : {1, 2, 8}) {
      ScopedNumThreads scope(threads);
      const SimilarityTable got =
          ComputeSimilarityTable(features, candidates, kFloor);
      const std::string where = label + " " + SimdLevelName(level) +
                                " threads " + std::to_string(threads);
      EXPECT_EQ(got.ids, want_ids) << where;
      EXPECT_EQ(got.num_distinct, patterns.size()) << where;
      EXPECT_EQ(got.row_of, want_row_of) << where;
      EXPECT_EQ(got.distinct.size() == want_distinct.size() &&
                    std::memcmp(got.distinct.data(), want_distinct.data(),
                                want_distinct.size() * sizeof(double)) == 0,
                true)
          << where;
    }
  }
  OverrideSimdLevel(startup);
  return patterns.size();
}

void ExpectInternedRowsMatchReference(const Table& table,
                                      const std::string& label) {
  FeatureCache features(table);
  const std::vector<std::pair<int, int>> candidates =
      AllPairsCandidates(features, PowerConfig().prune_tau);
  EXPECT_LT(ExpectListMatchesReference(table, features, candidates, label),
            candidates.size())
      << label << ": no row repeats";
}

TEST(SimilarityTableDifferential, InternedRowsMatchFirstOccurrenceReference) {
  ExpectInternedRowsMatchReference(AcmPubShaped(), "ACMPub");
  ExpectInternedRowsMatchReference(CoraShapedWithEditColumns(),
                                   "Cora with edit columns");
}

// Lists that are not closed under record classes, in and out of order.
// The table fills a pair only when no earlier pair of its two classes can
// lend it a row; whatever the list, every row and id must equal the string
// path's, interned in first-occurrence order.
TEST(SimilarityTableDifferential, HandPickedListsMatchSinglePairAndReference) {
  const Table table = CoraShapedWithEditColumns(300);
  const FeatureCache features(table);
  ASSERT_LT(features.num_classes(), table.num_records() / 2);
  const std::vector<std::pair<int, int>> all =
      AllPairsCandidates(features, PowerConfig().prune_tau);
  auto first = [&](int i) {
    return features.Members(features.ClassOf(static_cast<size_t>(i)))[0];
  };
  // The least pair of two classes: their first members, or the first two
  // members of one class.
  auto least = [&](const std::pair<int, int>& pair) {
    const auto [i, j] = pair;
    const std::span<const int> own =
        features.Members(features.ClassOf(static_cast<size_t>(i)));
    if (features.ClassOf(static_cast<size_t>(i)) ==
        features.ClassOf(static_cast<size_t>(j))) {
      return own[0] == i && own[1] == j;
    }
    return first(i) == i && first(j) == j;
  };
  std::vector<std::pair<int, int>> sparse;
  std::vector<std::pair<int, int>> no_least;
  for (size_t p = 0; p < all.size(); ++p) {
    if (p % 3 == 0) sparse.push_back(all[p]);
    if (!least(all[p])) no_least.push_back(all[p]);
  }
  // No least pair left, yet pairs of one class pair repeat: those are
  // filled and interned to one row.
  ASSERT_GT(no_least.size(), all.size() / 2);
  std::vector<std::pair<int, int>> reversed(all.rbegin(), all.rend());
  std::vector<std::pair<int, int>> swapped;
  for (const auto& [i, j] : all) swapped.emplace_back(j, i);
  std::vector<std::pair<int, int>> repeated = sparse;
  repeated.insert(repeated.begin() + static_cast<std::ptrdiff_t>(
                                         repeated.size() / 2),
                  sparse.begin(), sparse.begin() + 40);
  std::vector<std::pair<int, int>> sorted_repeat = sparse;
  sorted_repeat.insert(sorted_repeat.begin() + 10, sorted_repeat[10]);
  const std::vector<std::pair<std::string, std::vector<std::pair<int, int>>>>
      lists = {{"every third pair", sparse},
               {"least pairs dropped", no_least},
               {"reversed", reversed},
               {"ends swapped", swapped},
               {"a run repeated", repeated},
               {"one pair twice", sorted_repeat}};
  for (const auto& [label, list] : lists) {
    ExpectListMatchesReference(table, features, list, label);
  }
}

// Every similarity function gives the same bits with its arguments swapped.
// The table relies on it: one row serves every pair of two record classes,
// whichever record of the pair comes first.
TEST(SimilarityTableSymmetry, EveryFunctionIsSymmetricBitForBit) {
  std::vector<std::string> values = {
      "",         " ",        "a",       "A",          "ab",
      "ba",       "abc",      "a b c",   "c b a",      "aa aa",
      "1994",     " 1995 ",   "-0",      "0",          "0.0",
      "inf",      "-inf",     "nan",     "1e999",      "12a",
      "1e-320",   "-1e-320",  "3.5",     "-3.5",       "7",
      std::string("a\0b", 3), "the partial order approach",
      "The Partial-Order Approach to Crowd ER",
      std::string(70, 'x'),  std::string(64, 'y') + "z"};
  const Table cora = CoraShapedWithEditColumns(40);
  for (const Record& r : cora.records()) {
    values.insert(values.end(), r.values.begin(), r.values.end());
  }
  size_t checked = 0;
  for (const SimilarityFunction fn :
       {SimilarityFunction::kJaccard, SimilarityFunction::kEditSimilarity,
        SimilarityFunction::kBigramJaccard, SimilarityFunction::kCosine,
        SimilarityFunction::kOverlap, SimilarityFunction::kNumeric}) {
    for (size_t a = 0; a < values.size(); ++a) {
      for (size_t b = a + 1; b < values.size(); ++b) {
        const double ab = ComputeSimilarity(fn, values[a], values[b]);
        const double ba = ComputeSimilarity(fn, values[b], values[a]);
        ASSERT_EQ(std::bit_cast<uint64_t>(ab), std::bit_cast<uint64_t>(ba))
            << SimilarityFunctionName(fn) << " '" << values[a] << "' '"
            << values[b] << "'";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100000u);
}

TEST(SimilarityTableDifferential, PackingKeepsSignedZerosApart) {
  const SimilarityTable table = PackSimilarPairs(
      {{0, 1, {0.0, 0.5}}, {0, 2, {-0.0, 0.5}}, {1, 2, {0.0, 0.5}}});
  EXPECT_EQ(table.num_distinct, 2u);
  EXPECT_EQ(table.row_of, (std::vector<uint32_t>{0, 1, 0}));
  EXPECT_TRUE(std::signbit(table.row(1)[0]));
  EXPECT_FALSE(std::signbit(table.row(2)[0]));
}

// ---------------------------------------------------------------------------
// Job level: the table entry and the packing vector<SimilarPair> entry of
// the same pairs run the same job.
// ---------------------------------------------------------------------------

// Records every question posted, in order, then forwards to `inner`.
class RecordingOracle : public PairOracle {
 public:
  explicit RecordingOracle(PairOracle* inner) : inner_(inner) {}
  VoteResult Ask(int i, int j) override {
    asked_.emplace_back(i, j);
    return inner_->Ask(i, j);
  }
  std::vector<VoteResult> AskBatch(
      const std::vector<std::pair<int, int>>& pairs) override {
    asked_.insert(asked_.end(), pairs.begin(), pairs.end());
    return inner_->AskBatch(pairs);
  }
  const std::vector<std::pair<int, int>>& asked() const { return asked_; }

 private:
  PairOracle* inner_;
  std::vector<std::pair<int, int>> asked_;
};

void ExpectSameResult(const PowerResult& got, const PowerResult& want) {
  EXPECT_EQ(got.matched_pairs, want.matched_pairs);
  EXPECT_EQ(got.questions, want.questions);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.requeued_questions, want.requeued_questions);
  EXPECT_EQ(got.degraded_questions, want.degraded_questions);
  EXPECT_EQ(got.num_pairs, want.num_pairs);
  EXPECT_EQ(got.num_groups, want.num_groups);
  EXPECT_EQ(got.num_edges, want.num_edges);
  EXPECT_EQ(got.num_blue_groups, want.num_blue_groups);
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted);
}

TEST(SimilarityTableJob, RunMatchesRunOnPairsOverTheSamePairs) {
  // Small enough for the NonGroup graph over every pair.
  const Table table = CoraShapedWithEditColumns(200);
  for (GroupingKind grouping :
       {GroupingKind::kSplit, GroupingKind::kNone}) {
    SCOPED_TRACE(GroupingKindName(grouping));
    PowerConfig config;
    config.grouping = grouping;
    config.error_tolerant = true;
    config.max_questions = 10;  // leave groups for the Power+ pass
    config.num_threads = 2;

    CrowdOracle crowd_a(&table, Band90(), WorkerModel::kExactAccuracy, 5, 3);
    RecordingOracle oracle_a(&crowd_a);
    const PowerResult run = PowerFramework(config).Run(table, &oracle_a);

    FeatureCache features(table);
    const std::vector<SimilarPair> pairs = ComputePairSimilarities(
        features,
        GenerateCandidates(features, config.prune_tau,
                           config.candidate_method),
        config.component_floor);
    CrowdOracle crowd_b(&table, Band90(), WorkerModel::kExactAccuracy, 5, 3);
    RecordingOracle oracle_b(&crowd_b);
    const PowerResult on_pairs =
        PowerFramework(config).RunOnPairs(pairs, &oracle_b);

    ASSERT_GT(run.questions, 0u);
    EXPECT_TRUE(run.budget_exhausted);
    ExpectSameResult(run, on_pairs);
    EXPECT_EQ(oracle_a.asked(), oracle_b.asked()) << "question trace";
  }
}

TEST(SimilarityTableJob, TableAndPackedJobsTraceIdentically) {
  const Table table = AcmPubShaped();
  FeatureCache features(table);
  const std::vector<std::pair<int, int>> candidates =
      AllPairsCandidates(features, PowerConfig().prune_tau);
  PowerConfig config;
  config.max_questions = 60;

  CrowdOracle crowd_a(&table, Band90(), WorkerModel::kExactAccuracy, 5, 9);
  RunOnPairsJob from_table(
      config, ComputeSimilarityTable(features, candidates, kFloor), &crowd_a);
  while (from_table.Step()) {
  }
  CrowdOracle crowd_b(&table, Band90(), WorkerModel::kExactAccuracy, 5, 9);
  RunOnPairsJob from_pairs(
      config, ComputePairSimilarities(features, candidates, kFloor),
      &crowd_b);
  while (from_pairs.Step()) {
  }
  EXPECT_EQ(from_table.question_trace(), from_pairs.question_trace());
  EXPECT_EQ(from_table.coloring().color_journal(),
            from_pairs.coloring().color_journal());
  ExpectSameResult(from_table.Finish(), from_pairs.Finish());
}

TEST(SimilarityTableJobDeathTest, FinishTwiceDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Table table = AcmPubShaped();
  CrowdOracle oracle(&table, Band90(), WorkerModel::kExactAccuracy, 5, 1);
  PowerConfig config;
  config.num_threads = 1;
  FeatureCache features(table);
  RunOnPairsJob job(config,
                    ComputeSimilarityTable(
                        features, AllPairsCandidates(features, 0.5), kFloor),
                    &oracle);
  while (job.Step()) {
  }
  (void)job.Finish();
  EXPECT_DEATH((void)job.Finish(), "Finish called twice");
}

}  // namespace
}  // namespace power
