#include "sim/feature_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "blocking/prefix_join.h"
#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/generator.h"
#include "data/table.h"
#include "sim/similarity.h"
#include "sim/similarity_matrix.h"
#include "sim/tokenizer.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"

// Differential tests for the record feature cache (interned token ids,
// cached lowercase bytes, pre-parsed numerics) against the legacy raw-string
// similarity path, in the style of tests/selection_loop_trace_test.cc: the
// cached front end must be *byte-identical in output* — every similarity
// double, every candidate list, and the full end-to-end question/coloring
// trace — at any thread count.

namespace power {
namespace {

// The cache keeps a pointer to its table, so it refuses a temporary one.
static_assert(std::is_constructible_v<FeatureCache, const Table&>);
static_assert(!std::is_constructible_v<FeatureCache, Table&&>);

// ---------------------------------------------------------------------------
// Adversarial random tables: one attribute per similarity function, values
// mixing empty cells, single characters, kilobyte strings, duplicated
// tokens, parsable numerics and near-numeric garbage.
// ---------------------------------------------------------------------------

std::string RandomWord(Rng* rng, int max_len) {
  int len = rng->UniformInt(1, max_len);
  std::string w;
  for (int c = 0; c < len; ++c) {
    // Mixed case exercises the cached lowercase arena.
    char base = rng->Bernoulli(0.3) ? 'A' : 'a';
    w.push_back(static_cast<char>(base + rng->UniformInt(0, 5)));
  }
  return w;
}

std::string RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 9)) {
    case 0:
      return "";
    case 1:  // single char
      return std::string(1, static_cast<char>('a' + rng->UniformInt(0, 25)));
    case 2: {  // ~1k-char value (forces the blocked Myers path)
      std::string big;
      while (big.size() < 1000) {
        big += RandomWord(rng, 8);
        big.push_back(rng->Bernoulli(0.8) ? ' ' : '-');
      }
      return big;
    }
    case 3: {  // heavy token duplication
      std::string dup;
      std::string w = RandomWord(rng, 4);
      for (int r = 0; r < rng->UniformInt(2, 6); ++r) {
        dup += w;
        dup += ' ';
      }
      dup += RandomWord(rng, 4);
      return dup;
    }
    case 4: {  // parsable numeric, with whitespace padding
      std::string num = "  ";
      if (rng->Bernoulli(0.5)) num += '-';
      num += std::to_string(rng->UniformInt(0, 5000));
      if (rng->Bernoulli(0.5)) {
        num += '.';
        num += std::to_string(rng->UniformInt(0, 99));
      }
      if (rng->Bernoulli(0.3)) num += "e2";
      num += ' ';
      return num;
    }
    case 5:  // near-numeric garbage (strtod must reject the tail)
      return std::to_string(rng->UniformInt(0, 999)) + "ab";
    case 6:  // whitespace only
      return "  \t ";
    default: {  // ordinary multi-word value
      std::string v;
      int words = rng->UniformInt(1, 6);
      for (int w = 0; w < words; ++w) {
        if (w > 0) v.push_back(' ');
        v += RandomWord(rng, 9);
      }
      return v;
    }
  }
}

Table MakeAdversarialTable(uint64_t seed, int num_records) {
  Schema schema({{"a_jac", SimilarityFunction::kJaccard},
                 {"a_edit", SimilarityFunction::kEditSimilarity},
                 {"a_bigram", SimilarityFunction::kBigramJaccard},
                 {"a_cos", SimilarityFunction::kCosine},
                 {"a_over", SimilarityFunction::kOverlap},
                 {"a_num", SimilarityFunction::kNumeric}});
  Table table(schema);
  Rng rng(seed);
  for (int i = 0; i < num_records; ++i) {
    Record r;
    r.entity_id = rng.UniformInt(0, num_records / 3 + 1);
    if (i > 0 && rng.Bernoulli(0.5)) {
      // Near-duplicate of an earlier record (one attribute regenerated):
      // guarantees pairs with high record-level Jaccard, so pruning
      // thresholds keep real candidates.
      size_t base = rng.UniformIndex(static_cast<size_t>(i));
      r.values = table.record(base).values;
      r.entity_id = table.record(base).entity_id;
      r.values[rng.UniformIndex(schema.num_attributes())] = RandomValue(&rng);
    } else {
      for (size_t k = 0; k < schema.num_attributes(); ++k) {
        r.values.push_back(RandomValue(&rng));
      }
    }
    table.Add(std::move(r));
  }
  return table;
}

// ---------------------------------------------------------------------------
// Cached features reproduce the legacy tokenization exactly.
// ---------------------------------------------------------------------------

TEST(FeatureCacheTokens, FeaturesMatchLegacyTokenizationExactly) {
  Table table = MakeAdversarialTable(/*seed=*/101, /*num_records=*/40);
  FeatureCache features(table);
  const size_t m = table.schema().num_attributes();

  auto id_strings = [&](std::span<const int32_t> ids) {
    std::vector<std::string> out;
    for (int32_t id : ids) out.emplace_back(features.TokenString(id));
    return out;
  };

  for (size_t i = 0; i < table.num_records(); ++i) {
    std::string concat;
    for (size_t k = 0; k < m; ++k) {
      const std::string& raw = table.Value(i, k);
      EXPECT_EQ(features.LowerValue(i, k), ToLower(raw));
      // Interned spans decode to the exact sorted-unique legacy token sets
      // (ids are assigned in first-occurrence order, not lexicographic, so
      // compare as sets).
      auto words = id_strings(features.WordTokenIds(i, k));
      std::sort(words.begin(), words.end());
      EXPECT_EQ(words, WordTokenSet(raw));
      auto grams = id_strings(features.BigramIds(i, k));
      std::sort(grams.begin(), grams.end());
      EXPECT_EQ(grams, QGramSet(raw, 2));
      double cached = 0.0;
      double fresh = 0.0;
      bool cached_ok = features.NumericValue(i, k, &cached);
      ASSERT_EQ(cached_ok, ParseNumericValue(raw, &fresh));
      if (cached_ok) {
        EXPECT_EQ(cached, fresh);
      }
      concat += raw;
      concat += ' ';
    }
    auto rec = id_strings(features.RecordTokenIds(i));
    std::sort(rec.begin(), rec.end());
    EXPECT_EQ(rec, WordTokenSet(concat));
  }
}

// ---------------------------------------------------------------------------
// Token ids are exact, not just the token sets: a reference interns by first
// occurrence in a std::map, walking cells in ascending order with word
// tokens before bigrams within a cell. Ids feed the signature hash, so they
// decide the candidate paths' CandidateStats counters. A cell span lists
// each of its ids once, in first-occurrence order; a record span is sorted,
// since the candidate paths merge record spans.
// ---------------------------------------------------------------------------

struct ReferenceFeatures {
  std::vector<std::string> dict;  // id -> token
  // Per cell, each id once in first-occurrence order.
  std::vector<std::vector<int32_t>> words, grams;
  std::vector<std::vector<int32_t>> records;  // per record, sorted-unique
};

ReferenceFeatures InternByFirstOccurrence(const Table& table) {
  const size_t m = table.schema().num_attributes();
  ReferenceFeatures ref;
  std::map<std::string, int> ids;
  auto intern = [&](const std::string& token) {
    auto [it, added] = ids.emplace(token, static_cast<int>(ref.dict.size()));
    if (added) ref.dict.push_back(token);
    return static_cast<int32_t>(it->second);
  };
  auto sort_unique = [](std::vector<int32_t> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  auto first_occurrences = [](const std::vector<int32_t>& v) {
    std::vector<int32_t> out;
    std::set<int32_t> seen;
    for (int32_t id : v) {
      if (seen.insert(id).second) out.push_back(id);
    }
    return out;
  };
  for (size_t i = 0; i < table.num_records(); ++i) {
    std::vector<int32_t> record;
    for (size_t k = 0; k < m; ++k) {
      const std::string lower = ToLower(table.Value(i, k));
      std::vector<int32_t> words;
      for (const std::string& w : SplitWhitespace(lower)) {
        words.push_back(intern(w));
      }
      std::vector<int32_t> grams;
      if (!lower.empty() && lower.size() <= 2) grams.push_back(intern(lower));
      for (size_t b = 0; lower.size() > 2 && b + 2 <= lower.size(); ++b) {
        grams.push_back(intern(lower.substr(b, 2)));
      }
      record.insert(record.end(), words.begin(), words.end());
      ref.words.push_back(first_occurrences(words));
      ref.grams.push_back(first_occurrences(grams));
    }
    ref.records.push_back(sort_unique(std::move(record)));
  }
  return ref;
}

std::vector<int32_t> AsVector(std::span<const int32_t> ids) {
  return {ids.begin(), ids.end()};
}

void ExpectIdsMatchReference(const Table& table, const std::string& label) {
  const ReferenceFeatures ref = InternByFirstOccurrence(table);
  const size_t m = table.schema().num_attributes();
  for (int threads : {1, 2, 8}) {
    ScopedNumThreads scope(threads);
    FeatureCache features(table);
    const std::string at = label + " threads " + std::to_string(threads);
    ASSERT_EQ(features.dict_size(), ref.dict.size()) << at;
    for (size_t id = 0; id < ref.dict.size(); ++id) {
      ASSERT_EQ(features.TokenString(static_cast<int32_t>(id)), ref.dict[id])
          << at << " id " << id;
    }
    for (size_t i = 0; i < table.num_records(); ++i) {
      for (size_t k = 0; k < m; ++k) {
        ASSERT_EQ(features.LowerValue(i, k), ToLower(table.Value(i, k)))
            << at << " cell (" << i << ", " << k << ")";
        ASSERT_EQ(AsVector(features.WordTokenIds(i, k)), ref.words[i * m + k])
            << at << " cell (" << i << ", " << k << ")";
        ASSERT_EQ(AsVector(features.BigramIds(i, k)), ref.grams[i * m + k])
            << at << " cell (" << i << ", " << k << ")";
      }
      ASSERT_EQ(AsVector(features.RecordTokenIds(i)), ref.records[i])
          << at << " record " << i;
      const TokenSignature want = SignatureOf(ref.records[i]);
      ASSERT_EQ(std::memcmp(&features.RecordSignature(i), &want,
                            sizeof(want)),
                0)
          << at << " record " << i;
    }
  }
}

Table ProfileTable(DatasetProfile profile, size_t records) {
  const double ratio = static_cast<double>(profile.num_entities) /
                       static_cast<double>(profile.num_records);
  profile.num_records = records;
  profile.num_entities = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(records) * ratio));
  return DatasetGenerator(51).Generate(profile);
}

// A vocabulary of over 20k distinct words of 3 to 17 bytes, so the long-token
// table grows several times and hashes words on both sides of every 8-byte
// boundary. Each cell also repeats a word of an earlier record.
Table MakeLargeVocabularyTable() {
  Schema schema({{"a", SimilarityFunction::kJaccard},
                 {"b", SimilarityFunction::kBigramJaccard}});
  Table table(schema);
  Rng rng(83);
  std::vector<std::string> seen;
  for (int i = 0; i < 2200; ++i) {
    Record r;
    for (size_t k = 0; k < schema.num_attributes(); ++k) {
      std::string value;
      for (int w = 0; w < 5; ++w) {
        std::string word;
        const int len = rng.UniformInt(3, 17);
        for (int b = 0; b < len; ++b) {
          word.push_back(static_cast<char>(
              (rng.Bernoulli(0.2) ? 'A' : 'a') + rng.UniformInt(0, 25)));
        }
        seen.push_back(word);
        value += word + ' ';
      }
      value += seen[rng.UniformIndex(seen.size())];
      r.values.push_back(std::move(value));
    }
    table.Add(std::move(r));
  }
  return table;
}

TEST(FeatureCacheDifferential, TokenIdsMatchFirstOccurrenceReference) {
  ExpectIdsMatchReference(ProfileTable(AcmPubProfile(1.0), 1500), "ACMPub");
  ExpectIdsMatchReference(ProfileTable(CoraProfile(), 600), "Cora");
  ExpectIdsMatchReference(ProfileTable(RestaurantProfile(), 858),
                          "Restaurant");
  ExpectIdsMatchReference(MakeAdversarialTable(/*seed=*/61, 60),
                          "adversarial");
  const Table large = MakeLargeVocabularyTable();
  size_t long_words = 0;
  for (const std::string& token : InternByFirstOccurrence(large).dict) {
    if (token.size() > 2) ++long_words;
  }
  ASSERT_GE(long_words, 20000u);
  ExpectIdsMatchReference(large, "large vocabulary");
}

TEST(FeatureCacheDifferential, TokenIdsMatchReferenceOnHostileCells) {
  Schema schema({{"a", SimilarityFunction::kJaccard},
                 {"b", SimilarityFunction::kBigramJaccard},
                 {"c", SimilarityFunction::kEditSimilarity}});
  Table table(schema);
  const std::vector<std::vector<std::string>> rows = {
      {"", " ", "\t\n\v\f\r"},
      // 1- and 2-byte cells; "ab" is a bigram of "xab" before it is a word.
      {"xab", "a", "ab"},
      {"A", "Ab", " a"},
      // Bytes >= 0x80, and a NUL inside a value.
      {"caf\xc3\xa9 \xff\x80", "\xc3\xa9", std::string("a\0b", 3)},
      // A token repeated within a cell and across one record's cells.
      {"ab cd ab ab", "cd ab", "ab\tab\nab"},
      {"  ", "\r\n", "zz zz"},
  };
  for (const auto& values : rows) {
    Record r;
    r.values = values;
    table.Add(std::move(r));
  }
  // Every byte value, in every column: a cell of its own, then inside
  // words that start with it, end with it and straddle 8-byte boundaries.
  for (int b = 0; b < 256; ++b) {
    const std::string c(1, static_cast<char>(b));
    Record alone;
    alone.values = {c, c, c};
    table.Add(std::move(alone));
    Record inside;
    inside.values = {c + "Bc x" + c + "y",
                     "abcdefG" + c + " " + c + c + c,
                     "Ab" + c + "defghijklmnop" + c + "q " + c + "xyz"};
    table.Add(std::move(inside));
  }
  ExpectIdsMatchReference(table, "hostile");
}

// ---------------------------------------------------------------------------
// Record classes: the records whose cells are equal byte for byte. A
// reference numbers the distinct cell tuples by first occurrence in a
// std::map; the cache's classes and members must equal it at every thread
// count, each class's features must be its members' features, and every
// record-level id and span must still equal the first-occurrence reference.
// ---------------------------------------------------------------------------

void ExpectClassesMatchReference(const Table& table, const std::string& label) {
  const size_t m = table.schema().num_attributes();
  std::map<std::vector<std::string>, uint32_t> ids;
  std::vector<uint32_t> want_class;
  std::vector<std::vector<int>> want_members;
  for (size_t i = 0; i < table.num_records(); ++i) {
    const auto [it, added] = ids.emplace(table.record(i).values,
                                         static_cast<uint32_t>(ids.size()));
    if (added) want_members.emplace_back();
    want_class.push_back(it->second);
    want_members[it->second].push_back(static_cast<int>(i));
  }
  for (int threads : {1, 2, 8}) {
    ScopedNumThreads scope(threads);
    const FeatureCache features(table);
    const std::string at = label + " threads " + std::to_string(threads);
    ASSERT_EQ(features.num_records(), table.num_records()) << at;
    ASSERT_EQ(features.num_classes(), want_members.size()) << at;
    ASSERT_EQ(features.ClassSignatures().size(), want_members.size()) << at;
    for (size_t i = 0; i < table.num_records(); ++i) {
      ASSERT_EQ(static_cast<uint32_t>(features.ClassOf(i)), want_class[i])
          << at << " record " << i;
    }
    for (size_t c = 0; c < want_members.size(); ++c) {
      const RecordClass cls{static_cast<uint32_t>(c)};
      const std::span<const int> members = features.Members(cls);
      ASSERT_EQ(std::vector<int>(members.begin(), members.end()),
                want_members[c])
          << at << " class " << c;
      for (const int i : members) {
        const auto r = static_cast<size_t>(i);
        for (size_t k = 0; k < m; ++k) {
          ASSERT_EQ(features.LowerValue(cls, k), features.LowerValue(r, k));
          ASSERT_EQ(AsVector(features.WordTokenIds(cls, k)),
                    AsVector(features.WordTokenIds(r, k)));
          ASSERT_EQ(AsVector(features.BigramIds(cls, k)),
                    AsVector(features.BigramIds(r, k)));
          double by_class = 0.0;
          double by_record = 0.0;
          ASSERT_EQ(features.NumericValue(cls, k, &by_class),
                    features.NumericValue(r, k, &by_record));
          ASSERT_EQ(by_class, by_record);
        }
        ASSERT_EQ(AsVector(features.RecordTokenIds(cls)),
                  AsVector(features.RecordTokenIds(r)));
        ASSERT_EQ(std::memcmp(&features.ClassSignatures()[c],
                              &features.RecordSignature(r),
                              sizeof(TokenSignature)),
                  0);
      }
    }
  }
  ExpectIdsMatchReference(table, label);
}

Table TableOf(std::vector<std::vector<std::string>> rows) {
  std::vector<Attribute> attrs;
  const size_t m = rows.empty() ? 2 : rows[0].size();
  for (size_t k = 0; k < m; ++k) {
    attrs.push_back({"a" + std::to_string(k),
                     k % 2 == 0 ? SimilarityFunction::kJaccard
                                : SimilarityFunction::kBigramJaccard});
  }
  Table table{Schema(std::move(attrs))};
  for (std::vector<std::string>& values : rows) {
    Record r;
    r.values = std::move(values);
    table.Add(std::move(r));
  }
  return table;
}

TEST(FeatureCacheClasses, MatchCellTupleReferenceOnHostileTables) {
  // Cells that differ only by case: distinct classes with one token set.
  {
    const Table table = TableOf({{"Partial Order", "Crowd"},
                                 {"partial order", "crowd"},
                                 {"PARTIAL ORDER", "CROWD"},
                                 {"partial order", "crowd"}});
    ExpectClassesMatchReference(table, "case");
    const FeatureCache features(table);
    EXPECT_EQ(features.num_classes(), 3u);
    EXPECT_EQ(AsVector(features.RecordTokenIds(0)),
              AsVector(features.RecordTokenIds(1)));
  }
  // A shifted cell boundary: the same bytes in sequence, other cells.
  ExpectClassesMatchReference(
      TableOf({{"ab", "c"}, {"a", "bc"}, {"abc", ""}, {"", "abc"},
               {"ab", "c"}, {"a", "bc"}}),
      "shifted boundary");
  // NUL bytes, and words of 7 to 17 bytes that differ from a base in one
  // byte on either side of every 8-byte boundary, each twice.
  {
    std::vector<std::vector<std::string>> rows = {
        {std::string("a\0b", 3), "x"}, {std::string("a\0c", 3), "x"},
        {"a", "x"},                    {std::string("a\0", 2), "x"},
        {std::string("\0", 1), ""},    {"", std::string("\0", 1)},
        {std::string("a\0b", 3), "x"}};
    const std::string base = "abcdefghijklmnopq";
    for (size_t len = 7; len <= base.size(); ++len) {
      for (size_t at = 0; at < len; ++at) {
        std::string word = base.substr(0, len);
        word[at] = static_cast<char>(at % 2 == 0 ? '\0' : 'Z');
        rows.push_back({word + " tail", base.substr(0, len)});
        rows.push_back({word + " tail", base.substr(0, len)});
      }
    }
    ExpectClassesMatchReference(TableOf(std::move(rows)), "bytes");
  }
  // All-identical records, an empty table, one record, all-empty cells
  // (and whitespace-only cells: other bytes, the same empty token set).
  ExpectClassesMatchReference(
      TableOf(std::vector<std::vector<std::string>>(
          50, {"the same record", "1999"})),
      "identical");
  ExpectClassesMatchReference(TableOf({}), "empty table");
  ExpectClassesMatchReference(TableOf({{"only", "one"}}), "one record");
  ExpectClassesMatchReference(
      TableOf({{"", ""}, {"", ""}, {" ", ""}, {"", " "}, {"", ""}}),
      "empty cells");
  // 70 attributes: copies, and records that differ in one cell only.
  {
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> wide;
    for (int k = 0; k < 70; ++k) wide.push_back("v" + std::to_string(k));
    for (int r = 0; r < 60; ++r) {
      std::vector<std::string> row = wide;
      if (r % 3 != 0) row[static_cast<size_t>(r % 70)] += "x";
      rows.push_back(std::move(row));
    }
    ExpectClassesMatchReference(TableOf(std::move(rows)), "70 attributes");
  }
  // Generated profiles, where most records repeat an earlier one.
  ExpectClassesMatchReference(ProfileTable(AcmPubProfile(1.0), 600),
                              "ACMPub");
  ExpectClassesMatchReference(ProfileTable(CoraProfile(), 400), "Cora");
}

// ---------------------------------------------------------------------------
// Every similarity double is bit-identical to the legacy string path, at
// 1 and 8 threads.
// ---------------------------------------------------------------------------

TEST(FeatureCacheDifferential, SimilarityVectorsMatchLegacyBitForBit) {
  constexpr double kFloor = 0.2;
  // Three small tables, and one of 200 records whose 19,900 pairs span 20
  // of the similarity table's chunks, so chunk boundaries fall inside runs
  // of pairs that share a left record.
  struct Case {
    uint64_t seed;
    int records;
  };
  for (const Case c :
       {Case{5, 36}, Case{23, 36}, Case{71, 36}, Case{97, 200}}) {
    const uint64_t seed = c.seed;
    Table table = MakeAdversarialTable(seed, c.records);
    const int n = static_cast<int>(table.num_records());

    // Legacy reference: the raw-string per-pair path, serial.
    std::vector<SimilarPair> legacy;
    {
      ScopedNumThreads scope(1);
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          legacy.push_back(ComputePairSimilarity(table, i, j, kFloor));
        }
      }
    }

    for (int threads : {1, 2, 8}) {
      ScopedNumThreads scope(threads);
      FeatureCache features(table);
      std::vector<std::pair<int, int>> all_pairs;
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) all_pairs.emplace_back(i, j);
      }
      std::vector<SimilarPair> cached =
          ComputePairSimilarities(features, all_pairs, kFloor);
      ASSERT_EQ(cached.size(), legacy.size());
      for (size_t p = 0; p < cached.size(); ++p) {
        EXPECT_EQ(cached[p].i, legacy[p].i);
        EXPECT_EQ(cached[p].j, legacy[p].j);
        ASSERT_EQ(cached[p].sims.size(), legacy[p].sims.size());
        for (size_t k = 0; k < cached[p].sims.size(); ++k) {
          // Exact double equality: the cached path must produce the same
          // bits, not merely close values.
          EXPECT_EQ(cached[p].sims[k], legacy[p].sims[k])
              << "pair (" << cached[p].i << "," << cached[p].j
              << ") attribute " << k << " seed " << seed << " threads "
              << threads;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Candidate generation: cached all-pairs scan and prefix-filter join both
// reproduce the legacy string-path scan, at 1, 2 and 8 threads.
// ---------------------------------------------------------------------------

TEST(FeatureCacheDifferential, CandidateListsMatchLegacyAtEveryThreadCount) {
  constexpr double kTau = 0.3;
  for (uint64_t seed : {13u, 47u}) {
    Table table = MakeAdversarialTable(seed, /*num_records=*/48);
    const int n = static_cast<int>(table.num_records());

    // Legacy reference: serial scan over the raw-string record Jaccard.
    std::vector<std::pair<int, int>> legacy;
    {
      ScopedNumThreads scope(1);
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          if (RecordLevelJaccard(table, i, j) >= kTau) {
            legacy.emplace_back(i, j);
          }
        }
      }
    }

    for (int threads : {1, 2, 8}) {
      ScopedNumThreads scope(threads);
      FeatureCache features(table);
      EXPECT_EQ(AllPairsCandidates(features, kTau), legacy)
          << "all-pairs diverged, seed " << seed << " threads " << threads;
      // The join returns the same pair set (its output is sorted, as is the
      // legacy scan's (i asc, j asc) order).
      EXPECT_EQ(PrefixFilterJoin(features, kTau), legacy)
          << "prefix join diverged, seed " << seed << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// End to end: PowerFramework::Run over the cached front end replays the
// exact question/coloring trace of the legacy string-path pipeline.
// ---------------------------------------------------------------------------

TEST(FeatureCacheEndToEnd, RunTraceMatchesLegacyPipelineAtEveryThreadCount) {
  Table table = MakeAdversarialTable(/*seed=*/29, /*num_records=*/40);
  const int n = static_cast<int>(table.num_records());

  PowerConfig config;
  config.prune_tau = 0.2;
  config.component_floor = 0.2;
  config.seed = 17;

  // Legacy reference: candidates and similarity vectors via the raw-string
  // path, resolved through RunOnPairs with its own crowd instance.
  PowerResult legacy;
  {
    ScopedNumThreads scope(1);
    std::vector<SimilarPair> pairs;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (RecordLevelJaccard(table, i, j) >= config.prune_tau) {
          pairs.push_back(
              ComputePairSimilarity(table, i, j, config.component_floor));
        }
      }
    }
    ASSERT_FALSE(pairs.empty());
    CrowdOracle oracle(&table, Band90(), WorkerModel::kExactAccuracy,
                       /*workers_per_question=*/5, /*seed=*/99);
    PowerConfig serial = config;
    serial.num_threads = 1;
    legacy = PowerFramework(serial).RunOnPairs(pairs, &oracle);
  }

  for (int threads : {1, 2, 8}) {
    PowerConfig cfg = config;
    cfg.num_threads = threads;
    // Crowd answers depend only on (seed, pair), so a fresh same-seed oracle
    // answers identically to the legacy run's.
    CrowdOracle oracle(&table, Band90(), WorkerModel::kExactAccuracy,
                       /*workers_per_question=*/5, /*seed=*/99);
    PowerResult cached = PowerFramework(cfg).Run(table, &oracle);
    EXPECT_EQ(cached.num_pairs, legacy.num_pairs) << threads << " threads";
    EXPECT_EQ(cached.questions, legacy.questions) << threads << " threads";
    EXPECT_EQ(cached.iterations, legacy.iterations) << threads << " threads";
    EXPECT_EQ(cached.matched_pairs, legacy.matched_pairs)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace power
