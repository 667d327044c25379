#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/similarity.h"
#include "util/rng.h"
#include "util/strings.h"

// Fuzz the bit-parallel Levenshtein paths against the reference DP:
// MyersEditDistance (single-word and blocked variants) must return exactly
// the DP's integer on every input, and EditSimilarity must equal the
// historical lowercase-copy formula bit for bit.

namespace power {
namespace {

std::string RandomString(Rng* rng, size_t len, int alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t c = 0; c < len; ++c) {
    if (alphabet < 0) {
      // Mixed-case words with spaces: exercises the case fold and makes
      // runs of equal characters likely.
      int pick = rng->UniformInt(0, 12);
      if (pick == 0) {
        s.push_back(' ');
      } else if (pick <= 6) {
        s.push_back(static_cast<char>('a' + rng->UniformInt(0, 5)));
      } else {
        s.push_back(static_cast<char>('A' + rng->UniformInt(0, 5)));
      }
    } else {
      s.push_back(static_cast<char>('a' + rng->UniformInt(0, alphabet - 1)));
    }
  }
  return s;
}

TEST(EditDistanceFuzz, MyersMatchesReferenceDp) {
  Rng rng(2024);
  // Small alphabets make edits cheap and dense; -1 = mixed case + spaces.
  for (int alphabet : {2, 26, -1}) {
    for (int round = 0; round < 400; ++round) {
      // Lengths straddle the 64-char single-word/blocked boundary.
      size_t la = rng.UniformIndex(150);
      size_t lb = rng.UniformIndex(150);
      std::string a = RandomString(&rng, la, alphabet);
      std::string b = RandomString(&rng, lb, alphabet);
      ASSERT_EQ(MyersEditDistance(a, b), EditDistance(a, b))
          << "alphabet " << alphabet << " a=\"" << a << "\" b=\"" << b << "\"";
    }
  }
}

TEST(EditDistanceFuzz, MyersMatchesReferenceDpOnKilobyteStrings) {
  Rng rng(4096);
  for (int round = 0; round < 8; ++round) {
    std::string a = RandomString(&rng, 900 + rng.UniformIndex(300), 4);
    std::string b = RandomString(&rng, 900 + rng.UniformIndex(300), 4);
    ASSERT_EQ(MyersEditDistance(a, b), EditDistance(a, b));
  }
}

TEST(EditDistanceFuzz, EditSimilarityMatchesLowercaseDpFormula) {
  Rng rng(7);
  for (int round = 0; round < 600; ++round) {
    std::string a = RandomString(&rng, rng.UniformIndex(120), -1);
    std::string b = RandomString(&rng, rng.UniformIndex(120), -1);
    std::string la = ToLower(a);
    std::string lb = ToLower(b);
    size_t max_len = std::max(la.size(), lb.size());
    double expected =
        max_len == 0 ? 1.0
                     : 1.0 - static_cast<double>(EditDistance(la, lb)) /
                                 static_cast<double>(max_len);
    // Exact equality: the bit-parallel path must not change a single bit of
    // any similarity the front end reports.
    ASSERT_EQ(EditSimilarity(a, b), expected)
        << "a=\"" << a << "\" b=\"" << b << "\"";
  }
}

TEST(EditDistanceFuzz, EmptyAndDegenerateInputs) {
  EXPECT_EQ(MyersEditDistance("", ""), 0u);
  EXPECT_EQ(MyersEditDistance("", "abc"), 3u);
  EXPECT_EQ(MyersEditDistance("abc", ""), 3u);
  EXPECT_EQ(MyersEditDistance("a", "a"), 0u);
  EXPECT_EQ(MyersEditDistance("a", "b"), 1u);
  EXPECT_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_EQ(EditSimilarity("", "xy"), 0.0);
  // 64- and 65-char patterns sit exactly on the single-word/blocked edge.
  std::string s64(64, 'q');
  std::string s65(65, 'q');
  EXPECT_EQ(MyersEditDistance(s64, s65), 1u);
  EXPECT_EQ(MyersEditDistance(s64, s64), 0u);
  EXPECT_EQ(MyersEditDistance(s65, s65), 0u);
}

}  // namespace
}  // namespace power
