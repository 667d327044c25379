#include "sim/simd_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "blocking/prefix_join.h"
#include "blocking/signature_filter.h"
#include "data/table.h"
#include "sim/feature_cache.h"
#include "sim/similarity.h"
#include "sim/tokenizer.h"
#include "util/rng.h"

// Differential fuzz of the SIMD kernels against their scalar references:
// every batched Myers distance and signature distance must be the exact
// integer the scalar kernel returns, on adversarial inputs — strings
// crossing the 64-char Myers word boundary, gathers of every tail length —
// under both dispatch modes. The two token-set intersection counts, the
// sorted merge and TokenMarks, are checked against a set reference on empty
// and singleton spans and all-common and disjoint dictionaries. Plus unit
// coverage of the dispatch policy itself and of the shared record-level
// Jaccard prune predicate.

namespace power {
namespace {

// Restores the ambient dispatch level when a test that flips it exits.
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

bool Avx2Runnable() { return BuiltWithAvx2() && CpuSupportsAvx2(); }

// Set-based reference, independent of both kernels.
size_t ReferenceIntersection(std::span<const int32_t> a,
                             std::span<const int32_t> b) {
  std::set<int32_t> sa(a.begin(), a.end());
  size_t inter = 0;
  for (int32_t v : b) inter += sa.count(v);
  return inter;
}

std::vector<int32_t> RandomSortedUnique(Rng* rng, size_t max_size,
                                        int32_t universe) {
  std::set<int32_t> s;
  size_t target = rng->UniformIndex(max_size + 1);
  for (size_t t = 0; t < target; ++t) {
    s.insert(static_cast<int32_t>(rng->UniformIndex(
        static_cast<size_t>(universe))));
  }
  return {s.begin(), s.end()};
}

// The merge and the marked count, each set marked in turn, against the set
// reference. Unmark must leave every byte clear, so one TokenMarks serves
// set after set: the second pass repeats the first's counts.
void ExpectAllVariantsAgree(std::span<const int32_t> a,
                            std::span<const int32_t> b) {
  const size_t expected = ReferenceIntersection(a, b);
  ASSERT_EQ(SortedIntersectionSize(a, b), expected);
  ASSERT_EQ(SortedIntersectionSize(b, a), expected);
  int32_t universe = 0;
  for (int32_t v : a) universe = std::max(universe, v + 1);
  for (int32_t v : b) universe = std::max(universe, v + 1);
  TokenMarks marks(static_cast<size_t>(universe));
  for (int pass = 0; pass < 2; ++pass) {
    marks.Mark(a);
    ASSERT_EQ(marks.Count(b), expected) << "pass " << pass;
    ASSERT_EQ(marks.Count(a), a.size()) << "pass " << pass;
    marks.Unmark(a);
    marks.Mark(b);
    ASSERT_EQ(marks.Count(a), expected) << "pass " << pass;
    marks.Unmark(b);
    ASSERT_EQ(marks.Count(a), 0u) << "pass " << pass;
    ASSERT_EQ(marks.Count(b), 0u) << "pass " << pass;
  }
}

// ---------------------------------------------------------------------------
// Token-set intersection: the sorted merge and TokenMarks.
// ---------------------------------------------------------------------------

TEST(SimdKernelsIntersection, AdversarialFixedCases) {
  const std::vector<int32_t> empty;
  const std::vector<int32_t> one = {7};
  const std::vector<int32_t> other = {9};
  std::vector<int32_t> dense(100);
  for (int32_t v = 0; v < 100; ++v) dense[static_cast<size_t>(v)] = v;
  std::vector<int32_t> evens;
  std::vector<int32_t> odds;
  for (int32_t v = 0; v < 200; v += 2) {
    evens.push_back(v);
    odds.push_back(v + 1);
  }

  ExpectAllVariantsAgree(empty, empty);          // both empty
  ExpectAllVariantsAgree(empty, dense);          // one empty
  ExpectAllVariantsAgree(one, one);              // singleton, all common
  ExpectAllVariantsAgree(one, other);            // singleton, disjoint
  ExpectAllVariantsAgree(one, dense);            // singleton vs block run
  ExpectAllVariantsAgree(dense, dense);          // all common
  ExpectAllVariantsAgree(evens, odds);           // fully disjoint, interleaved
  ExpectAllVariantsAgree(dense, evens);          // half common
  // Prefixes of 1 to 17 elements on each side.
  for (size_t cut_a : {1u, 7u, 8u, 9u, 15u, 16u, 17u}) {
    for (size_t cut_b : {1u, 7u, 8u, 9u, 15u, 16u, 17u}) {
      ExpectAllVariantsAgree(std::span(dense).subspan(0, cut_a),
                             std::span(evens).subspan(0, cut_b));
    }
  }
}

TEST(SimdKernelsIntersection, RandomizedDifferentialFuzz) {
  Rng rng(20260809);
  for (int round = 0; round < 400; ++round) {
    // Universe size steers the overlap density from all-common to disjoint.
    const int32_t universe =
        rng.Bernoulli(0.3) ? 24 : (rng.Bernoulli(0.5) ? 500 : 100000);
    std::vector<int32_t> a = RandomSortedUnique(&rng, 80, universe);
    std::vector<int32_t> b = RandomSortedUnique(&rng, 80, universe);
    ExpectAllVariantsAgree(a, b);
  }
}

// ---------------------------------------------------------------------------
// Batched Myers edit distance.
// ---------------------------------------------------------------------------

std::string RandomText(Rng* rng, size_t len, int alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t c = 0; c < len; ++c) {
    s.push_back(static_cast<char>('a' + rng->UniformInt(0, alphabet - 1)));
  }
  return s;
}

void ExpectBatchMatchesSinglePair(const std::string& pattern,
                                  const std::vector<std::string>& texts) {
  std::vector<std::string_view> views(texts.begin(), texts.end());
  std::vector<size_t> expected(texts.size());
  for (size_t t = 0; t < texts.size(); ++t) {
    // The existing DP reference from edit_distance_fuzz_test's subject:
    // MyersEditDistance is itself fuzzed against EditDistance, so anchor
    // the batch to both.
    expected[t] = EditDistance(pattern, texts[t]);
    ASSERT_EQ(MyersEditDistance(pattern, texts[t]), expected[t]);
  }

  std::vector<size_t> got(texts.size(), ~size_t{0});
  BatchMyersEditDistanceScalar(pattern, views.data(), views.size(),
                               got.data());
  ASSERT_EQ(got, expected);

#if POWER_HAVE_AVX2
  if (Avx2Runnable() && !pattern.empty() && pattern.size() <= 64) {
    std::vector<size_t> avx(texts.size(), ~size_t{0});
    BatchMyersEditDistanceAvx2(pattern, views.data(), views.size(),
                               avx.data());
    ASSERT_EQ(avx, expected) << "pattern \"" << pattern << "\"";
  }
#endif
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (level == SimdLevel::kAvx2 && !Avx2Runnable()) continue;
    ScopedSimdLevel scope(level);
    std::vector<size_t> dispatched(texts.size(), ~size_t{0});
    BatchMyersEditDistance(pattern, views.data(), views.size(),
                           dispatched.data());
    ASSERT_EQ(dispatched, expected) << "dispatch " << SimdLevelName(level);
  }
}

TEST(SimdKernelsMyers, BatchedMatchesSinglePairOnWordBoundaryPatterns) {
  Rng rng(4242);
  // Pattern lengths pinned around the 64-char single-word boundary (65+
  // exercises the scalar fallback inside the dispatched batch).
  for (size_t pattern_len : {0u, 1u, 2u, 31u, 63u, 64u, 65u, 100u}) {
    std::string pattern = RandomText(&rng, pattern_len, 4);
    std::vector<std::string> texts;
    // Batch sizes straddle the 8-lane group: remainder lanes 1..7 plus a
    // full second group.
    for (size_t t = 0; t < 19; ++t) {
      size_t len = rng.UniformIndex(130);
      if (t % 7 == 0) len = 0;              // empty text lanes
      if (t % 5 == 0) len = 64 + t;         // cross the word boundary
      texts.push_back(RandomText(&rng, len, 4));
    }
    ExpectBatchMatchesSinglePair(pattern, texts);
  }
}

TEST(SimdKernelsMyers, RandomizedBatchFuzz) {
  Rng rng(99991);
  for (int round = 0; round < 60; ++round) {
    const int alphabet = rng.Bernoulli(0.5) ? 2 : 8;
    std::string pattern =
        RandomText(&rng, rng.UniformIndex(70), alphabet);
    std::vector<std::string> texts;
    const size_t count = 1 + rng.UniformIndex(17);
    for (size_t t = 0; t < count; ++t) {
      texts.push_back(RandomText(&rng, rng.UniformIndex(150), alphabet));
    }
    ExpectBatchMatchesSinglePair(pattern, texts);
  }
}

TEST(SimdKernelsMyers, IdenticalAndDegenerateTexts) {
  std::string p64(64, 'x');
  std::string p63 = p64.substr(1);
  ExpectBatchMatchesSinglePair(p64, {p64, p63, "", "x", p64 + "y"});
  ExpectBatchMatchesSinglePair("", {"", "abc", p64});
  ExpectBatchMatchesSinglePair("a", {"", "a", "b", "aa", p64});
}

// ---------------------------------------------------------------------------
// Dispatch policy.
// ---------------------------------------------------------------------------

TEST(SimdKernelsDispatch, ResolvePolicy) {
  // Unset / empty / auto: highest available level.
  for (const char* env : {static_cast<const char*>(nullptr), "", "auto"}) {
    EXPECT_EQ(ResolveSimdLevel(env, true, true), SimdLevel::kAvx2);
    EXPECT_EQ(ResolveSimdLevel(env, true, false), SimdLevel::kScalar);
    EXPECT_EQ(ResolveSimdLevel(env, false, true), SimdLevel::kScalar);
    EXPECT_EQ(ResolveSimdLevel(env, false, false), SimdLevel::kScalar);
  }
  // Forced off.
  EXPECT_EQ(ResolveSimdLevel("off", true, true), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel("scalar", true, true), SimdLevel::kScalar);
  // Forced avx2: honored when available, safe scalar fallback otherwise.
  EXPECT_EQ(ResolveSimdLevel("avx2", true, true), SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel("avx2", true, false), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel("avx2", false, false), SimdLevel::kScalar);
  // Unknown values abort rather than silently changing the engine.
  EXPECT_DEATH(ResolveSimdLevel("sse9", true, true), "unknown POWER_SIMD");
}

// ---------------------------------------------------------------------------
// The shared record-level Jaccard prune predicate (feature_cache.h).
// ---------------------------------------------------------------------------

TEST(SimdKernelsPrunePredicate, MatchesJaccardOfSetsOnEveryBoundary) {
  // Exhaustive small grid: the predicate must decide exactly like the
  // similarity double the legacy scan thresholds, including set sizes whose
  // Jaccard lands exactly on tau (1/2, 1/3, 2/3, ...).
  const double taus[] = {0.0,       1.0 / 3.0, 0.25, 0.3, 0.5,
                         2.0 / 3.0, 0.75,      0.9,  1.0};
  for (size_t na = 0; na <= 12; ++na) {
    for (size_t nb = 0; nb <= 12; ++nb) {
      for (size_t inter = 0; inter <= std::min(na, nb); ++inter) {
        // Materialize spans with exactly this overlap shape and compare
        // against the actual JaccardOfSets double.
        std::vector<int32_t> a;
        std::vector<int32_t> b;
        for (size_t v = 0; v < inter; ++v) {
          a.push_back(static_cast<int32_t>(v));
          b.push_back(static_cast<int32_t>(v));
        }
        for (size_t v = inter; v < na; ++v) {
          a.push_back(static_cast<int32_t>(1000 + v));
        }
        for (size_t v = inter; v < nb; ++v) {
          b.push_back(static_cast<int32_t>(2000 + v));
        }
        const double jac = JaccardOfSets(std::span<const int32_t>(a),
                                         std::span<const int32_t>(b));
        for (double tau : taus) {
          EXPECT_EQ(RecordJaccardAtLeast(inter, na, nb, tau), jac >= tau)
              << "inter " << inter << " |A| " << na << " |B| " << nb
              << " tau " << tau;
        }
      }
    }
  }
}

TEST(SimdKernelsPrunePredicate, PrefixJoinAgreesWithAllPairsOnBoundaries) {
  // Records engineered so pair Jaccards land exactly on tau = 0.5
  // (2 common / 4 union), plus token-less records, whose pairs the
  // record-level prune keeps by the Jaccard(∅, ∅) = 1 convention.
  Schema schema({{"text", SimilarityFunction::kJaccard}});
  Table table(schema);
  auto add = [&](const std::string& text) {
    Record r;
    r.entity_id = static_cast<int>(table.num_records());
    r.values = {text};
    table.Add(std::move(r));
  };
  add("alpha beta gamma");        // 0
  add("alpha beta delta");        // 1: jac(0,1) = 2/4 = tau exactly
  add("alpha beta");              // 2: jac(0,2) = 2/3, jac(1,2) = 2/3
  add("zeta");                    // 3: disjoint from the rest
  add("");                        // 4: token-less
  add("  \t ");                   // 5: token-less (whitespace only)
  add("alpha");                   // 6: jac(2,6) = 1/2 = tau exactly

  const double tau = 0.5;
  FeatureCache features(table);
  std::vector<std::pair<int, int>> scan = AllPairsCandidates(features, tau);
  std::vector<std::pair<int, int>> join = PrefixFilterJoin(features, tau);
  EXPECT_EQ(join, scan);
  // The boundary pairs and the empty-record pair are all present.
  auto has = [&](int i, int j) {
    return std::find(scan.begin(), scan.end(), std::make_pair(i, j)) !=
           scan.end();
  };
  EXPECT_TRUE(has(0, 1));  // exactly tau
  EXPECT_TRUE(has(2, 6));  // exactly tau
  EXPECT_TRUE(has(4, 5));  // Jaccard(∅, ∅) = 1
  EXPECT_FALSE(has(0, 3));
}

// ---------------------------------------------------------------------------
// Token signatures and the signature filter.
// ---------------------------------------------------------------------------

// Bit-by-bit reference, independent of both distance kernels.
uint16_t ReferenceDistance(const TokenSignature& a, const TokenSignature& b) {
  uint16_t d = 0;
  for (int w = 0; w < 4; ++w) {
    for (int bit = 0; bit < 64; ++bit) {
      d += ((a.words[w] ^ b.words[w]) >> bit) & 1;
    }
  }
  return d;
}

TEST(SimdKernelsSignature, SignatureBitIsPinned) {
  // Candidate output does not depend on the hash, but the CandidateStats
  // counters do: a change here must be deliberate.
  EXPECT_EQ(SignatureBit(0), 0u);
  EXPECT_EQ(SignatureBit(1), 158u);
  EXPECT_EQ(SignatureBit(2), 60u);
  EXPECT_EQ(SignatureBit(3), 218u);
  EXPECT_EQ(SignatureBit(100), 205u);
  EXPECT_EQ(SignatureBit(12345), 161u);
  EXPECT_EQ(SignatureBit(INT32_MAX), 225u);
  // The whole map on the first 65536 ids, folded: a few golden values miss
  // a change to the multiplier's low bits, this does not.
  uint64_t fold = 0;
  for (int32_t id = 0; id < 65536; ++id) fold = fold * 31 + SignatureBit(id);
  EXPECT_EQ(fold, 17244027806413344923u);
  const std::vector<int32_t> ids = {1, 2, 100};
  const TokenSignature sig = SignatureOf(ids);
  EXPECT_EQ(sig.words[0], uint64_t{1} << 60);
  EXPECT_EQ(sig.words[1], 0u);
  EXPECT_EQ(sig.words[2], uint64_t{1} << (158 - 128));
  EXPECT_EQ(sig.words[3], uint64_t{1} << (205 - 192));
}

// Checks the bound and the filter on one pair of sorted-unique sets: the
// signature distance never exceeds the symmetric difference, the filter
// never rejects a pair RecordJaccardAtLeast accepts — with tau on the
// pair's own Jaccard c/u and its neighbours — and the blocking table
// decides exactly like the inline.
void ExpectFilterSound(std::span<const int32_t> a, std::span<const int32_t> b,
                       size_t* boundary_passes) {
  const size_t inter = ReferenceIntersection(a, b);
  const size_t sym = a.size() + b.size() - 2 * inter;
  const uint16_t h = ReferenceDistance(SignatureOf(a), SignatureOf(b));
  ASSERT_LE(h, sym);
  const size_t uni = a.size() + b.size() - inter;
  std::vector<double> taus = {1e-9, 0.3, 0.5, 1.0};
  if (uni > 0) {
    for (size_t c = std::max<size_t>(inter, 1) - 1; c <= inter + 1; ++c) {
      if (c >= 1 && c <= uni) {
        taus.push_back(static_cast<double>(c) / static_cast<double>(uni));
      }
    }
  }
  for (double tau : taus) {
    SignatureLimits limits(std::max(a.size(), b.size()), tau);
    limits.Reset(a.size());
    const bool may = SignatureMayReach(h, a.size(), b.size(), tau);
    ASSERT_EQ(limits.MayPass(b.size(), h), may) << "tau " << tau;
    if (RecordJaccardAtLeast(inter, a.size(), b.size(), tau)) {
      ASSERT_TRUE(may) << "rejected a passing pair: |A| " << a.size()
                       << " |B| " << b.size() << " inter " << inter
                       << " h " << h << " tau " << tau;
      if (inter > 0 && uni > 0 &&
          tau == static_cast<double>(inter) / static_cast<double>(uni)) {
        ++*boundary_passes;
      }
    }
  }
}

TEST(SimdKernelsPrunePredicate, SignatureFilterNeverRejectsAPassingPair) {
  Rng rng(20261017);
  size_t boundary_passes = 0;
  // Random sets of 0-80 tokens over small (dense overlap) and large
  // universes, duplicates included.
  for (int round = 0; round < 3000; ++round) {
    const int32_t universe =
        rng.Bernoulli(0.3) ? 24 : (rng.Bernoulli(0.5) ? 500 : 100000);
    std::vector<int32_t> a = RandomSortedUnique(&rng, 80, universe);
    std::vector<int32_t> b = rng.Bernoulli(0.1)
                                 ? a
                                 : RandomSortedUnique(&rng, 80, universe);
    ExpectFilterSound(a, b, &boundary_passes);
  }
  // Forced collisions: every token of both sets hashes to one of three
  // signature bits, so most distinct tokens share a bit.
  std::vector<std::vector<int32_t>> buckets(3);
  for (int32_t id = 0; id < 400000; ++id) {
    const uint32_t bit = SignatureBit(id);
    if (bit < 3) buckets[bit].push_back(id);
  }
  for (int round = 0; round < 1000; ++round) {
    std::set<int32_t> sa;
    std::set<int32_t> sb;
    const size_t na = rng.UniformIndex(40);
    const size_t nb = rng.UniformIndex(40);
    for (size_t t = 0; t < na + nb; ++t) {
      const auto& bucket = buckets[rng.UniformIndex(3)];
      // A narrow slice of each bucket, so the sets also share tokens.
      const int32_t id = bucket[rng.UniformIndex(12)];
      (t < na ? sa : sb).insert(id);
    }
    const std::vector<int32_t> a(sa.begin(), sa.end());
    const std::vector<int32_t> b(sb.begin(), sb.end());
    ExpectFilterSound(a, b, &boundary_passes);
  }
  // 0- and 1-token sets against each other and against small sets.
  const std::vector<std::vector<int32_t>> tiny = {
      {}, {7}, {8}, {7, 8}, {buckets[0][0]}, {buckets[0][1]},
      {buckets[0][0], buckets[0][1]}};
  for (const auto& a : tiny) {
    for (const auto& b : tiny) ExpectFilterSound(a, b, &boundary_passes);
  }
  // Not vacuous: many pairs sat exactly on tau and passed.
  EXPECT_GT(boundary_passes, 1000u);
}

TEST(SimdKernelsPrunePredicate, SignatureTableMatchesInlineOnEveryBoundary) {
  // Exhaustive: every size pair up to 30, every distance up to |A| + |B|,
  // tau on every boundary c/u with u <= 12.
  std::vector<double> taus;
  for (int u = 1; u <= 12; ++u) {
    for (int c = 1; c <= u; ++c) {
      taus.push_back(static_cast<double>(c) / static_cast<double>(u));
    }
  }
  for (double tau : taus) {
    SignatureLimits limits(30, tau);
    for (size_t a = 0; a <= 30; ++a) {
      limits.Reset(a);
      for (size_t b = 0; b <= 30; ++b) {
        // At distance 0 the table is the length filter.
        ASSERT_EQ(limits.MayPass(b, 0),
                  RecordJaccardAtLeast(std::min(a, b), a, b, tau))
            << "|A| " << a << " |B| " << b << " tau " << tau;
        for (size_t h = 0; h <= a + b; ++h) {
          ASSERT_EQ(limits.MayPass(b, static_cast<uint32_t>(h)),
                    SignatureMayReach(h, a, b, tau))
              << "|A| " << a << " |B| " << b << " h " << h << " tau "
              << tau;
        }
      }
    }
  }
}

void ExpectGatherKernelsAgree(const TokenSignature& a,
                              const std::vector<TokenSignature>& pool,
                              const std::vector<int>& idx) {
  std::vector<uint16_t> expected(idx.size());
  for (size_t t = 0; t < idx.size(); ++t) {
    expected[t] = ReferenceDistance(a, pool[static_cast<size_t>(idx[t])]);
  }
  // One slot past the end must survive every kernel untouched.
  std::vector<uint16_t> got(idx.size() + 1, 0xBEEF);
  auto check = [&](const char* what) {
    ASSERT_EQ(got.back(), 0xBEEF) << what;
    got.pop_back();
    ASSERT_EQ(got, expected) << what;
    got.assign(idx.size() + 1, 0xBEEF);
  };
  GatherSignatureDistancesScalar(a, pool.data(), idx.data(), idx.size(),
                                 got.data());
  check("scalar");
#if POWER_HAVE_AVX2
  if (Avx2Runnable()) {
    GatherSignatureDistancesAvx2(a, pool.data(), idx.data(), idx.size(),
                                 got.data());
    check("avx2");
  }
#endif
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (level == SimdLevel::kAvx2 && !Avx2Runnable()) continue;
    ScopedSimdLevel scope(level);
    GatherSignatureDistances(a, pool.data(), idx.data(), idx.size(),
                             got.data());
    check(SimdLevelName(level));
  }
}

TEST(SimdKernelsSignature, GatherMatchesScalar) {
  Rng rng(31337);
  // A pool of random, all-zero, all-one and token-set signatures.
  std::vector<TokenSignature> pool(80);
  for (size_t p = 0; p < pool.size(); ++p) {
    for (uint64_t& w : pool[p].words) {
      switch (p % 4) {
        case 0:
          w = rng.Fork();
          break;
        case 1:
          w = 0;
          break;
        case 2:
          w = ~uint64_t{0};
          break;
        default:
          break;
      }
    }
    if (p % 4 == 3) {
      pool[p] = SignatureOf(RandomSortedUnique(&rng, 40, 5000));
    }
  }
  TokenSignature zero;
  TokenSignature ones;
  for (uint64_t& w : ones.words) w = ~uint64_t{0};
  const TokenSignature probes[] = {zero, ones, pool[0], pool[3]};
  for (const TokenSignature& a : probes) {
    // Counts 0-67 straddle the four-signature step.
    for (size_t count = 0; count <= 67; ++count) {
      for (int round = 0; round < 4; ++round) {
        std::vector<int> idx(count);
        for (int& i : idx) i = static_cast<int>(rng.UniformIndex(pool.size()));
        ExpectGatherKernelsAgree(a, pool, idx);
      }
    }
  }
}

}  // namespace
}  // namespace power
