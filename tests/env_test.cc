// Tests for the centralized environment-knob surface (util/env.h): parse
// strictness, the unset/malformed/clamp resolution contract, the raw and
// verbose accessors, and the knob registry the README table is generated
// from. Also covers the ranked-mutex lock-order assertion (util/mutex.h),
// whose runtime half backs the POWER_ACQUIRED_BEFORE annotations.

#include "util/env.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "util/mutex.h"

namespace power {
namespace {

// RAII environment override: sets in the constructor, restores (or unsets)
// in the destructor, so tests cannot leak knob state into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

constexpr char kVar[] = "POWER_ENV_TEST_KNOB";

// ---------------------------------------------------------------------------
// ParseInt / ParseDouble: full-token strictness.
// ---------------------------------------------------------------------------

TEST(ParseIntTest, AcceptsFullTokens) {
  EXPECT_EQ(ParseInt("0"), 0);
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_EQ(ParseInt("+13"), 13);
  EXPECT_EQ(ParseInt("9223372036854775807"), INT64_MAX);
}

TEST(ParseIntTest, RejectsWhatAtoiSilentlyZeroes) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("banana").has_value());
  EXPECT_FALSE(ParseInt("4x").has_value());       // trailing garbage
  EXPECT_FALSE(ParseInt(" 4").has_value());       // leading space
  EXPECT_FALSE(ParseInt("4 ").has_value());       // trailing space
  EXPECT_FALSE(ParseInt("0x10").has_value());     // no hex grammar
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("99999999999999999999").has_value());  // overflow
}

TEST(ParseDoubleTest, AcceptsFiniteNumbers) {
  EXPECT_EQ(ParseDouble("0.5"), 0.5);
  EXPECT_EQ(ParseDouble("-2"), -2.0);
  EXPECT_EQ(ParseDouble("1e3"), 1000.0);
}

TEST(ParseDoubleTest, RejectsGarbageAndNonFinite) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("banana").has_value());
  EXPECT_FALSE(ParseDouble("0.5x").has_value());
  EXPECT_FALSE(ParseDouble(" 0.5").has_value());
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("inf").has_value());
  EXPECT_FALSE(ParseDouble("1e999").has_value());  // overflows to inf
}

// ---------------------------------------------------------------------------
// EnvInt / EnvDouble: precedence (env > default), clamping, malformed.
// ---------------------------------------------------------------------------

TEST(EnvIntTest, UnsetAndEmptyUseDefault) {
  ScopedEnv unset(kVar, nullptr);
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 7);
  ScopedEnv empty(kVar, "");
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 7);
}

TEST(EnvIntTest, SetValueWinsOverDefault) {
  ScopedEnv env(kVar, "42");
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 42);
}

TEST(EnvIntTest, OutOfRangeClampsToBounds) {
  {
    ScopedEnv env(kVar, "1000");
    EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 100);
  }
  {
    ScopedEnv env(kVar, "-5");
    EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 0);
  }
}

TEST(EnvIntTest, MalformedFallsBackToDefaultNotZero) {
  // The defining difference from the old atoi idiom: "4x" and "banana" must
  // resolve to the documented default, not to 0.
  ScopedEnv env(kVar, "4x");
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 7);
  ScopedEnv env2(kVar, "banana");
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 7);
}

TEST(EnvIntTest, ReReadsEnvironmentEveryCall) {
  ScopedEnv env(kVar, "1");
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 1);
  ::setenv(kVar, "2", 1);
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 2);
}

TEST(EnvDoubleTest, ResolutionContract) {
  ScopedEnv unset(kVar, nullptr);
  EXPECT_EQ(EnvDouble(kVar, 0.1, 0.0, 1.0), 0.1);
  {
    ScopedEnv env(kVar, "0.25");
    EXPECT_EQ(EnvDouble(kVar, 0.1, 0.0, 1.0), 0.25);
  }
  {
    ScopedEnv env(kVar, "7.5");  // clamps to hi
    EXPECT_EQ(EnvDouble(kVar, 0.1, 0.0, 1.0), 1.0);
  }
  {
    ScopedEnv env(kVar, "banana");  // the bench_util regression: not 0.0
    EXPECT_EQ(EnvDouble(kVar, 0.1, 0.0, 1.0), 0.1);
  }
}

// ---------------------------------------------------------------------------
// EnvRaw / EnvVerbose.
// ---------------------------------------------------------------------------

TEST(EnvMiscTest, IsSetAndRaw) {
  ScopedEnv unset(kVar, nullptr);
  EXPECT_EQ(EnvRaw(kVar), nullptr);
  ScopedEnv empty(kVar, "");
  EXPECT_STREQ(EnvRaw(kVar), "");
  ScopedEnv env(kVar, "x");
  EXPECT_STREQ(EnvRaw(kVar), "x");
}

TEST(EnvMiscTest, VerboseGrammar) {
  ScopedEnv unset("POWER_VERBOSE", nullptr);
  EXPECT_FALSE(EnvVerbose());
  {
    ScopedEnv env("POWER_VERBOSE", "1");
    EXPECT_TRUE(EnvVerbose());
  }
  {
    ScopedEnv env("POWER_VERBOSE", "0");
    EXPECT_FALSE(EnvVerbose());
  }
}

// ---------------------------------------------------------------------------
// Knob registry: the generated README table's source of truth.
// ---------------------------------------------------------------------------

TEST(EnvKnobsTest, RegistryCoversEveryKnownKnob) {
  auto knobs = EnvKnobs();
  ASSERT_FALSE(knobs.empty());
  auto has = [&](const char* name) {
    for (const EnvKnobInfo& k : knobs) {
      if (std::string(k.name) == name) return true;
    }
    return false;
  };
  // Every POWER_* knob read anywhere in src/ or bench/ must be registered;
  // the env-read lint rule funnels new readers through util/env.h, and this
  // list is the reminder to register them.
  EXPECT_TRUE(has("POWER_THREADS"));
  EXPECT_TRUE(has("POWER_SIMD"));
  EXPECT_TRUE(has("POWER_VERBOSE"));
  EXPECT_TRUE(has("POWER_ACMPUB_SCALE"));
  for (const EnvKnobInfo& k : knobs) {
    EXPECT_NE(k.name, nullptr);
    EXPECT_STRNE(k.desc, "") << k.name;
    EXPECT_STRNE(k.type, "") << k.name;
  }
}

// ---------------------------------------------------------------------------
// Ranked mutexes: the runtime half of the POWER_ACQUIRED_BEFORE lock-order
// contract (util/mutex.h).
// ---------------------------------------------------------------------------

TEST(MutexRankTest, AscendingAcquisitionIsAllowed) {
  Mutex low(10);
  Mutex high(20);
  MutexLock a(low);
  MutexLock b(high);  // 10 -> 20: fine
  SUCCEED();
}

TEST(MutexRankTest, UnrankedMutexesAreExemptFromOrderChecks) {
  Mutex a;  // kUnranked
  Mutex b;
  MutexLock la(a);
  MutexLock lb(b);
  SUCCEED();
}

TEST(MutexRankTest, RankIsQueryable) {
  Mutex m(42);
  EXPECT_EQ(m.rank(), 42);
  Mutex u;
  EXPECT_EQ(u.rank(), Mutex::kUnranked);
}

TEST(MutexRankDeathTest, DescendingAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex high(20);
        Mutex low(10);
        MutexLock a(high);
        MutexLock b(low);  // 20 -> 10: inversion
      },
      "lock-order violation");
}

TEST(MutexRankDeathTest, RecursiveLockOfRankedMutexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex m(10);
        MutexLock a(m);
        m.Lock();  // same rank = not strictly ascending (self-deadlock)
      },
      "lock-order violation");
}

TEST(MutexRankTest, ReleaseUnwindsAllowingReacquisition) {
  Mutex low(10);
  Mutex high(20);
  {
    MutexLock a(low);
    MutexLock b(high);
  }
  // Everything released: starting over from the low rank is fine.
  MutexLock c(low);
  SUCCEED();
}

TEST(MutexRankTest, TryLockBookkeepsOnSuccess) {
  Mutex low(10);
  Mutex high(20);
  ASSERT_TRUE(high.TryLock());
  // With rank 20 held, TryLock of rank 10 succeeds (TryLock cannot block,
  // so it carries no ordering precondition) — but bookkeeping must stay
  // balanced through unlock.
  ASSERT_TRUE(low.TryLock());
  low.Unlock();
  high.Unlock();
  MutexLock a(low);  // clean slate
  SUCCEED();
}

}  // namespace
}  // namespace power
