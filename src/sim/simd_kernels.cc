#include "sim/simd_kernels.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>

#include "sim/similarity.h"
#include "util/check.h"
#include "util/env.h"

namespace power {
namespace {

// -1 = unresolved; otherwise a SimdLevel value. Resolution is idempotent
// (a pure function of the environment and CPU), so a racing first call from
// pool threads resolves to the same value on every thread.
std::atomic<int> g_simd_level{-1};

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

bool BuiltWithAvx2() {
#if POWER_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

SimdLevel ResolveSimdLevel(const char* env_value, bool built_with_avx2,
                           bool cpu_has_avx2) {
  const bool avx2_available = built_with_avx2 && cpu_has_avx2;
  if (env_value == nullptr || env_value[0] == '\0' ||
      std::strcmp(env_value, "auto") == 0) {
    return avx2_available ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  }
  if (std::strcmp(env_value, "off") == 0 ||
      std::strcmp(env_value, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  if (std::strcmp(env_value, "avx2") == 0) {
    if (!avx2_available) {
      // Falling back is safe — the kernels are byte-identical — but say so
      // once: the caller asked for a specific engine.
      std::fprintf(stderr,
                   "power: POWER_SIMD=avx2 requested but %s; using scalar "
                   "kernels (results are identical)\n",
                   built_with_avx2 ? "the CPU lacks AVX2"
                                   : "this build has no AVX2 kernels");
      return SimdLevel::kScalar;
    }
    return SimdLevel::kAvx2;
  }
  std::fprintf(stderr, "power: unknown POWER_SIMD value '%s' (expected off, "
                       "scalar, avx2, or auto)\n", env_value);
  std::abort();
}

SimdLevel ActiveSimdLevel() {
  int level = g_simd_level.load(std::memory_order_acquire);
  if (level < 0) {
    // EnvRaw: ResolveSimdLevel owns the grammar, including the deliberate
    // abort on unknown values (a typo'd engine name must never silently
    // run a different kernel set than the caller intended).
    SimdLevel resolved = ResolveSimdLevel(EnvRaw("POWER_SIMD"),
                                          BuiltWithAvx2(), CpuSupportsAvx2());
    level = static_cast<int>(resolved);
    int expected = -1;
    // First writer wins; everyone computed the same value anyway.
    g_simd_level.compare_exchange_strong(expected, level,
                                         std::memory_order_acq_rel);
  }
  return static_cast<SimdLevel>(level);
}

void OverrideSimdLevel(SimdLevel level) {
  if (level == SimdLevel::kAvx2) {
    POWER_CHECK_MSG(BuiltWithAvx2() && CpuSupportsAvx2(),
                    "OverrideSimdLevel(kAvx2) without AVX2 support");
  }
  g_simd_level.store(static_cast<int>(level), std::memory_order_release);
}

void BatchMyersEditDistanceScalar(std::string_view pattern,
                                  const std::string_view* texts, size_t count,
                                  size_t* out) {
  for (size_t t = 0; t < count; ++t) {
    out[t] = MyersEditDistance(pattern, texts[t]);
  }
}

void BatchMyersEditDistance(std::string_view pattern,
                            const std::string_view* texts, size_t count,
                            size_t* out) {
#if POWER_HAVE_AVX2
  // The vector path keeps one pattern word per lane; longer (or empty)
  // patterns take the scalar single-pair kernel, which handles every size.
  if (ActiveSimdLevel() == SimdLevel::kAvx2 && !pattern.empty() &&
      pattern.size() <= 64) {
    BatchMyersEditDistanceAvx2(pattern, texts, count, out);
    return;
  }
#endif
  BatchMyersEditDistanceScalar(pattern, texts, count, out);
}

TokenSignature SignatureOf(std::span<const int32_t> ids) {
  TokenSignature sig;
  for (int32_t id : ids) {
    const uint32_t bit = SignatureBit(id);
    sig.words[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  return sig;
}

namespace {

inline uint16_t Distance(const TokenSignature& a, const TokenSignature& b) {
  return static_cast<uint16_t>(std::popcount(a.words[0] ^ b.words[0]) +
                               std::popcount(a.words[1] ^ b.words[1]) +
                               std::popcount(a.words[2] ^ b.words[2]) +
                               std::popcount(a.words[3] ^ b.words[3]));
}

}  // namespace

void GatherSignatureDistancesScalar(const TokenSignature& a,
                                    const TokenSignature* sigs,
                                    const int* idx, size_t count,
                                    uint16_t* out) {
  for (size_t t = 0; t < count; ++t) {
    out[t] = Distance(a, sigs[static_cast<size_t>(idx[t])]);
  }
}

void GatherSignatureDistances(const TokenSignature& a,
                              const TokenSignature* sigs, const int* idx,
                              size_t count, uint16_t* out) {
#if POWER_HAVE_AVX2
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    GatherSignatureDistancesAvx2(a, sigs, idx, count, out);
    return;
  }
#endif
  GatherSignatureDistancesScalar(a, sigs, idx, count, out);
}

}  // namespace power
