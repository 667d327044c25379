#ifndef POWER_SIM_SIMD_KERNELS_H_
#define POWER_SIM_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace power {

/// Runtime-dispatched SIMD kernels for the similarity front end's hot loops
/// over the columnar FeatureCache:
///
///   batched Myers edit distance — Levenshtein distances of up to 8 texts
///       per call against one shared reference string, lanes advanced in
///       lock-step (AVX2: 4 × 64-bit pattern words per vector, two vectors
///       per column step). Powers the edit-similarity columns of
///       ComputeSimilarityTable, where every pair of a candidate run shares
///       its left record's cached lowercase bytes as the reference.
///   signature distances — popcount(a ^ b) of one 256-bit token signature
///       against gathered others (AVX2: nibble-table byte counts, four
///       signatures per step). Powers the prefix join's signature filter in
///       front of its record-level Jaccard verifications (the all-pairs scan
///       runs the same filter bit-sliced, in plain word code:
///       blocking/signature_filter.h).
///
/// Token-set intersections have no kernel here: every production count is
/// one TokenMarks pass (sim/feature_cache.h), which measured faster than the
/// AVX2 block merge it replaced (DESIGN.md §14).
///
/// Both kernel families are *integer* kernels: they return edit distances
/// and bit counts, never floats. Every similarity double is derived from
/// those integers by the same scalar expressions on every dispatch path, so
/// scalar and SIMD results are byte-identical by construction — and a
/// differential-test layer (tests/simd_kernels_test.cc,
/// tests/simd_dispatch_test.cc) proves it on adversarial inputs and on the
/// end-to-end question/coloring trace (see DESIGN.md §13).
///
/// Dispatch is resolved once, at the first kernel call:
///   POWER_SIMD=off|scalar   force the scalar kernels;
///   POWER_SIMD=avx2         force AVX2 (falls back to scalar, with a
///                           one-time stderr notice, if the binary was built
///                           without AVX2 support or the CPU lacks it —
///                           results are identical either way);
///   POWER_SIMD=auto / unset pick AVX2 when compiled in and the CPU has it.
/// Any other value aborts (a typo must not silently change the dispatch
/// under test). Intrinsics live only in src/sim/simd_kernels_avx2.cc,
/// enforced by the power-lint `raw-simd` rule.

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

/// Name for logs/benches: "scalar" or "avx2".
const char* SimdLevelName(SimdLevel level);

/// True when this binary carries the AVX2 translation unit (compile-time).
bool BuiltWithAvx2();

/// True when the CPU executing this process supports AVX2.
bool CpuSupportsAvx2();

/// Pure dispatch policy: maps a POWER_SIMD value (nullptr/"" = unset) and
/// the availability bits to the level to run. Unknown values abort. Exposed
/// separately so the policy is unit-testable without touching the process
/// environment.
SimdLevel ResolveSimdLevel(const char* env_value, bool built_with_avx2,
                           bool cpu_has_avx2);

/// The level kernels currently dispatch to. First call resolves
/// ResolveSimdLevel(getenv("POWER_SIMD"), ...) and caches it.
SimdLevel ActiveSimdLevel();

/// Overrides the dispatch level for tests and benches (the differential
/// layer flips this between runs to compare scalar and AVX2 in one
/// process). Production code must not call it: the one sanctioned
/// production override is the POWER_SIMD environment variable.
void OverrideSimdLevel(SimdLevel level);

// ---------------------------------------------------------------------------
// Batched Myers edit distance.
// ---------------------------------------------------------------------------

/// Number of pairs a batched Myers call advances per column step at the
/// widest compiled vector width (two 4×64-bit AVX2 lane groups).
inline constexpr size_t kMyersBatchLanes = 8;

/// out[t] = MyersEditDistance(pattern, texts[t]) for t in [0, count) —
/// the scalar reference (it simply calls the scalar single-pair kernel).
void BatchMyersEditDistanceScalar(std::string_view pattern,
                                  const std::string_view* texts, size_t count,
                                  size_t* out);

/// Dispatched batch: identical integers to the scalar reference on every
/// input. The AVX2 path engages for 1 <= |pattern| <= 64 (one pattern
/// word); empty or >64-byte patterns take the scalar path, as do the
/// (count % 8) tail texts of a batch.
void BatchMyersEditDistance(std::string_view pattern,
                            const std::string_view* texts, size_t count,
                            size_t* out);

// ---------------------------------------------------------------------------
// Token signatures.
// ---------------------------------------------------------------------------

/// A set's 256-bit token signature: bit SignatureBit(id) is set for every
/// token id in the set. A bit set in only one of two signatures names a
/// token of that set which the other lacks, and distinct bits name distinct
/// tokens, so popcount(a ^ b) <= |A Δ B| (see SignatureMayReach in
/// sim/feature_cache.h).
struct alignas(32) TokenSignature {
  uint64_t words[4] = {0, 0, 0, 0};
};

/// The signature bit of a token id: the top 8 bits of a multiplicative
/// (Fibonacci) hash. Pinned: candidate output does not depend on it, but
/// the CandidateStats counters do.
inline constexpr uint32_t SignatureBit(int32_t id) {
  return (static_cast<uint32_t>(id) * 0x9E3779B1u) >> 24;
}

/// The signature of a token-id set (duplicates set the same bit).
TokenSignature SignatureOf(std::span<const int32_t> ids);

/// out[t] = popcount(a ^ sigs[idx[t]]) for t in [0, count): one signature
/// against gathered entries, the prefix join's shape (one probe's
/// candidates) — the scalar reference.
void GatherSignatureDistancesScalar(const TokenSignature& a,
                                    const TokenSignature* sigs,
                                    const int* idx, size_t count,
                                    uint16_t* out);

/// Dispatched gather: identical integers to the scalar reference.
void GatherSignatureDistances(const TokenSignature& a,
                              const TokenSignature* sigs, const int* idx,
                              size_t count, uint16_t* out);

#if POWER_HAVE_AVX2
/// AVX2 kernels, exposed directly for the differential tests and the
/// kernel-level bench (callers normally go through the dispatched entry
/// points above). Same contracts as the scalar variants.
void BatchMyersEditDistanceAvx2(std::string_view pattern,
                                const std::string_view* texts, size_t count,
                                size_t* out);
void GatherSignatureDistancesAvx2(const TokenSignature& a,
                                  const TokenSignature* sigs, const int* idx,
                                  size_t count, uint16_t* out);
#endif  // POWER_HAVE_AVX2

}  // namespace power

#endif  // POWER_SIM_SIMD_KERNELS_H_
