// AVX2 kernels for the similarity front end. This is the only translation
// unit in the repo allowed to use vector intrinsics (power-lint rule
// `raw-simd`); it is compiled with -mavx2 and only ever entered through the
// runtime dispatch in simd_kernels.cc, so the rest of the library stays
// baseline-ISA clean.
//
// Both kernels are integer kernels with scalar-identical results:
//
//   BatchMyersEditDistanceAvx2 — Myers' bit-parallel Levenshtein recurrence
//     (the exact formulation of MyersDistance in similarity.cc, one 64-bit
//     pattern word) advanced for 8 texts in lock-step: two 4×64-bit vectors
//     hold the per-text pv/mv words, a third pair holds the running scores.
//     Texts shorter than the longest in the group go inactive: their state
//     and score are blend-masked out, which is bit-equivalent to having
//     stopped their column loop. The pattern's peq table is built once per
//     call (shared reference string), amortized over the whole batch.
//
//   GatherSignatureDistancesAvx2 — popcount of the XOR of one 256-bit
//     token signature with each of many gathered ones: byte counts from a
//     16-entry nibble table (vpshufb), summed per 64-bit lane by vpsadbw,
//     and four signatures' lane sums packed into 16-bit fields so one
//     horizontal add yields four distances.

#include "sim/simd_kernels.h"

#if POWER_HAVE_AVX2

#include <immintrin.h>

#include <cstring>

namespace power {

// ---------------------------------------------------------------------------
// Batched Myers edit distance.
// ---------------------------------------------------------------------------

namespace {

// State of one 4-text lane group: pv/mv pattern words and running scores,
// one 64-bit lane per text.
struct MyersLanes {
  __m256i pv;
  __m256i mv;
  __m256i score;
  __m256i len;  // text lengths, for the active-lane mask
};

inline MyersLanes InitLanes(size_t m, const std::string_view* texts,
                            size_t count) {
  MyersLanes lanes;
  lanes.pv = _mm256_set1_epi64x(-1);
  lanes.mv = _mm256_setzero_si256();
  lanes.score = _mm256_set1_epi64x(static_cast<long long>(m));
  alignas(32) int64_t len[4] = {0, 0, 0, 0};
  for (size_t l = 0; l < 4 && l < count; ++l) {
    len[l] = static_cast<int64_t>(texts[l].size());
  }
  lanes.len = _mm256_load_si256(reinterpret_cast<const __m256i*>(len));
  return lanes;
}

// One column step of the single-word Myers recurrence on 4 lanes. eq holds
// each lane's peq word for its column character (0 for inactive lanes —
// blended away below). Mirrors the scalar loop in similarity.cc bit for
// bit, per lane.
inline void AdvanceLanes(MyersLanes* lanes, __m256i eq, __m256i high,
                         __m256i col) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i active = _mm256_cmpgt_epi64(lanes->len, col);

  const __m256i pv = lanes->pv;
  const __m256i mv = lanes->mv;
  const __m256i xv = _mm256_or_si256(eq, mv);
  const __m256i eq_and_pv = _mm256_and_si256(eq, pv);
  const __m256i xh = _mm256_or_si256(
      _mm256_xor_si256(_mm256_add_epi64(eq_and_pv, pv), pv), eq);
  __m256i ph =
      _mm256_or_si256(mv, _mm256_andnot_si256(_mm256_or_si256(xh, pv), ones));
  __m256i mh = _mm256_and_si256(pv, xh);

  // score += (ph & high) ? 1 : (mh & high) ? -1 : 0, active lanes only.
  // cmpeq yields -1 per hit lane, so subtract the plus mask and add the
  // minus mask. ph-hit and mh-hit are mutually exclusive (ph & mh == 0).
  const __m256i plus =
      _mm256_cmpeq_epi64(_mm256_and_si256(ph, high), high);
  const __m256i minus =
      _mm256_cmpeq_epi64(_mm256_and_si256(mh, high), high);
  // minus - plus: a ph hit gives 0 - (-1) = +1, an mh hit -1 - 0 = -1.
  __m256i delta = _mm256_sub_epi64(minus, plus);
  delta = _mm256_and_si256(delta, active);
  lanes->score = _mm256_add_epi64(lanes->score, delta);

  ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), _mm256_set1_epi64x(1));
  mh = _mm256_slli_epi64(mh, 1);
  const __m256i pv_next =
      _mm256_or_si256(mh, _mm256_andnot_si256(_mm256_or_si256(xv, ph), ones));
  const __m256i mv_next = _mm256_and_si256(ph, xv);
  lanes->pv = _mm256_blendv_epi8(pv, pv_next, active);
  lanes->mv = _mm256_blendv_epi8(mv, mv_next, active);
}

// peq words for one column of 4 texts; inactive lanes get 0.
inline __m256i GatherEq(const uint64_t* peq, const std::string_view* texts,
                        size_t count, size_t col) {
  alignas(32) uint64_t eq[4] = {0, 0, 0, 0};
  for (size_t l = 0; l < 4 && l < count; ++l) {
    if (col < texts[l].size()) {
      eq[l] = peq[static_cast<unsigned char>(texts[l][col])];
    }
  }
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(eq));
}

inline void StoreScores(const MyersLanes& lanes, size_t count, size_t* out) {
  alignas(32) int64_t score[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(score), lanes.score);
  for (size_t l = 0; l < 4 && l < count; ++l) {
    out[l] = static_cast<size_t>(score[l]);
  }
}

}  // namespace

void BatchMyersEditDistanceAvx2(std::string_view pattern,
                                const std::string_view* texts, size_t count,
                                size_t* out) {
  const size_t m = pattern.size();
  // Dispatch guarantees 1 <= m <= 64; the recurrence below carries one
  // pattern word per lane.
  uint64_t peq[256];
  std::memset(peq, 0, sizeof(peq));
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= 1ULL << i;
  }
  const __m256i high = _mm256_set1_epi64x(
      static_cast<long long>(1ULL << (m - 1)));

  for (size_t base = 0; base < count; base += kMyersBatchLanes) {
    const size_t n0 = count - base;            // texts left for group 0
    const size_t n1 = n0 > 4 ? n0 - 4 : 0;     // texts left for group 1
    const std::string_view* t0 = texts + base;
    const std::string_view* t1 = t0 + 4;
    MyersLanes g0 = InitLanes(m, t0, n0);
    MyersLanes g1 = InitLanes(m, t1, n1);
    size_t max_len = 0;
    for (size_t l = 0; l < kMyersBatchLanes && base + l < count; ++l) {
      max_len = texts[base + l].size() > max_len ? texts[base + l].size()
                                                 : max_len;
    }
    for (size_t col = 0; col < max_len; ++col) {
      const __m256i col_v =
          _mm256_set1_epi64x(static_cast<long long>(col));
      AdvanceLanes(&g0, GatherEq(peq, t0, n0, col), high, col_v);
      if (n1 > 0) {
        AdvanceLanes(&g1, GatherEq(peq, t1, n1, col), high, col_v);
      }
    }
    StoreScores(g0, n0, out + base);
    if (n1 > 0) StoreScores(g1, n1, out + base + 4);
  }
}

// ---------------------------------------------------------------------------
// Signature distances.
// ---------------------------------------------------------------------------

namespace {

inline __m256i LoadSignature(const TokenSignature& s) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s.words));
}

// Per-64-bit-lane bit counts of a ^ b: nibble-table byte counts (Mula),
// summed eight bytes at a time by vpsadbw. Each lane holds at most 64.
inline __m256i LaneDistances(__m256i a, __m256i b) {
  const __m256i table =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i x = _mm256_xor_si256(a, b);
  const __m256i lo = _mm256_shuffle_epi8(table, _mm256_and_si256(x, nibble));
  const __m256i hi = _mm256_shuffle_epi8(
      table, _mm256_and_si256(_mm256_srli_epi16(x, 4), nibble));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

// Distances of a to b0..b3, written to out[0..4). Signature t's lane counts
// are shifted into bits [16t, 16t + 16) of each 64-bit lane, and the four
// lanes summed: a total is at most 256, so no field carries into the next,
// and the low 64 bits hold the four distances as little-endian uint16s.
inline void FourDistances(__m256i a, __m256i b0, __m256i b1, __m256i b2,
                          __m256i b3, uint16_t* out) {
  __m256i acc = LaneDistances(a, b0);
  acc = _mm256_add_epi64(acc, _mm256_slli_epi64(LaneDistances(a, b1), 16));
  acc = _mm256_add_epi64(acc, _mm256_slli_epi64(LaneDistances(a, b2), 32));
  acc = _mm256_add_epi64(acc, _mm256_slli_epi64(LaneDistances(a, b3), 48));
  __m128i sum = _mm_add_epi64(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
  sum = _mm_add_epi64(sum, _mm_unpackhi_epi64(sum, sum));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out), sum);
}

// The last count % 4 entries: missing slots compare a against itself
// (distance 0) and are not copied out.
template <typename Load>
inline void TailDistances(__m256i a, size_t remaining, Load load,
                          uint16_t* out) {
  __m256i b[4] = {a, a, a, a};
  for (size_t t = 0; t < remaining; ++t) b[t] = load(t);
  uint16_t tail[4];
  FourDistances(a, b[0], b[1], b[2], b[3], tail);
  std::memcpy(out, tail, remaining * sizeof(uint16_t));
}

}  // namespace

void GatherSignatureDistancesAvx2(const TokenSignature& a,
                                  const TokenSignature* sigs, const int* idx,
                                  size_t count, uint16_t* out) {
  const __m256i va = LoadSignature(a);
  auto load = [&](size_t k) {
    return LoadSignature(sigs[static_cast<size_t>(idx[k])]);
  };
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    FourDistances(va, load(t), load(t + 1), load(t + 2), load(t + 3),
                  out + t);
  }
  if (t < count) {
    TailDistances(
        va, count - t, [&](size_t k) { return load(t + k); }, out + t);
  }
}

}  // namespace power

#endif  // POWER_HAVE_AVX2
