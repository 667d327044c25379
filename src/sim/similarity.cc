#include "sim/similarity.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/tokenizer.h"

namespace power {

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string.
  if (b.empty()) return a.size();
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t next_diag = row[j];
      size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
      diag = next_diag;
    }
  }
  return row[b.size()];
}

namespace {

constexpr size_t kWordBits = 64;

inline unsigned char LowerByte(char c) {
  return static_cast<unsigned char>(
      std::tolower(static_cast<unsigned char>(c)));
}

// One column step of Myers' bit-parallel DP on one 64-bit block (Hyyrö's
// block formulation). pv/mv are the vertical delta bit-vectors of the block,
// hin/hout the horizontal deltas entering from below / leaving at `high`.
inline int AdvanceBlock(uint64_t eq, uint64_t& pv, uint64_t& mv,
                        uint64_t high, int hin) {
  uint64_t xv = eq | mv;
  if (hin < 0) eq |= 1ULL;
  uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
  uint64_t ph = mv | ~(xh | pv);
  uint64_t mh = pv & xh;
  int hout = 0;
  if (ph & high) {
    hout = 1;
  } else if (mh & high) {
    hout = -1;
  }
  ph <<= 1;
  mh <<= 1;
  if (hin > 0) {
    ph |= 1ULL;
  } else if (hin < 0) {
    mh |= 1ULL;
  }
  pv = mh | ~(xv | ph);
  mv = ph & xv;
  return hout;
}

// Full Levenshtein distance of pattern vs. text, 0 < |pattern| <= |text|.
// kLower folds both sides through tolower without materializing copies.
template <bool kLower>
size_t MyersDistance(std::string_view pattern, std::string_view text) {
  const size_t m = pattern.size();
  auto fold = [](char c) {
    return kLower ? LowerByte(c) : static_cast<unsigned char>(c);
  };

  if (m <= kWordBits) {
    uint64_t peq[256] = {0};
    for (size_t i = 0; i < m; ++i) {
      peq[fold(pattern[i])] |= 1ULL << i;
    }
    uint64_t pv = ~0ULL;
    uint64_t mv = 0;
    const uint64_t high = 1ULL << (m - 1);
    size_t score = m;
    for (char tc : text) {
      uint64_t eq = peq[fold(tc)];
      uint64_t xv = eq | mv;
      uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      uint64_t ph = mv | ~(xh | pv);
      uint64_t mh = pv & xh;
      if (ph & high) {
        ++score;
      } else if (mh & high) {
        --score;
      }
      ph = (ph << 1) | 1ULL;
      mh <<= 1;
      pv = mh | ~(xv | ph);
      mv = ph & xv;
    }
    return score;
  }

  // Blocked variant: ceil(m/64) vertical blocks per text column, horizontal
  // deltas carried between blocks. Scratch is thread-local so steady-state
  // pair loops allocate nothing.
  const size_t blocks = (m + kWordBits - 1) / kWordBits;
  thread_local std::vector<uint64_t> peq;
  thread_local std::vector<uint64_t> pv;
  thread_local std::vector<uint64_t> mv;
  peq.assign(blocks * 256, 0);
  pv.assign(blocks, ~0ULL);
  mv.assign(blocks, 0);
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<size_t>(fold(pattern[i])) * blocks + i / kWordBits] |=
        1ULL << (i % kWordBits);
  }
  size_t score = m;
  const uint64_t last_high = 1ULL << ((m - 1) % kWordBits);
  for (char tc : text) {
    const uint64_t* eq_col = &peq[static_cast<size_t>(fold(tc)) * blocks];
    int hin = 1;  // row-0 boundary: D[0][j] - D[0][j-1] = +1
    for (size_t b = 0; b < blocks; ++b) {
      const uint64_t high =
          b + 1 == blocks ? last_high : 1ULL << (kWordBits - 1);
      hin = AdvanceBlock(eq_col[b], pv[b], mv[b], high, hin);
    }
    score += static_cast<size_t>(hin);
  }
  return score;
}

}  // namespace

size_t MyersEditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the pattern (shorter)
  if (a.empty()) return b.size();
  return MyersDistance<false>(a, b);
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  std::string_view pattern = a.size() <= b.size() ? a : b;
  std::string_view text = a.size() <= b.size() ? b : a;
  size_t dist =
      pattern.empty() ? text.size() : MyersDistance<true>(pattern, text);
  return 1.0 - static_cast<double>(dist) / static_cast<double>(max_len);
}

double WordJaccard(std::string_view a, std::string_view b) {
  return JaccardOfSets(WordTokenSet(a), WordTokenSet(b));
}

double BigramJaccard(std::string_view a, std::string_view b) {
  return JaccardOfSets(QGramSet(a, 2), QGramSet(b, 2));
}

double CosineSimilarity(std::string_view a, std::string_view b) {
  auto ta = WordTokenSet(a);
  auto tb = WordTokenSet(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  size_t inter = SortedIntersectionSize(ta, tb);
  return static_cast<double>(inter) /
         std::sqrt(static_cast<double>(ta.size()) *
                   static_cast<double>(tb.size()));
}

double OverlapCoefficient(std::string_view a, std::string_view b) {
  auto ta = WordTokenSet(a);
  auto tb = WordTokenSet(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  size_t inter = SortedIntersectionSize(ta, tb);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(ta.size(), tb.size()));
}

bool ParseNumericValue(std::string_view s, double* value) {
  // Trim (same byte classification as util::Trim) without copying.
  size_t lo = 0;
  size_t hi = s.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(s[lo]))) ++lo;
  while (hi > lo && std::isspace(static_cast<unsigned char>(s[hi - 1]))) --hi;
  std::string_view t = s.substr(lo, hi - lo);
  if (t.empty()) return false;

  // strtod needs a NUL-terminated buffer; a stack copy covers virtually
  // every real value, a thread-local string the oversized tail. An embedded
  // NUL truncates the parse, so `end` lands short of len and we reject —
  // same outcome as the std::string-based parse this replaces.
  char stack_buf[128];
  const char* buf;
  if (t.size() < sizeof(stack_buf)) {
    std::memcpy(stack_buf, t.data(), t.size());
    stack_buf[t.size()] = '\0';
    buf = stack_buf;
  } else {
    thread_local std::string heap_buf;
    heap_buf.assign(t);
    buf = heap_buf.c_str();
  }
  char* end = nullptr;
  double v = std::strtod(buf, &end);
  // strtod also reads "inf", "nan" and overflowing text like "1e999"; those
  // fall back to the string path like "12a", since 1 - |a - b| / max(|a|,
  // |b|) would score two equal cells as NaN (clamped to 0).
  if (end != buf + t.size() || !std::isfinite(v)) return false;
  *value = v;
  return true;
}

double NumericSimilarity(std::string_view a, std::string_view b) {
  double va = 0.0;
  double vb = 0.0;
  if (!ParseNumericValue(a, &va) || !ParseNumericValue(b, &vb)) {
    return BigramJaccard(a, b);
  }
  double max_abs = std::max(std::abs(va), std::abs(vb));
  if (max_abs == 0.0) return 1.0;
  double sim = 1.0 - std::abs(va - vb) / max_abs;
  return std::max(0.0, sim);
}

double ComputeSimilarity(SimilarityFunction fn, std::string_view a,
                         std::string_view b) {
  switch (fn) {
    case SimilarityFunction::kJaccard:
      return WordJaccard(a, b);
    case SimilarityFunction::kEditSimilarity:
      return EditSimilarity(a, b);
    case SimilarityFunction::kBigramJaccard:
      return BigramJaccard(a, b);
    case SimilarityFunction::kCosine:
      return CosineSimilarity(a, b);
    case SimilarityFunction::kOverlap:
      return OverlapCoefficient(a, b);
    case SimilarityFunction::kNumeric:
      return NumericSimilarity(a, b);
  }
  return 0.0;
}

}  // namespace power
