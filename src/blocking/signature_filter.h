#ifndef POWER_BLOCKING_SIGNATURE_FILTER_H_
#define POWER_BLOCKING_SIGNATURE_FILTER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/feature_cache.h"

namespace power {

/// SignatureMayReach as a table, for one record at a time: after Reset(a),
/// MayPass(b, h) == SignatureMayReach(h, a, b, tau) for every b <= max_size
/// and every h <= a + b, without a division per pair. Shared by the
/// all-pairs scan and the prefix join (blocking/ only).
///
/// limit_[b] is a + b - 2c, where c is the smallest intersection at which
/// RecordJaccardAtLeast(c, a, b, tau) holds, or -1 when no c <= min(a, b)
/// does (the length filter). SignatureMayReach holds exactly when
/// min(floor((a + b - h) / 2), a, b) >= c, i.e. when h <= a + b - 2c,
/// because the predicate is monotone in the intersection. c never falls as
/// b grows (a larger union needs at least as large an intersection), so one
/// upward walk of c fills the table, and it stops past a / tau: no larger b
/// passes.
class SignatureLimits {
 public:
  SignatureLimits(size_t max_size, double tau)
      : tau_(tau), limit_(max_size + 1, -1) {}

  /// Fills the table for a record of `a` tokens, clearing the last one.
  void Reset(size_t a) {
    std::fill(limit_.begin() + static_cast<std::ptrdiff_t>(lo_),
              limit_.begin() + static_cast<std::ptrdiff_t>(hi_), -1);
    lo_ = 0;
    hi_ = 0;
    size_t c = 0;
    for (size_t b = 0; b < limit_.size(); ++b) {
      const size_t most = std::min(a, b);
      while (c <= most && !RecordJaccardAtLeast(c, a, b, tau_)) ++c;
      if (c <= most) {
        limit_[b] = static_cast<int32_t>(a + b - 2 * c);
        if (hi_ == 0) lo_ = b;
        hi_ = b + 1;
      } else if (b >= a) {
        break;
      }
    }
  }

  /// The signature filter at distance h. At h = 0 it is the length filter.
  bool MayPass(size_t b, uint32_t h) const {
    return static_cast<int32_t>(h) <= limit_[b];
  }

  /// L(a, b): the largest distance that passes against a record of `b`
  /// tokens, or -1 when none does.
  int32_t Limit(size_t b) const { return limit_[b]; }

 private:
  double tau_;
  std::vector<int32_t> limit_;
  // The entries the last Reset set: [lo_, hi_).
  size_t lo_ = 0;
  size_t hi_ = 0;
};

/// One bit per lane of a step of SignatureSteps: lane t is bit t % 64 of
/// words[t / 64].
struct LaneMask {
  uint64_t words[4] = {0, 0, 0, 0};
};

/// Lanes [lo, hi) of a step, for 0 <= lo <= hi <= 256.
inline LaneMask LaneRange(size_t lo, size_t hi) {
  LaneMask m;
  for (size_t w = 0; w < 4; ++w) {
    const size_t from = std::clamp(lo, 64 * w, 64 * w + 64) - 64 * w;
    const size_t to = std::clamp(hi, 64 * w, 64 * w + 64) - 64 * w;
    if (from == to) continue;
    const uint64_t below_to = to == 64 ? ~uint64_t{0} : (uint64_t{1} << to) - 1;
    m.words[w] = below_to & ~((uint64_t{1} << from) - 1);
  }
  return m;
}

/// A signature's set bits, ascending; `count` is its popcount.
struct SignatureBits {
  explicit SignatureBits(const TokenSignature& sig) {
    for (int w = 0; w < 4; ++w) {
      for (uint64_t m = sig.words[w]; m != 0; m &= m - 1) {
        bits[count++] = static_cast<uint8_t>(64 * w + std::countr_zero(m));
      }
    }
  }
  int count = 0;
  uint8_t bits[256];
};

/// SignatureLimits' test for up to 256 records at once, bit-sliced. Each
/// step holds its members' signatures transposed: plane q is the lane mask
/// of the members whose signature has bit q, 256 planes per step, so 32
/// bytes per member as in the signatures themselves.
///
/// With h = p_x + p_y - 2|s_x ∧ s_y| (p the popcounts), the test h <= L is
/// K - p_y + 2|s_x ∧ s_y| >= K + p_x - L for any constant K. K is the
/// largest popcount laid out, so the left side is a counter in [0, 2K]:
/// each step stores K - p_y bit-sliced as its seeds, in width =
/// bit_width(2K) lane masks, and a row adds the planes of its set bits at
/// weight 2 (a half-adder chain over counter bits 1 and up), then compares
/// every counter with the one constant T = K + p_x - L. A row must be one
/// of the signatures laid out (p_x <= K): then L >= 0 gives T <= 2K, which
/// fits the width, and the counter never wraps.
class SignatureSteps {
 public:
  static constexpr size_t kLanes = 256;

  explicit SignatureSteps(int max_popcount)
      : max_popcount_(max_popcount),
        width_(std::bit_width(2 * static_cast<unsigned>(max_popcount))) {}

  size_t size() const { return planes_.size() / kLanes; }

  /// Appends a step whose lane t holds sigs[ids[t]], for t < ids.size()
  /// <= 256. Every signature has at most max_popcount bits.
  void Add(std::span<const TokenSignature> sigs, std::span<const int> ids) {
    const size_t step = size();
    planes_.resize(planes_.size() + kLanes);
    seeds_.resize(seeds_.size() + static_cast<size_t>(width_));
    LaneMask* planes = planes_.data() + step * kLanes;
    LaneMask* seeds = seeds_.data() + step * static_cast<size_t>(width_);
    for (size_t t = 0; t < ids.size(); ++t) {
      const uint64_t lane = uint64_t{1} << (t % 64);
      const SignatureBits y(sigs[static_cast<size_t>(ids[t])]);
      for (int i = 0; i < y.count; ++i) planes[y.bits[i]].words[t / 64] |= lane;
      const int seed = max_popcount_ - y.count;
      for (int k = 0; k < width_; ++k) {
        if ((seed >> k) & 1) seeds[k].words[t / 64] |= lane;
      }
    }
  }

  /// The lanes of `lanes` whose member y has popcount(s_x ^ s_y) <= limit,
  /// where limit is SignatureLimits::Limit for the two records' sizes.
  LaneMask MayPass(size_t step, const SignatureBits& x, int32_t limit,
                   const LaneMask& lanes) const {
    if (limit < 0) return {};
    const int32_t threshold = max_popcount_ + x.count - limit;
    if (threshold <= 0) return lanes;
    // Only the words that hold asked lanes are counted: a bucket's last
    // step is often short.
    if ((lanes.words[1] | lanes.words[2] | lanes.words[3]) == 0) {
      return Count<1>(step, x, threshold, lanes);
    }
    if ((lanes.words[2] | lanes.words[3]) == 0) {
      return Count<2>(step, x, threshold, lanes);
    }
    return Count<4>(step, x, threshold, lanes);
  }

 private:
  // bit_width(2 * 256): a signature has at most 256 bits.
  static constexpr int kMaxWidth = 10;

  // MayPass on the first kWords words of the lanes, with 0 < threshold
  // <= 2K.
  template <size_t kWords>
  LaneMask Count(size_t step, const SignatureBits& x, int32_t threshold,
                 const LaneMask& lanes) const {
    const LaneMask* planes = planes_.data() + step * kLanes;
    const LaneMask* seeds = seeds_.data() + step * static_cast<size_t>(width_);
    uint64_t counter[kMaxWidth][kWords];
    for (int k = 0; k < width_; ++k) {
      for (size_t w = 0; w < kWords; ++w) counter[k][w] = seeds[k].words[w];
    }
    for (int i = 0; i < x.count; ++i) {
      uint64_t carry[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        carry[w] = planes[x.bits[i]].words[w];
      }
      for (int k = 1; k < width_; ++k) {
        for (size_t w = 0; w < kWords; ++w) {
          const uint64_t next = counter[k][w] & carry[w];
          counter[k][w] ^= carry[w];
          carry[w] = next;
        }
      }
    }
    // counter >= threshold, from the top bit down: `above` holds the lanes
    // already greater, `equal` those equal so far.
    uint64_t above[kWords] = {};
    uint64_t equal[kWords];
    for (size_t w = 0; w < kWords; ++w) equal[w] = lanes.words[w];
    for (int k = width_ - 1; k >= 0; --k) {
      if ((threshold >> k) & 1) {
        for (size_t w = 0; w < kWords; ++w) equal[w] &= counter[k][w];
      } else {
        for (size_t w = 0; w < kWords; ++w) {
          above[w] |= equal[w] & counter[k][w];
          equal[w] &= ~counter[k][w];
        }
      }
    }
    LaneMask pass;
    for (size_t w = 0; w < kWords; ++w) pass.words[w] = above[w] | equal[w];
    return pass;
  }

  int max_popcount_;
  int width_;
  // kLanes planes and width_ seeds per step.
  std::vector<LaneMask> planes_;
  std::vector<LaneMask> seeds_;
};

}  // namespace power

#endif  // POWER_BLOCKING_SIGNATURE_FILTER_H_
