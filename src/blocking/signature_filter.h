#ifndef POWER_BLOCKING_SIGNATURE_FILTER_H_
#define POWER_BLOCKING_SIGNATURE_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

 private:
  double tau_;
  std::vector<int32_t> limit_;
  // The entries the last Reset set: [lo_, hi_).
  size_t lo_ = 0;
  size_t hi_ = 0;
};

}  // namespace power

#endif  // POWER_BLOCKING_SIGNATURE_FILTER_H_
