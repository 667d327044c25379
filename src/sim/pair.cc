#include "sim/pair.h"

#include <bit>
#include <cstring>
#include <limits>

#include "util/check.h"

namespace power {

RowInterner::RowInterner(size_t m) : m_(m), slots_(64, 0) {}

uint64_t RowInterner::Hash(const double* row) const {
  // Similarity doubles often differ only in high mantissa bits, and the
  // slot takes the low bits, so every word is folded down before the next
  // and the result goes through a final avalanche.
  uint64_t h = 0;
  for (size_t k = 0; k < m_; ++k) {
    h = (h ^ std::bit_cast<uint64_t>(row[k])) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

void RowInterner::Grow() {
  slots_.assign(slots_.size() * 2, 0);
  const size_t mask = slots_.size() - 1;
  for (size_t id = 0; id < size_; ++id) {
    size_t s = Hash(rows_.data() + id * m_) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(id + 1);
  }
}

uint32_t RowInterner::Intern(const double* row) {
  const size_t mask = slots_.size() - 1;
  size_t s = Hash(row) & mask;
  while (slots_[s] != 0) {
    const size_t id = slots_[s] - 1;
    if (m_ == 0 ||
        std::memcmp(rows_.data() + id * m_, row, m_ * sizeof(double)) == 0) {
      return static_cast<uint32_t>(id);
    }
    s = (s + 1) & mask;
  }
  POWER_CHECK_MSG(size_ < std::numeric_limits<uint32_t>::max() - 1,
                  "too many distinct similarity rows for a 4-byte index");
  const auto id = static_cast<uint32_t>(size_++);
  rows_.insert(rows_.end(), row, row + m_);
  slots_[s] = id + 1;
  if (2 * size_ > slots_.size()) Grow();
  return id;
}

std::vector<double> RowInterner::TakeRows() {
  std::vector<double> rows = std::move(rows_);
  rows_.clear();
  size_ = 0;
  slots_.assign(64, 0);
  return rows;
}

}  // namespace power
