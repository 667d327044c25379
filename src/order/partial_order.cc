#include "order/partial_order.h"

#include "util/check.h"

namespace power {

bool Dominates(std::span<const double> a, std::span<const double> b) {
  POWER_CHECK(a.size() == b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k] < b[k]) return false;
  }
  return true;
}

bool StrictlyDominates(std::span<const double> a, std::span<const double> b) {
  POWER_CHECK(a.size() == b.size());
  bool strict = false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k] < b[k]) return false;
    if (a[k] > b[k]) strict = true;
  }
  return strict;
}

bool Comparable(std::span<const double> a, std::span<const double> b) {
  DomOrder order = CompareDominance(a, b);
  return order == DomOrder::kDominates || order == DomOrder::kDominatedBy;
}

DomOrder CompareDominance(std::span<const double> a,
                          std::span<const double> b) {
  POWER_CHECK(a.size() == b.size());
  bool a_greater = false;
  bool b_greater = false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) {
      a_greater = true;
      if (b_greater) return DomOrder::kIncomparable;
    } else if (a[k] < b[k]) {
      b_greater = true;
      if (a_greater) return DomOrder::kIncomparable;
    }
  }
  if (a_greater) return DomOrder::kDominates;
  if (b_greater) return DomOrder::kDominatedBy;
  return DomOrder::kEqual;
}

bool GroupDominates(std::span<const double> lower_i,
                    std::span<const double> upper_j) {
  POWER_CHECK(lower_i.size() == upper_j.size());
  for (size_t k = 0; k < lower_i.size(); ++k) {
    if (lower_i[k] < upper_j[k]) return false;
  }
  return true;
}

bool GroupStrictlyDominates(std::span<const double> lower_i,
                            std::span<const double> upper_j) {
  POWER_CHECK(lower_i.size() == upper_j.size());
  bool strict = false;
  for (size_t k = 0; k < lower_i.size(); ++k) {
    if (lower_i[k] < upper_j[k]) return false;
    if (lower_i[k] > upper_j[k]) strict = true;
  }
  return strict;
}

}  // namespace power
