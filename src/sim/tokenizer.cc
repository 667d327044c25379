#include "sim/tokenizer.h"

#include <algorithm>

#include "util/strings.h"

namespace power {
namespace {

void SortUnique(std::vector<std::string>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

std::vector<std::string> WordTokenSet(std::string_view text) {
  std::vector<std::string> tokens = SplitWhitespace(ToLower(text));
  SortUnique(&tokens);
  return tokens;
}

std::vector<std::string> QGramSet(std::string_view text, size_t q) {
  std::string lower = ToLower(text);
  std::vector<std::string> grams;
  if (lower.empty()) return grams;
  if (lower.size() <= q) {
    grams.push_back(lower);
  } else {
    grams.reserve(lower.size() - q + 1);
    for (size_t i = 0; i + q <= lower.size(); ++i) {
      grams.push_back(lower.substr(i, q));
    }
  }
  SortUnique(&grams);
  return grams;
}

size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  size_t inter = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    int cmp = a[i].compare(b[j]);
    if (cmp == 0) {
      ++inter;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return inter;
}

double JaccardOfSets(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t inter = SortedIntersectionSize(a, b);
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

size_t SortedIntersectionSize(std::span<const int32_t> a,
                              std::span<const int32_t> b) {
  // A plain merge. It backs RecordLevelJaccard and is the oracle the
  // candidate paths are tested against; they, and the similarity table,
  // count against TokenMarks instead (sim/feature_cache.h).
  size_t inter = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return inter;
}

double JaccardOfSets(std::span<const int32_t> a, std::span<const int32_t> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t inter = SortedIntersectionSize(a, b);
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace power
