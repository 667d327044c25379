#include "sim/feature_cache.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "sim/similarity.h"
#include "util/parallel.h"

namespace power {
namespace {

constexpr int64_t kRecordGrain = 32;

// Slot of a 1- or 2-byte token in the direct intern table: one slot per
// 1-byte token, then one per 2-byte token. Every bigram, and every word of
// one or two bytes, is interned there instead of in the hash map.
size_t ShortTokenSlot(std::string_view t) {
  const auto b0 = static_cast<unsigned char>(t[0]);
  if (t.size() == 1) return b0;
  return 256 + (size_t{b0} << 8 | static_cast<unsigned char>(t[1]));
}

bool IsSpace(char ch) {
  return std::isspace(static_cast<unsigned char>(ch)) != 0;
}

}  // namespace

FeatureCache::FeatureCache(const Table& table)
    : table_(&table),
      n_(table.num_records()),
      m_(table.schema().num_attributes()) {
  const size_t cells = n_ * m_;

  // Lowercase bytes + numerics. Byte offsets are a pure function of the
  // value sizes, so every cell's slot is fixed before the parallel fill.
  lower_off_.assign(cells + 1, 0);
  for (size_t c = 0; c < cells; ++c) {
    lower_off_[c + 1] = lower_off_[c] + table.Value(c / m_, c % m_).size();
  }
  lower_bytes_.resize(lower_off_[cells]);
  numeric_val_.assign(cells, 0.0);
  numeric_ok_.assign(cells, 0);
  ParallelFor(0, static_cast<int64_t>(n_), kRecordGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  for (size_t k = 0; k < m_; ++k) {
                    const std::string& value =
                        table.Value(static_cast<size_t>(i), k);
                    const size_t c = cell(static_cast<size_t>(i), k);
                    char* out = lower_bytes_.data() + lower_off_[c];
                    for (size_t b = 0; b < value.size(); ++b) {
                      out[b] = static_cast<char>(
                          std::tolower(static_cast<unsigned char>(value[b])));
                    }
                    double v = 0.0;
                    if (ParseNumericValue(value, &v)) {
                      numeric_val_[c] = v;
                      numeric_ok_[c] = 1;
                    }
                  }
                }
              });

  // Serial pass: tokenize cells in ascending order, words before bigrams
  // within a cell, and intern by first occurrence, so ids do not depend on
  // the thread count. An id joins a span the first time it appears there:
  // cell_seen[id] is 2c + 1 once among cell c's words, 2c + 2 once among
  // its bigrams; record_seen[id] is i + 1 once among record i's words. View
  // keys point into lower_bytes_, which no longer reallocates.
  std::vector<int32_t> short_ids(256 + 65536, -1);
  std::unordered_map<std::string_view, int32_t> long_ids;
  std::vector<uint64_t> cell_seen;
  std::vector<uint64_t> record_seen;
  auto intern = [&](std::string_view t) {
    int32_t& id = t.size() <= 2 ? short_ids[ShortTokenSlot(t)]
                                : long_ids.try_emplace(t, -1).first->second;
    if (id < 0) {
      id = static_cast<int32_t>(dict_ref_.size());
      dict_ref_.emplace_back(
          static_cast<uint64_t>(t.data() - lower_bytes_.data()),
          static_cast<uint32_t>(t.size()));
      cell_seen.push_back(0);
      record_seen.push_back(0);
    }
    return static_cast<size_t>(id);
  };

  // A cell has at most one bigram per byte.
  gram_ids_.reserve(lower_bytes_.size());
  word_off_.assign(cells + 1, 0);
  gram_off_.assign(cells + 1, 0);
  rec_off_.assign(n_ + 1, 0);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t k = 0; k < m_; ++k) {
      const size_t c = cell(i, k);
      const std::string_view lower = LowerValue(i, k);
      for (size_t p = 0; p < lower.size();) {
        while (p < lower.size() && IsSpace(lower[p])) ++p;
        const size_t start = p;
        while (p < lower.size() && !IsSpace(lower[p])) ++p;
        if (p == start) continue;
        const size_t id = intern(lower.substr(start, p - start));
        if (cell_seen[id] == 2 * c + 1) continue;
        cell_seen[id] = 2 * c + 1;
        word_ids_.push_back(static_cast<int32_t>(id));
        // Record tokens == union of the cell word-token sets: the legacy
        // concatenation joins cells with ' ', so no token ever spans a
        // cell boundary.
        if (record_seen[id] != i + 1) {
          record_seen[id] = i + 1;
          rec_ids_.push_back(static_cast<int32_t>(id));
        }
      }
      word_off_[c + 1] = word_ids_.size();
      // QGramSet(·, 2) semantics: a value of 1 or 2 bytes is its own single
      // gram, a longer one yields every 2-byte window.
      const size_t grams = lower.size() > 1 ? lower.size() - 1 : lower.size();
      for (size_t b = 0; b < grams; ++b) {
        const size_t id = intern(lower.substr(b, 2));
        if (cell_seen[id] == 2 * c + 2) continue;
        cell_seen[id] = 2 * c + 2;
        gram_ids_.push_back(static_cast<int32_t>(id));
      }
      gram_off_[c + 1] = gram_ids_.size();
    }
    rec_off_[i + 1] = rec_ids_.size();
  }
  word_ids_.shrink_to_fit();
  rec_ids_.shrink_to_fit();

  // Sort every span in place (parallel; ids are injective over token
  // strings, so the sorted ids of a span represent exactly the legacy
  // sorted-unique string set).
  rec_sig_.resize(n_);
  auto sort_span = [](int32_t* ids, const uint64_t* off, size_t s) {
    std::sort(ids + off[s], ids + off[s + 1]);
  };
  ParallelFor(0, static_cast<int64_t>(n_), kRecordGrain,
              [&](int64_t begin, int64_t end) {
                for (auto i = static_cast<size_t>(begin);
                     i < static_cast<size_t>(end); ++i) {
                  for (size_t k = 0; k < m_; ++k) {
                    sort_span(word_ids_.data(), word_off_.data(), cell(i, k));
                    sort_span(gram_ids_.data(), gram_off_.data(), cell(i, k));
                  }
                  sort_span(rec_ids_.data(), rec_off_.data(), i);
                  rec_sig_[i] = SignatureOf(RecordTokenIds(i));
                }
              });
}

}  // namespace power
