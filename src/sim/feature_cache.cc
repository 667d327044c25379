#include "sim/feature_cache.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <unordered_map>

#include "sim/similarity.h"
#include "sim/tokenizer.h"
#include "util/parallel.h"

namespace power {
namespace {

constexpr int64_t kRecordGrain = 32;

void SortUnique(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// Packs per-slot id vectors into one flat array + offsets. Offsets are a
// serial prefix sum (pure function of the sizes); the copy shards over slots.
// The destination arrays live on the aligned arena (util/arena.h).
void PackCsr(const std::vector<std::vector<int32_t>>& rows,
             ArenaVector<int32_t>* ids, ArenaVector<uint64_t>* off) {
  off->assign(rows.size() + 1, 0);
  for (size_t r = 0; r < rows.size(); ++r) {
    (*off)[r + 1] = (*off)[r] + rows[r].size();
  }
  ids->resize(off->back());
  ParallelFor(0, static_cast<int64_t>(rows.size()), kRecordGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  std::copy(rows[static_cast<size_t>(r)].begin(),
                            rows[static_cast<size_t>(r)].end(),
                            ids->data() + (*off)[static_cast<size_t>(r)]);
                }
              });
}

}  // namespace

FeatureCache::FeatureCache(const Table& table)
    : table_(&table),
      n_(table.num_records()),
      m_(table.schema().num_attributes()) {
  const size_t cells = n_ * m_;

  // Lowercase arena + numerics. Byte offsets are a pure function of the
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

  // Tokenize every cell into views over the (now immutable) lowercase arena.
  std::vector<std::vector<std::string_view>> cell_words(cells);
  std::vector<std::vector<std::string_view>> cell_grams(cells);
  ParallelFor(
      0, static_cast<int64_t>(n_), kRecordGrain,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          for (size_t k = 0; k < m_; ++k) {
            const size_t c = cell(static_cast<size_t>(i), k);
            std::string_view lower = LowerValue(static_cast<size_t>(i), k);
            auto is_space = [&](size_t p) {
              return std::isspace(static_cast<unsigned char>(lower[p])) != 0;
            };
            size_t p = 0;
            while (p < lower.size()) {
              while (p < lower.size() && is_space(p)) ++p;
              size_t start = p;
              while (p < lower.size() && !is_space(p)) ++p;
              if (p > start) {
                cell_words[c].push_back(lower.substr(start, p - start));
              }
            }
            // QGramSet(·, 2) semantics: strings of length <= 2 yield the
            // whole string as a single gram; longer strings every window.
            if (!lower.empty()) {
              if (lower.size() <= 2) {
                cell_grams[c].push_back(lower);
              } else {
                cell_grams[c].reserve(lower.size() - 1);
                for (size_t b = 0; b + 2 <= lower.size(); ++b) {
                  cell_grams[c].push_back(lower.substr(b, 2));
                }
              }
            }
          }
        }
      });

  // Serial interning pass: cells in ascending order, word tokens before
  // bigrams within a cell. First occurrence assigns the id, so the mapping
  // is independent of the thread count. View keys point into lower_bytes_,
  // which no longer reallocates.
  std::unordered_map<std::string_view, int32_t> intern;
  std::vector<std::vector<int32_t>> word_ids(cells);
  std::vector<std::vector<int32_t>> gram_ids(cells);
  auto intern_all = [&](const std::vector<std::string_view>& tokens,
                        std::vector<int32_t>* out) {
    out->reserve(tokens.size());
    for (std::string_view t : tokens) {
      auto [it, added] =
          intern.try_emplace(t, static_cast<int32_t>(dict_ref_.size()));
      if (added) {
        dict_ref_.emplace_back(
            static_cast<uint64_t>(t.data() - lower_bytes_.data()),
            static_cast<uint32_t>(t.size()));
      }
      out->push_back(it->second);
    }
  };
  for (size_t c = 0; c < cells; ++c) {
    intern_all(cell_words[c], &word_ids[c]);
    intern_all(cell_grams[c], &gram_ids[c]);
  }
  cell_words = {};
  cell_grams = {};

  // Sort-unique every cell span and union the record-level span (parallel;
  // ids are injective over token strings, so dedup-by-id equals the legacy
  // dedup-by-string and the spans represent exactly the same sets).
  std::vector<std::vector<int32_t>> rec_ids(n_);
  rec_sig_.resize(n_);
  ParallelFor(0, static_cast<int64_t>(n_), kRecordGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  size_t total = 0;
                  for (size_t k = 0; k < m_; ++k) {
                    const size_t c = cell(static_cast<size_t>(i), k);
                    SortUnique(&word_ids[c]);
                    SortUnique(&gram_ids[c]);
                    total += word_ids[c].size();
                  }
                  // Record tokens == union of the cell word-token sets: the
                  // legacy concatenation joins cells with ' ', so no token
                  // ever spans a cell boundary.
                  auto& rec = rec_ids[static_cast<size_t>(i)];
                  rec.reserve(total);
                  for (size_t k = 0; k < m_; ++k) {
                    const auto& w = word_ids[cell(static_cast<size_t>(i), k)];
                    rec.insert(rec.end(), w.begin(), w.end());
                  }
                  SortUnique(&rec);
                  rec_sig_[static_cast<size_t>(i)] = SignatureOf(rec);
                }
              });

  PackCsr(word_ids, &word_ids_, &word_off_);
  PackCsr(gram_ids, &gram_ids_, &gram_off_);
  PackCsr(rec_ids, &rec_ids_, &rec_off_);
}

double ComputeSimilarity(const FeatureCache& features, SimilarityFunction fn,
                         size_t i, size_t j, size_t k) {
  switch (fn) {
    case SimilarityFunction::kJaccard:
      return JaccardOfSets(features.WordTokenIds(i, k),
                           features.WordTokenIds(j, k));
    case SimilarityFunction::kEditSimilarity: {
      std::string_view a = features.LowerValue(i, k);
      std::string_view b = features.LowerValue(j, k);
      size_t max_len = std::max(a.size(), b.size());
      if (max_len == 0) return 1.0;
      return 1.0 - static_cast<double>(MyersEditDistance(a, b)) /
                       static_cast<double>(max_len);
    }
    case SimilarityFunction::kBigramJaccard:
      return JaccardOfSets(features.BigramIds(i, k), features.BigramIds(j, k));
    case SimilarityFunction::kCosine: {
      auto a = features.WordTokenIds(i, k);
      auto b = features.WordTokenIds(j, k);
      if (a.empty() && b.empty()) return 1.0;
      if (a.empty() || b.empty()) return 0.0;
      size_t inter = SortedIntersectionSize(a, b);
      return static_cast<double>(inter) /
             std::sqrt(static_cast<double>(a.size()) *
                       static_cast<double>(b.size()));
    }
    case SimilarityFunction::kOverlap: {
      auto a = features.WordTokenIds(i, k);
      auto b = features.WordTokenIds(j, k);
      if (a.empty() && b.empty()) return 1.0;
      if (a.empty() || b.empty()) return 0.0;
      size_t inter = SortedIntersectionSize(a, b);
      return static_cast<double>(inter) /
             static_cast<double>(std::min(a.size(), b.size()));
    }
    case SimilarityFunction::kNumeric: {
      double va = 0.0;
      double vb = 0.0;
      if (!features.NumericValue(i, k, &va) ||
          !features.NumericValue(j, k, &vb)) {
        return JaccardOfSets(features.BigramIds(i, k),
                             features.BigramIds(j, k));
      }
      double max_abs = std::max(std::abs(va), std::abs(vb));
      if (max_abs == 0.0) return 1.0;
      double sim = 1.0 - std::abs(va - vb) / max_abs;
      return std::max(0.0, sim);
    }
  }
  return 0.0;
}

}  // namespace power
