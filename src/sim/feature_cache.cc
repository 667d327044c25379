#include "sim/feature_cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstddef>
#include <cstring>

#include "sim/similarity.h"
#include "util/parallel.h"

namespace power {
namespace {

constexpr int64_t kRecordGrain = 32;

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

// Slot of a 1- or 2-byte token in the direct intern table: one slot per
// 1-byte token, then one per 2-byte token. Every bigram, and every word of
// one or two bytes, is interned there instead of in LongTokenTable.
size_t ShortTokenSlot(std::string_view t) {
  const auto b0 = static_cast<unsigned char>(t[0]);
  if (t.size() == 1) return b0;
  return 256 + (size_t{b0} << 8 | static_cast<unsigned char>(t[1]));
}

uint64_t Load64(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

uint64_t Load32(const char* p) {
  uint32_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Mixes the bytes of `t` into h as fixed-width words, so every load reads
// bytes of t only and any byte value, NUL included, counts like any other:
// up to 3 bytes as one word of the first, middle and last byte, 4 to 7
// bytes as two overlapping 4-byte words, longer ones 8 bytes at a time with
// the last word ending at t's end. An empty t mixes nothing.
uint64_t MixBytes(uint64_t h, std::string_view t) {
  const char* p = t.data();
  const size_t len = t.size();
  auto mix = [&h](uint64_t w) {
    h = (h ^ w) * kGolden;
    h ^= h >> 32;
  };
  if (len == 0) return h;
  if (len < 4) {
    mix(static_cast<unsigned char>(p[0]) |
        static_cast<uint64_t>(static_cast<unsigned char>(p[len / 2])) << 8 |
        static_cast<uint64_t>(static_cast<unsigned char>(p[len - 1])) << 16);
  } else if (len < 8) {
    mix(Load32(p) | Load32(p + len - 4) << 32);
  } else {
    for (size_t b = 0; b + 8 < len; b += 8) mix(Load64(p + b));
    mix(Load64(p + len - 8));
  }
  return h;
}

// A final avalanche, which spreads the high bits into the low ones a slot
// takes.
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

// 32-bit hash of a token of three or more bytes, its length mixed in first.
uint32_t HashLongToken(std::string_view t) {
  return static_cast<uint32_t>(Avalanche(MixBytes(t.size() * kGolden, t)));
}

// Ids of the tokens longer than two bytes: an open-addressing table with
// linear probing, kept at most half full. A slot holds a token's hash in
// its high 32 bits and its id + 1 in the low 32 (0 marks an empty slot).
// The token's bytes are the dictionary's view into the lowercase bytes,
// compared only when the hashes agree. Like RowInterner it is only probed,
// never iterated, so ids follow the interning order alone.
class LongTokenTable {
 public:
  // `bytes` are the cache's lowercase bytes and `refs` its id -> (offset,
  // length) views into them; neither reallocates while the table lives.
  LongTokenTable(const char* bytes,
                 const std::vector<std::pair<uint64_t, uint32_t>>* refs)
      : bytes_(bytes), refs_(refs), slots_(1024, 0) {}

  // The id of `t`, or `next` when `t` is new; `next` is then t's id.
  int32_t Intern(std::string_view t, int32_t next) {
    const uint32_t hash = HashLongToken(t);
    const size_t mask = slots_.size() - 1;
    size_t s = hash & mask;
    for (; slots_[s] != 0; s = (s + 1) & mask) {
      if (static_cast<uint32_t>(slots_[s] >> 32) != hash) continue;
      const auto id = static_cast<uint32_t>(slots_[s]) - 1;
      const auto& [off, len] = (*refs_)[id];
      if (len == t.size() && std::memcmp(bytes_ + off, t.data(), len) == 0) {
        return static_cast<int32_t>(id);
      }
    }
    slots_[s] = uint64_t{hash} << 32 | (static_cast<uint32_t>(next) + 1);
    if (2 * ++size_ > slots_.size()) Grow();
    return next;
  }

 private:
  void Grow() {
    std::vector<uint64_t> old(slots_.size() * 2, 0);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const uint64_t slot : old) {
      if (slot == 0) continue;
      size_t s = (slot >> 32) & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  const char* bytes_;
  const std::vector<std::pair<uint64_t, uint32_t>>* refs_;
  size_t size_ = 0;
  std::vector<uint64_t> slots_;
};

// 64-bit hash of a record's cells: each cell's bytes (MixBytes), then its
// length, so equal tuples hash equal and a moved cell boundary changes
// what is mixed.
uint64_t HashCells(const std::vector<std::string>& values) {
  uint64_t h = values.size() * kGolden;
  for (const std::string& value : values) {
    h = (MixBytes(h, value) ^ value.size()) * kGolden;
  }
  return Avalanche(h);
}

// Interns every record's cell tuple by first occurrence: class_of[i] is the
// class of record i, and the returned vector the first member of each class.
// An open-addressing table with linear probing, at most half full, holds the
// hash's high 32 bits and the class id + 1 per slot; records are compared
// cell by cell only when those bits agree. It is only probed, never
// iterated, so ids follow the record order alone.
std::vector<int> InternRecordClasses(const std::vector<Record>& records,
                                     const std::vector<uint64_t>& hashes,
                                     std::vector<uint32_t>* class_of) {
  const size_t n = records.size();
  std::vector<int> firsts;
  class_of->resize(n);
  std::vector<uint64_t> slots(std::bit_ceil(2 * n + 2), 0);
  const size_t mask = slots.size() - 1;
  for (size_t i = 0; i < n; ++i) {
    const auto tag = static_cast<uint32_t>(hashes[i] >> 32);
    auto c = static_cast<uint32_t>(firsts.size());
    size_t s = hashes[i] & mask;
    for (; slots[s] != 0; s = (s + 1) & mask) {
      const auto known = static_cast<uint32_t>(slots[s]) - 1;
      if (static_cast<uint32_t>(slots[s] >> 32) == tag &&
          records[static_cast<size_t>(firsts[known])].values ==
              records[i].values) {
        c = known;
        break;
      }
    }
    if (c == firsts.size()) {
      slots[s] = uint64_t{tag} << 32 | (c + 1);
      firsts.push_back(static_cast<int>(i));
    }
    (*class_of)[i] = c;
  }
  return firsts;
}

}  // namespace

FeatureCache::FeatureCache(const Table& table)
    : table_(&table),
      n_(table.num_records()),
      m_(table.schema().num_attributes()) {
  const std::vector<Record>& records = table.records();

  // Pass 1, on the pool: hash every record's cells. Then, serially, intern
  // the tuples into classes, and list each class's members.
  std::vector<uint64_t> hashes(n_);
  ParallelFor(0, static_cast<int64_t>(n_), kRecordGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  hashes[static_cast<size_t>(i)] =
                      HashCells(records[static_cast<size_t>(i)].values);
                }
              });
  const std::vector<int> firsts =
      InternRecordClasses(records, hashes, &class_of_);
  std::vector<uint64_t>().swap(hashes);
  const size_t classes = firsts.size();
  member_off_.assign(classes + 1, 0);
  for (const uint32_t c : class_of_) ++member_off_[c + 1];
  for (size_t c = 0; c < classes; ++c) member_off_[c + 1] += member_off_[c];
  members_.resize(n_);
  {
    std::vector<uint32_t> next(member_off_.begin(), member_off_.end() - 1);
    for (size_t i = 0; i < n_; ++i) {
      members_[next[class_of_[i]]++] = static_cast<int>(i);
    }
  }
  // Every feature below is computed from each class's first member.
  auto value = [&](size_t c, size_t k) -> const std::string& {
    return records[static_cast<size_t>(firsts[c])].values[k];
  };
  const size_t cells = classes * m_;

  // Byte tables, filled from the C locale set now, so the bytes equal
  // ToLower and the words SplitWhitespace under any locale.
  std::array<char, 256> to_lower;
  std::array<bool, 256> is_space;
  for (int b = 0; b < 256; ++b) {
    to_lower[static_cast<size_t>(b)] = static_cast<char>(std::tolower(b));
    is_space[static_cast<size_t>(b)] = std::isspace(b) != 0;
  }
  auto space = [&is_space](char ch) {
    return is_space[static_cast<unsigned char>(ch)];
  };

  // Pass 2, on the pool: lowercase bytes and numerics. Byte offsets are a
  // pure function of the value sizes, so every cell's slot is fixed before
  // the parallel fill.
  lower_off_.assign(cells + 1, 0);
  for (size_t c = 0, x = 0; c < classes; ++c) {
    for (size_t k = 0; k < m_; ++k, ++x) {
      lower_off_[x + 1] = lower_off_[x] + value(c, k).size();
    }
  }
  lower_bytes_.resize(lower_off_[cells]);
  numeric_val_.assign(cells, 0.0);
  numeric_ok_.assign(cells, 0);
  ParallelFor(0, static_cast<int64_t>(classes), kRecordGrain,
              [&](int64_t begin, int64_t end) {
                for (int64_t c = begin; c < end; ++c) {
                  for (size_t k = 0; k < m_; ++k) {
                    const std::string& v = value(static_cast<size_t>(c), k);
                    const size_t x = static_cast<size_t>(c) * m_ + k;
                    char* out = lower_bytes_.data() + lower_off_[x];
                    for (size_t b = 0; b < v.size(); ++b) {
                      out[b] = to_lower[static_cast<unsigned char>(v[b])];
                    }
                    double parsed = 0.0;
                    if (ParseNumericValue(v, &parsed)) {
                      numeric_val_[x] = parsed;
                      numeric_ok_[x] = 1;
                    }
                  }
                }
              });

  // Pass 3, serial: tokenize class cells in ascending order, words before
  // bigrams within a cell, and intern by first occurrence, so ids do not
  // depend on the thread count. An id joins a span the first time it
  // appears there: cell_seen[id] is 2x + 1 once among class cell x's words,
  // 2x + 2 once among its bigrams; record_seen[id] is c + 1 once among
  // class c's words. So a cell span holds each id once, in first-occurrence
  // order. A record span is sorted when its class ends, and its signature
  // taken.
  std::vector<int32_t> short_ids(256 + 65536, -1);
  LongTokenTable long_ids(lower_bytes_.data(), &dict_ref_);
  std::vector<uint64_t> cell_seen;
  std::vector<uint64_t> record_seen;
  auto intern = [&](std::string_view t) {
    const auto next = static_cast<int32_t>(dict_ref_.size());
    int32_t id = next;
    if (t.size() > 2) {
      id = long_ids.Intern(t, next);
    } else if (int32_t& slot = short_ids[ShortTokenSlot(t)]; slot >= 0) {
      id = slot;
    } else {
      slot = next;
    }
    if (id == next) {
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
  rec_off_.assign(classes + 1, 0);
  rec_sig_.resize(classes);
  for (size_t c = 0; c < classes; ++c) {
    const RecordClass cls{static_cast<uint32_t>(c)};
    for (size_t k = 0; k < m_; ++k) {
      const size_t x = cell(cls, k);
      const std::string_view lower = LowerValue(cls, k);
      for (size_t p = 0; p < lower.size();) {
        while (p < lower.size() && space(lower[p])) ++p;
        const size_t start = p;
        while (p < lower.size() && !space(lower[p])) ++p;
        if (p == start) continue;
        const size_t id = intern(lower.substr(start, p - start));
        if (cell_seen[id] == 2 * x + 1) continue;
        cell_seen[id] = 2 * x + 1;
        word_ids_.push_back(static_cast<int32_t>(id));
        // Record tokens == union of the cell word-token sets: the legacy
        // concatenation joins cells with ' ', so no token ever spans a
        // cell boundary.
        if (record_seen[id] != c + 1) {
          record_seen[id] = c + 1;
          rec_ids_.push_back(static_cast<int32_t>(id));
        }
      }
      word_off_[x + 1] = word_ids_.size();
      // QGramSet(·, 2) semantics: a value of 1 or 2 bytes is its own single
      // gram, a longer one yields every 2-byte window.
      const size_t grams = lower.size() > 1 ? lower.size() - 1 : lower.size();
      for (size_t b = 0; b < grams; ++b) {
        const size_t id = intern(lower.substr(b, 2));
        if (cell_seen[id] == 2 * x + 2) continue;
        cell_seen[id] = 2 * x + 2;
        gram_ids_.push_back(static_cast<int32_t>(id));
      }
      gram_off_[x + 1] = gram_ids_.size();
    }
    rec_off_[c + 1] = rec_ids_.size();
    // RecordLevelJaccard merges record spans, so these stay sorted; ids are
    // injective over token strings, so the sorted span is the legacy
    // sorted-unique set.
    std::sort(rec_ids_.begin() + static_cast<std::ptrdiff_t>(rec_off_[c]),
              rec_ids_.end());
    rec_sig_[c] = SignatureOf(RecordTokenIds(cls));
  }
  word_ids_.shrink_to_fit();
  rec_ids_.shrink_to_fit();
}

}  // namespace power
