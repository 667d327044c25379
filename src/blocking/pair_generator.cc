#include "blocking/pair_generator.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>

#include "blocking/prefix_join.h"
#include "blocking/signature_filter.h"
#include "sim/simd_kernels.h"
#include "sim/similarity_matrix.h"
#include "util/env.h"
#include "util/parallel.h"

namespace power {

namespace {

// The record classes in scan order, (token count, class id) ascending, cut
// into buckets of one token count, and the buckets into steps of up to 256
// positions.
struct ScanLayout {
  struct Bucket {
    size_t size;  // token count of every member
    int begin;    // positions [begin, end)
    int end;
    size_t first_step;
  };
  std::vector<int> order;  // position -> class id
  std::vector<Bucket> buckets;
  SignatureSteps steps;
};

ScanLayout LayOut(const FeatureCache& features) {
  const std::span<const TokenSignature> sigs = features.ClassSignatures();
  int max_popcount = 0;
  for (const TokenSignature& sig : sigs) {
    max_popcount = std::max(max_popcount, SignatureBits(sig).count);
  }
  ScanLayout layout{ClassesByTokenCount(features), {},
                    SignatureSteps(max_popcount)};
  const int n = static_cast<int>(layout.order.size());
  const int lanes = static_cast<int>(SignatureSteps::kLanes);
  auto size = [&](int p) {
    return features
        .RecordTokenIds(RecordClass{
            static_cast<uint32_t>(layout.order[static_cast<size_t>(p)])})
        .size();
  };
  for (int begin = 0, end = 0; begin < n; begin = end) {
    while (end < n && size(end) == size(begin)) ++end;
    layout.buckets.push_back({size(begin), begin, end, layout.steps.size()});
    for (int p = begin; p < end; p += lanes) {
      layout.steps.Add(sigs, std::span<const int>(layout.order)
                                 .subspan(static_cast<size_t>(p),
                                          static_cast<size_t>(
                                              std::min(lanes, end - p))));
    }
  }
  return layout;
}

// Stable counting sort of the pairs of `runs`, taken in order, by key(pair)
// in [0, n). Frees each run once it is placed.
template <typename Key>
std::vector<std::pair<int, int>> CountingSort(
    int n, std::span<std::vector<std::pair<int, int>>> runs, Key key) {
  std::vector<size_t> next(static_cast<size_t>(n) + 1, 0);
  for (const auto& run : runs) {
    for (const auto& pair : run) ++next[static_cast<size_t>(key(pair)) + 1];
  }
  for (size_t k = 1; k < next.size(); ++k) next[k] += next[k - 1];
  std::vector<std::pair<int, int>> out(next.back());
  for (auto& run : runs) {
    for (const auto& pair : run) {
      out[next[static_cast<size_t>(key(pair))]++] = pair;
    }
    std::vector<std::pair<int, int>>().swap(run);
  }
  return out;
}

// The record pairs, each (min id, max id), of the class pairs (x, y),
// x <= y: every pair of one member of each, or for x == y every pair of two
// members of x.
std::vector<std::pair<int, int>> ExpandClassPairs(
    const FeatureCache& features,
    const std::vector<std::pair<int, int>>& class_pairs) {
  std::vector<std::pair<int, int>> out;
  for (const auto& [x, y] : class_pairs) {
    const std::span<const int> mx =
        features.Members(RecordClass{static_cast<uint32_t>(x)});
    if (x == y) {
      for (size_t a = 0; a < mx.size(); ++a) {
        for (size_t b = a + 1; b < mx.size(); ++b) {
          out.emplace_back(mx[a], mx[b]);
        }
      }
      continue;
    }
    for (const int a : mx) {
      for (const int b :
           features.Members(RecordClass{static_cast<uint32_t>(y)})) {
        out.emplace_back(std::min(a, b), std::max(a, b));
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::pair<int, int>> AllPairsCandidates(
    const FeatureCache& features, double tau, CandidateStats* stats) {
  // The scan decides record classes, not records: two records of the same
  // classes have the same token sets, so one decision covers every pair of
  // their members. It walks the triangle of classes in scan order
  // (ScanLayout): the class at position r meets the rest of its own
  // bucket, then every later bucket, up to the first whose token count no
  // class of r's can reach (the signature table's -1). Each class pair is
  // decided once, and every step but a row's first is whole. A step's 256
  // decisions are one SignatureSteps call, which passes exactly the pairs
  // SignatureLimits passes (the filter is symmetric in the two sets). The
  // survivors are verified against the row's TokenMarks, set at its first
  // survivor and cleared at its end, with the shared RecordJaccardAtLeast
  // predicate, i.e. exactly RecordLevelJaccard(features, i, j) >= tau. An
  // accepted class pair yields every pair of one member of each, and a
  // class's own members pair with each other when identical sets reach tau;
  // a chunk expands its class pairs into these record pairs once its rows
  // are done.
  //
  // Positions are row-sharded over the pool; each chunk keeps its pairs as
  // (min id, max id). The output is a function of the pair set alone, sorted
  // as the serial loop's (i asc, j asc) at any thread count.
  constexpr int64_t kRowGrain = 16;
  const int n = static_cast<int>(features.num_records());
  const int classes = static_cast<int>(features.num_classes());
  auto tokens = [&](int c) {
    return features.RecordTokenIds(RecordClass{static_cast<uint32_t>(c)});
  };
  const std::span<const TokenSignature> sigs = features.ClassSignatures();
  const size_t chunks = NumChunks(0, classes, kRowGrain);
  std::vector<std::vector<std::pair<int, int>>> found(chunks);
  std::vector<uint64_t> verified(chunks, 0);
  {
    const ScanLayout layout = LayOut(features);
    const std::vector<ScanLayout::Bucket>& buckets = layout.buckets;
    const size_t max_size = buckets.empty() ? 0 : buckets.back().size;
    const int lanes = static_cast<int>(SignatureSteps::kLanes);
    ParallelForChunked(
        0, classes, kRowGrain,
        [&](size_t chunk, int64_t row_begin, int64_t row_end) {
          auto& buf = found[chunk];
          SignatureLimits limits(max_size, tau);
          TokenMarks marks(features.dict_size());
          uint64_t verifications = 0;
          // The bucket of the chunk's first position.
          size_t own = static_cast<size_t>(
              std::partition_point(buckets.begin(), buckets.end(),
                                   [&](const ScanLayout::Bucket& bucket) {
                                     return bucket.end <= row_begin;
                                   }) -
              buckets.begin());
          limits.Reset(buckets[own].size);
          for (int r = static_cast<int>(row_begin);
               r < static_cast<int>(row_end); ++r) {
            if (r == buckets[own].end) limits.Reset(buckets[++own].size);
            const int x = layout.order[static_cast<size_t>(r)];
            const std::span<const int32_t> rx = tokens(x);
            // While it scans, a chunk keeps class pairs (x, y), x <= y,
            // where (x, x) stands for the pairs of x's own members.
            if (features.Members(RecordClass{static_cast<uint32_t>(x)})
                        .size() > 1 &&
                RecordJaccardAtLeast(rx.size(), rx.size(), rx.size(), tau)) {
              buf.emplace_back(x, x);
            }
            const SignatureBits bits(sigs[static_cast<size_t>(x)]);
            bool marked = false;
            for (size_t g = own; g < buckets.size(); ++g) {
              const ScanLayout::Bucket& bucket = buckets[g];
              const int32_t limit = limits.Limit(bucket.size);
              // L(a, a) >= 0, and past the first b > a with L(a, b) = -1
              // every larger b is -1 too (SignatureLimits::Reset).
              if (limit < 0) break;
              const int from = g == own ? r + 1 : bucket.begin;
              if (from == bucket.end) continue;
              // The bucket's steps from the one holding `from`; p is a
              // step's first position.
              for (int s = (from - bucket.begin) / lanes;
                   bucket.begin + s * lanes < bucket.end; ++s) {
                const int p = bucket.begin + s * lanes;
                const LaneMask pass = layout.steps.MayPass(
                    bucket.first_step + static_cast<size_t>(s), bits, limit,
                    LaneRange(static_cast<size_t>(std::max(from - p, 0)),
                              static_cast<size_t>(
                                  std::min(lanes, bucket.end - p))));
                for (size_t w = 0; w < 4; ++w) {
                  for (uint64_t m = pass.words[w]; m != 0; m &= m - 1) {
                    const int y = layout.order[static_cast<size_t>(
                        p + static_cast<int>(64 * w) + std::countr_zero(m))];
                    const std::span<const int32_t> ry = tokens(y);
                    if (!marked) {
                      marks.Mark(rx);
                      marked = true;
                    }
                    ++verifications;
                    if (RecordJaccardAtLeast(marks.Count(ry), rx.size(),
                                             ry.size(), tau)) {
                      buf.emplace_back(std::min(x, y), std::max(x, y));
                    }
                  }
                }
              }
            }
            if (marked) marks.Unmark(rx);
          }
          verified[chunk] = verifications;
          // With no repeated record, class c is record c.
          if (classes < n) buf = ExpandClassPairs(features, buf);
        });
  }
  // Two stable counting sorts, by j and then by i, give (i asc, j asc).
  // Each frees its input as it goes, so the stage never holds more than
  // two copies of the pairs.
  std::vector<std::pair<int, int>> by_j =
      CountingSort(n, found, [](const auto& pair) { return pair.second; });
  std::vector<std::pair<int, int>> out =
      CountingSort(n, std::span(&by_j, 1),
                   [](const auto& pair) { return pair.first; });
  if (stats != nullptr) {
    const auto pairs = static_cast<uint64_t>(classes);
    stats->signature_checks = pairs * (pairs - 1) / 2;
    stats->verifications = 0;
    for (uint64_t v : verified) stats->verifications += v;
    stats->posting_visits = 0;
  }
  return out;
}

const char* CandidateMethodName(CandidateMethod method) {
  switch (method) {
    case CandidateMethod::kAllPairs:
      return "AllPairs";
    case CandidateMethod::kPrefixJoin:
      return "PrefixJoin";
  }
  return "?";
}

std::string CandidateThresholdError(double tau) {
  if (tau > 0.0 && tau <= 1.0) return std::string();
  char message[96];
  std::snprintf(message, sizeof(message),
                "power: candidate threshold tau=%g is outside (0, 1]", tau);
  return message;
}

std::vector<std::pair<int, int>> GenerateCandidates(
    const FeatureCache& features, double tau, CandidateMethod method,
    const CandidateOptions& /*options*/, CandidateStats* stats) {
  // Checked here, before dispatch: the scan alone would quietly keep every
  // pair at tau <= 0, and the join alone would abort without naming tau.
  if (const std::string error = CandidateThresholdError(tau); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::abort();
  }
  CandidateStats counted;
  std::vector<std::pair<int, int>> out =
      method == CandidateMethod::kPrefixJoin
          ? PrefixFilterJoin(features, tau, &counted)
          : AllPairsCandidates(features, tau, &counted);
  if (EnvVerbose()) {
    std::fprintf(stderr,
                 "power: candidates: method=%s records=%zu classes=%zu "
                 "pairs=%zu signature_checks=%llu verifications=%llu "
                 "posting_visits=%llu\n",
                 CandidateMethodName(method), features.num_records(),
                 features.num_classes(), out.size(),
                 static_cast<unsigned long long>(counted.signature_checks),
                 static_cast<unsigned long long>(counted.verifications),
                 static_cast<unsigned long long>(counted.posting_visits));
  }
  if (stats != nullptr) *stats = counted;
  return out;
}

}  // namespace power
