#include "blocking/pair_generator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <utility>

#include "blocking/prefix_join.h"
#include "blocking/signature_filter.h"
#include "sim/simd_kernels.h"
#include "sim/similarity_matrix.h"
#include "util/env.h"
#include "util/parallel.h"

namespace power {

std::vector<std::pair<int, int>> AllPairsCandidates(
    const FeatureCache& features, double tau, CandidateStats* stats) {
  // Row-sharded over the pool. Chunks cover ascending i-ranges and their
  // buffers are concatenated in chunk order, so the output ordering is
  // exactly the serial loop's ((i asc, j asc)) at any thread count.
  //
  // Each row's signature distances to the records after it come from the
  // dispatched kernel, a block at a time. A pair goes on only if the
  // signature filter (SignatureLimits, i.e. SignatureMayReach) passes; then
  // the intersection count comes from the dispatched kernel (scalar or
  // AVX2 — identical integers), and the threshold decision is the shared
  // RecordJaccardAtLeast predicate, i.e. exactly
  // RecordLevelJaccard(features, i, j) >= tau.
  constexpr int64_t kRowGrain = 16;
  // Distances per kernel call; the block lives on the stack.
  constexpr int kBlock = 256;
  const int n = static_cast<int>(features.num_records());
  const std::span<const TokenSignature> sigs = features.RecordSignatures();
  size_t max_size = 0;
  for (int i = 0; i < n; ++i) {
    max_size = std::max(max_size,
                        features.RecordTokenIds(static_cast<size_t>(i)).size());
  }
  const size_t chunks = NumChunks(0, n, kRowGrain);
  std::vector<std::vector<std::pair<int, int>>> found(chunks);
  std::vector<uint64_t> verified(chunks, 0);
  ParallelForChunked(
      0, n, kRowGrain, [&](size_t chunk, int64_t row_begin, int64_t row_end) {
        auto& buf = found[chunk];
        SignatureLimits limits(max_size, tau);
        uint16_t distances[kBlock];
        uint64_t verifications = 0;
        for (int i = static_cast<int>(row_begin);
             i < static_cast<int>(row_end); ++i) {
          const std::span<const int32_t> ri =
              features.RecordTokenIds(static_cast<size_t>(i));
          limits.Reset(ri.size());
          for (int block = i + 1; block < n; block += kBlock) {
            const int count = std::min(kBlock, n - block);
            SignatureDistances(sigs[static_cast<size_t>(i)],
                               &sigs[static_cast<size_t>(block)],
                               static_cast<size_t>(count), distances);
            for (int t = 0; t < count; ++t) {
              const int j = block + t;
              const std::span<const int32_t> rj =
                  features.RecordTokenIds(static_cast<size_t>(j));
              if (!limits.MayPass(rj.size(), distances[t])) continue;
              ++verifications;
              const size_t inter = SortedIntersectionSizeKernel(ri, rj);
              if (RecordJaccardAtLeast(inter, ri.size(), rj.size(), tau)) {
                buf.emplace_back(i, j);
              }
            }
          }
        }
        verified[chunk] = verifications;
      });
  std::vector<std::pair<int, int>> out;
  for (auto& buf : found) {
    out.insert(out.end(), buf.begin(), buf.end());
  }
  if (stats != nullptr) {
    const uint64_t records = static_cast<uint64_t>(n);
    stats->signature_checks = records * (records - 1) / 2;
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
    case CandidateMethod::kAuto:
      return "Auto";
  }
  return "?";
}

CandidateMethod AutoCandidateMethod(uint64_t scan_work, uint64_t join_work) {
  return 2 * join_work < scan_work ? CandidateMethod::kPrefixJoin
                                   : CandidateMethod::kAllPairs;
}

std::vector<std::pair<int, int>> GenerateCandidates(
    const FeatureCache& features, double tau, CandidateMethod method,
    const CandidateOptions& /*options*/, CandidateStats* stats) {
  // Checked here, before dispatch: the scan alone would quietly keep every
  // pair at tau <= 0, and the join alone would abort without naming tau.
  if (!(tau > 0.0 && tau <= 1.0)) {
    std::fprintf(stderr,
                 "power: candidate threshold tau=%g is outside (0, 1]\n",
                 tau);
    std::abort();
  }
  const uint64_t n = features.num_records();
  CandidateStats counted;
  counted.scan_work = n * (n - 1) / 2;
  // kAuto plans the join to count its work, and hands the plan over when
  // the join wins; pinned to the scan, nothing is planned.
  std::optional<PrefixJoinPlan> plan;
  CandidateMethod resolved = method;
  if (method != CandidateMethod::kAllPairs) {
    plan = PlanPrefixJoin(features, tau);
    counted.join_work = plan->work;
    if (method == CandidateMethod::kAuto) {
      resolved = AutoCandidateMethod(counted.scan_work, counted.join_work);
    }
  }
  counted.resolved = resolved;
  std::vector<std::pair<int, int>> out;
  if (resolved == CandidateMethod::kAllPairs) {
    plan.reset();
    out = AllPairsCandidates(features, tau, &counted);
  } else {
    out = PrefixFilterJoin(features, std::move(*plan), &counted);
  }
  if (EnvVerbose()) {
    std::fprintf(stderr,
                 "power: candidates: method=%s resolved=%s records=%zu "
                 "pairs=%zu scan_work=%llu join_work=%llu "
                 "signature_checks=%llu verifications=%llu "
                 "posting_visits=%llu\n",
                 CandidateMethodName(method), CandidateMethodName(resolved),
                 features.num_records(), out.size(),
                 static_cast<unsigned long long>(counted.scan_work),
                 static_cast<unsigned long long>(counted.join_work),
                 static_cast<unsigned long long>(counted.signature_checks),
                 static_cast<unsigned long long>(counted.verifications),
                 static_cast<unsigned long long>(counted.posting_visits));
  }
  if (stats != nullptr) *stats = counted;
  return out;
}

}  // namespace power
