// In-process crash/resume sweep for the durable RunOnPairs state machine:
// for EVERY phase boundary of the ask-and-color loop (every Step() of the
// reference run — first, middle, and last round of each phase, retry
// sub-loop included) × all four selectors × {1, 2, 8} threads, a job
// crashed at that boundary and resumed from its checkpoint must complete
// byte-identical to the uninterrupted run: same question trace, same
// coloring journal, same colors, same counters, same matched pairs — and
// the platform ledger must show that no question with a recorded answer
// was ever re-posted (the paid-answer invariant).
//
// The crash model here is "the requester process dies, the marketplace
// survives": the job object is discarded mid-run while the CrowdPlatform /
// PlatformOracle live on, exactly as AMT does not forget posted HITs when
// a requester crashes. The subprocess variant (crash_injection_test.cc)
// kills the whole process instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "blocking/pair_generator.h"
#include "core/power.h"
#include "data/generator.h"
#include "data/paper_example.h"
#include "platform/platform.h"
#include "platform/platform_oracle.h"
#include "platform/requester.h"
#include "sim/feature_cache.h"
#include "sim/pair.h"
#include "sim/similarity_matrix.h"
#include "util/snapshot.h"

namespace power {
namespace {

// Faulty enough that the kPost/kCollect retry sub-loop actually runs (so
// mid-round checkpoints carry answered-vote residue), benign enough that
// retries eventually succeed: every first posting is abandoned, reward
// bumps damp it on reposts, and the short 2-attempt requester budget lets
// a real fraction of questions bounce back to the resolution loop.
PlatformConfig FaultyPlatformConfig() {
  PlatformConfig pc;
  pc.pool_size = 60;
  pc.accuracy_lo = 0.95;
  pc.accuracy_hi = 0.999;
  pc.difficulty_scale = 0.0;
  pc.seed = 23;
  pc.fault.abandon_prob = 1.0;
  return pc;
}

RetryPolicy TestRetryPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.reward_bump_dollars = 0.05;
  return policy;
}

PowerConfig JobConfig(SelectorKind kind, int threads,
                      const std::string& checkpoint_path) {
  PowerConfig config;
  config.selector = kind;
  config.num_threads = threads;
  config.max_ask_attempts = 4;
  config.checkpoint_path = checkpoint_path;
  return config;
}

// Everything byte-identity is judged on.
struct RunTrace {
  std::vector<std::pair<int, int>> questions;  // posting order, retries too
  std::vector<int> coloring_journal;
  std::vector<Color> final_colors;
  size_t result_questions = 0;
  size_t iterations = 0;
  size_t requeued = 0;
  size_t degraded = 0;
  size_t checkpoints_written = 0;
  std::vector<uint64_t> matched;
  // Multiset of (i, j) over every HIT the platform ever posted: equality
  // with the reference run proves no answered question was re-posted.
  std::map<std::pair<int, int>, int> posted_multiset;
};

RunTrace TraceOf(const RunOnPairsJob& job, const PowerResult& result,
                 const CrowdPlatform& platform) {
  RunTrace t;
  t.questions = job.question_trace();
  t.coloring_journal = job.coloring().color_journal();
  for (size_t g = 0; g < job.coloring().graph().num_vertices(); ++g) {
    t.final_colors.push_back(job.coloring().color(static_cast<int>(g)));
  }
  t.result_questions = result.questions;
  t.iterations = result.iterations;
  t.requeued = result.requeued_questions;
  t.degraded = result.degraded_questions;
  t.checkpoints_written = result.checkpoints_written;
  t.matched.assign(result.matched_pairs.begin(), result.matched_pairs.end());
  std::sort(t.matched.begin(), t.matched.end());
  for (const Hit& hit : platform.hit_log()) {
    for (const PairQuestion& q : hit.questions) {
      ++t.posted_multiset[{q.i, q.j}];
    }
  }
  return t;
}

void ExpectTracesEqual(const RunTrace& got, const RunTrace& want) {
  EXPECT_EQ(got.questions, want.questions) << "question trace diverged";
  EXPECT_EQ(got.coloring_journal, want.coloring_journal)
      << "coloring journal diverged";
  EXPECT_EQ(got.final_colors, want.final_colors);
  EXPECT_EQ(got.result_questions, want.result_questions);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.requeued, want.requeued);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.checkpoints_written, want.checkpoints_written)
      << "lifetime checkpoint count should be crash-invariant";
  EXPECT_EQ(got.matched, want.matched);
  EXPECT_EQ(got.posted_multiset, want.posted_multiset)
      << "platform ledger shows re-posted questions";
}

std::string CheckpointPath(const std::string& tag) {
  return ::testing::TempDir() + "power_ckpt_" + tag + ".snap";
}

TEST(CheckpointResumeTest, EveryBoundaryEverySelectorEveryThreadCount) {
  Table table = PaperExampleTable();
  const std::vector<SimilarPair> pairs = PaperExamplePairs();
  size_t total_requeued = 0;

  for (SelectorKind kind :
       {SelectorKind::kRandom, SelectorKind::kSinglePath,
        SelectorKind::kMultiPath, SelectorKind::kTopoSort}) {
    for (int threads : {1, 2, 8}) {
      const std::string tag = std::string(SelectorKindName(kind)) + "_t" +
                              std::to_string(threads);
      // Reference: uninterrupted run, checkpointing on (so the lifetime
      // checkpoint counter is comparable), fresh platform.
      std::string ref_path = CheckpointPath(tag + "_ref");
      CheckpointStore(ref_path).Clear();
      CrowdPlatform ref_platform(&table, FaultyPlatformConfig());
      PlatformOracle ref_oracle(&ref_platform, TestRetryPolicy());
      PowerConfig config = JobConfig(kind, threads, ref_path);
      RunOnPairsJob ref_job(config, pairs, &ref_oracle);
      size_t total_steps = 0;
      std::vector<RunPhase> executed;
      while (!ref_job.done()) {
        executed.push_back(ref_job.phase());
        ASSERT_TRUE(ref_job.Step() || ref_job.done());
        ++total_steps;
      }
      EXPECT_FALSE(ref_job.resumed());
      PowerResult ref_result = ref_job.Finish();
      RunTrace want = TraceOf(ref_job, ref_result, ref_platform);
      ASSERT_GT(total_steps, 4u);
      EXPECT_EQ(ref_result.checkpoints_written, total_steps);
      total_requeued += ref_result.requeued_questions;

      // Sweep: crash after every step k (= every phase boundary of every
      // round), resume against the surviving marketplace, finish, compare.
      for (size_t k = 1; k < total_steps; ++k) {
        SCOPED_TRACE(tag + " crash after step " + std::to_string(k) +
                     " (post-" + RunPhaseName(executed[k - 1]) + ")");
        std::string path =
            CheckpointPath(tag + "_k" + std::to_string(k));
        CheckpointStore(path).Clear();
        config.checkpoint_path = path;

        CrowdPlatform platform(&table, FaultyPlatformConfig());
        PlatformOracle oracle(&platform, TestRetryPolicy());
        {
          RunOnPairsJob job(config, pairs, &oracle);
          for (size_t s = 0; s < k; ++s) ASSERT_TRUE(job.Step() || job.done());
          job.SimulateCrashForTest();
          // A crashed job refuses to advance — no UB, no exception.
          EXPECT_FALSE(job.Step());
          EXPECT_TRUE(job.crashed());
        }
        RunOnPairsJob resumed(config, pairs, &oracle);
        ASSERT_TRUE(resumed.resumed());
        while (resumed.Step()) {
        }
        PowerResult result = resumed.Finish();
        EXPECT_EQ(result.resumed, 1u);
        ExpectTracesEqual(TraceOf(resumed, result, platform), want);
      }
    }
  }
  // The retry sub-loop must actually be exercised somewhere in the sweep,
  // or the mid-round residue checkpoints were never covered.
  EXPECT_GT(total_requeued, 0u);
}

TEST(CheckpointResumeTest, ResumeIntoFreshOracleReplaysPaidAnswers) {
  // The other real-world crash shape: the whole process (marketplace
  // session included) restarts, and the oracle's durable state — the
  // answered-vote cache — is what prevents re-buying answers. A fresh
  // PlatformOracle restored from the checkpoint must serve every already-
  // answered pair from the cache without posting a single new HIT for it.
  Table table = PaperExampleTable();
  const std::vector<SimilarPair> pairs = PaperExamplePairs();
  std::string path = CheckpointPath("fresh_oracle");
  CheckpointStore(path).Clear();
  PowerConfig config = JobConfig(SelectorKind::kTopoSort, 1, path);

  CrowdPlatform first_platform(&table, FaultyPlatformConfig());
  PlatformOracle first_oracle(&first_platform, TestRetryPolicy());
  size_t crashed_after = 0;
  std::vector<std::pair<int, int>> asked_before_crash;
  {
    RunOnPairsJob job(config, pairs, &first_oracle);
    // Run a few full rounds so the cache holds real answers, then crash.
    for (size_t s = 0; s < 9 && job.Step(); ++s) ++crashed_after;
    job.SimulateCrashForTest();
    asked_before_crash = job.question_trace();
  }
  ASSERT_GT(crashed_after, 0u);

  // New process: fresh platform, fresh oracle, same checkpoint path.
  CrowdPlatform second_platform(&table, FaultyPlatformConfig());
  PlatformOracle second_oracle(&second_platform, TestRetryPolicy());
  RunOnPairsJob resumed(config, pairs, &second_oracle);
  ASSERT_TRUE(resumed.resumed());
  while (resumed.Step()) {
  }
  PowerResult result = resumed.Finish();
  EXPECT_GT(result.questions, 0u);

  // Asking any pre-crash question again must not grow the second HIT log:
  // every such pair either had a recorded answer at crash time (so its vote
  // replays from the restored cache — never re-bought) or was unanswered
  // residue the resumed run re-resolved above (cached now). Either way the
  // answer is served from memory, not the marketplace.
  size_t hits_before = second_platform.hit_log().size();
  for (const auto& q : asked_before_crash) {
    (void)second_oracle.Ask(q.first, q.second);
  }
  EXPECT_EQ(second_platform.hit_log().size(), hits_before)
      << "resume re-posted a question whose answer was already paid for";
}

TEST(CheckpointResumeTest, FinishClearsTheCheckpoint) {
  Table table = PaperExampleTable();
  const std::vector<SimilarPair> pairs = PaperExamplePairs();
  std::string path = CheckpointPath("clears");
  CheckpointStore(path).Clear();
  PowerConfig config = JobConfig(SelectorKind::kTopoSort, 1, path);
  CrowdPlatform platform(&table, FaultyPlatformConfig());
  PlatformOracle oracle(&platform, TestRetryPolicy());
  PowerResult result = PowerFramework(config).RunOnPairs(pairs, &oracle);
  EXPECT_GT(result.checkpoints_written, 0u);
  EXPECT_EQ(result.resumed, 0u);
  // Nothing left to resume: a second job starts clean, not from kDone.
  JobCheckpoint leftover;
  EXPECT_FALSE(CheckpointStore(path).Load(&leftover));
}

TEST(CheckpointResumeTest, FingerprintMismatchStartsClean) {
  // A checkpoint written under one configuration must never leak into a
  // job with a different one — detected via the config/pair fingerprint,
  // loud warning, clean start.
  Table table = PaperExampleTable();
  const std::vector<SimilarPair> pairs = PaperExamplePairs();
  std::string path = CheckpointPath("fingerprint");
  CheckpointStore(path).Clear();
  PowerConfig config = JobConfig(SelectorKind::kTopoSort, 1, path);
  CrowdPlatform platform(&table, FaultyPlatformConfig());
  PlatformOracle oracle(&platform, TestRetryPolicy());
  {
    RunOnPairsJob job(config, pairs, &oracle);
    ASSERT_TRUE(job.Step());
    ASSERT_TRUE(job.Step());
    job.SimulateCrashForTest();
  }
  PowerConfig other = config;
  other.seed = config.seed + 1;  // a different job entirely
  CrowdPlatform platform2(&table, FaultyPlatformConfig());
  PlatformOracle oracle2(&platform2, TestRetryPolicy());
  RunOnPairsJob job2(other, pairs, &oracle2);
  EXPECT_FALSE(job2.resumed());
  while (job2.Step()) {
  }
  PowerResult r = job2.Finish();
  EXPECT_EQ(r.resumed, 0u);
  EXPECT_GT(r.questions, 0u);
}

// A file of an older checkpoint format is refused by its version with a
// warning, even when its payload is a checkpoint of this very job; the job
// starts clean and completes byte-identical to an uninterrupted run.
void ExpectOldVersionRefusedAndRunStartsClean(uint32_t version) {
  ASSERT_LT(version, kJobSnapshotVersion);
  Table table = PaperExampleTable();
  const std::vector<SimilarPair> pairs = PaperExamplePairs();
  const std::string tag = "v" + std::to_string(version);

  const std::string ref_path = CheckpointPath(tag + "_ref");
  CheckpointStore(ref_path).Clear();
  CrowdPlatform ref_platform(&table, FaultyPlatformConfig());
  PlatformOracle ref_oracle(&ref_platform, TestRetryPolicy());
  RunOnPairsJob ref_job(JobConfig(SelectorKind::kTopoSort, 1, ref_path),
                        pairs, &ref_oracle);
  while (ref_job.Step()) {
  }
  const RunTrace want = TraceOf(ref_job, ref_job.Finish(), ref_platform);

  const std::string path = CheckpointPath(tag);
  CheckpointStore(path).Clear();
  const PowerConfig config = JobConfig(SelectorKind::kTopoSort, 1, path);
  {
    CrowdPlatform platform(&table, FaultyPlatformConfig());
    PlatformOracle oracle(&platform, TestRetryPolicy());
    RunOnPairsJob job(config, pairs, &oracle);
    for (int s = 0; s < 5; ++s) ASSERT_TRUE(job.Step());
    job.SimulateCrashForTest();
  }
  JobCheckpoint cp;
  ASSERT_TRUE(CheckpointStore(path).Load(&cp));
  CheckpointStore(path).Clear();
  ASSERT_EQ(CommitSnapshotWithRotation(path, kJobSnapshotMagic, version,
                                       EncodeJobCheckpoint(cp)),
            SnapshotStatus::kOk);

  CrowdPlatform platform(&table, FaultyPlatformConfig());
  PlatformOracle oracle(&platform, TestRetryPolicy());
  ::testing::internal::CaptureStderr();
  RunOnPairsJob job(config, pairs, &oracle);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("bad-version"), std::string::npos) << warning;
  EXPECT_FALSE(job.resumed());
  while (job.Step()) {
  }
  const PowerResult result = job.Finish();
  EXPECT_EQ(result.resumed, 0u);
  ExpectTracesEqual(TraceOf(job, result, platform), want);
}

// Version 1 hashed the pairs bytewise into the fingerprint.
TEST(CheckpointResumeTest, VersionOneCheckpointIsRefusedAndRunStartsClean) {
  ExpectOldVersionRefusedAndRunStartsClean(1);
}

// Version 2 stored a forced flag per vertex in the coloring blob.
TEST(CheckpointResumeTest, VersionTwoCheckpointIsRefusedAndRunStartsClean) {
  ExpectOldVersionRefusedAndRunStartsClean(2);
}

// The job fingerprint as it was computed over the expanded table, one row of
// doubles per pair: bytewise FNV-1a over the loop-relevant config fields,
// then one FNV step per 8-byte word over n, m, every PairKey and every value
// in pair order.
uint64_t FnvBytes(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t b = 0; b < size; ++b) h = (h ^ p[b]) * 0x100000001B3ULL;
  return h;
}

template <typename T>
uint64_t FnvField(uint64_t h, const T& v) {
  return FnvBytes(h, &v, sizeof(v));
}

uint64_t FnvStep(uint64_t h, uint64_t word) {
  return (h ^ word) * 0x100000001B3ULL;
}

uint64_t ExpandedTableFingerprint(const PowerConfig& config,
                                  const std::vector<SimilarPair>& pairs) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = FnvField(h, config.grouping);
  h = FnvField(h, config.epsilon);
  h = FnvField(h, config.builder);
  h = FnvField(h, config.selector);
  h = FnvField(h, config.error_tolerant);
  h = FnvField(h, config.max_questions);
  h = FnvField(h, config.confidence_threshold);
  h = FnvField(h, config.max_ask_attempts);
  h = FnvField(h, config.seed);
  h = FnvStep(h, pairs.size());
  h = FnvStep(h, pairs.empty() ? 0 : pairs[0].sims.size());
  for (const SimilarPair& p : pairs) h = FnvStep(h, PairKey(p.i, p.j));
  for (const SimilarPair& p : pairs) {
    for (double v : p.sims) h = FnvStep(h, std::bit_cast<uint64_t>(v));
  }
  return h;
}

// A checkpoint written over the expanded table still resumes over the
// interned one: the stored fingerprint hashes the same words in the same
// order. The table's rows repeat, so the interned layout really differs.
TEST(CheckpointResumeTest, FingerprintHashesTheExpandedTablesWords) {
  DatasetProfile profile = CoraProfile();
  profile.num_records = 200;
  profile.num_entities = 60;
  const Table table = DatasetGenerator(51).Generate(profile);
  const FeatureCache features(table);
  const PowerConfig defaults;
  const std::vector<std::pair<int, int>> candidates =
      AllPairsCandidates(features, defaults.prune_tau);
  const std::vector<SimilarPair> pairs = ComputePairSimilarities(
      features, candidates, defaults.component_floor);
  SimilarityTable interned = ComputeSimilarityTable(
      features, candidates, defaults.component_floor);
  ASSERT_LT(interned.num_distinct, pairs.size());

  const std::string path = CheckpointPath("expanded_fingerprint");
  CheckpointStore(path).Clear();
  const PowerConfig config = JobConfig(SelectorKind::kTopoSort, 1, path);
  CrowdPlatform platform(&table, FaultyPlatformConfig());
  PlatformOracle oracle(&platform, TestRetryPolicy());
  {
    RunOnPairsJob job(config, std::move(interned), &oracle);
    ASSERT_TRUE(job.Step());
    job.SimulateCrashForTest();
  }
  JobCheckpoint cp;
  ASSERT_TRUE(CheckpointStore(path).Load(&cp));
  EXPECT_EQ(cp.fingerprint, ExpandedTableFingerprint(config, pairs));
  CheckpointStore(path).Clear();
}

// RunOnPairs with a checkpoint path picks up where a crashed run stopped.
TEST(CheckpointResumeTest, RunOnPairsResumesAfterACrash) {
  Table table = PaperExampleTable();
  const std::vector<SimilarPair> pairs = PaperExamplePairs();
  std::string path = CheckpointPath("entrypoint");
  CheckpointStore(path).Clear();
  PowerConfig config = JobConfig(SelectorKind::kMultiPath, 1, path);

  CrowdPlatform platform(&table, FaultyPlatformConfig());
  PlatformOracle oracle(&platform, TestRetryPolicy());
  // Reference (same seeds, fresh marketplace).
  CrowdPlatform ref_platform(&table, FaultyPlatformConfig());
  PlatformOracle ref_oracle(&ref_platform, TestRetryPolicy());
  PowerConfig ref_config = config;
  ref_config.checkpoint_path = CheckpointPath("entrypoint_ref");
  CheckpointStore(ref_config.checkpoint_path).Clear();
  PowerResult want =
      PowerFramework(ref_config).RunOnPairs(pairs, &ref_oracle);

  {
    RunOnPairsJob job(config, pairs, &oracle);
    for (int s = 0; s < 5; ++s) ASSERT_TRUE(job.Step());
    job.SimulateCrashForTest();
  }
  PowerResult got = PowerFramework(config).RunOnPairs(pairs, &oracle);
  EXPECT_EQ(got.resumed, 1u);
  EXPECT_EQ(got.questions, want.questions);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.matched_pairs, want.matched_pairs);
}

}  // namespace
}  // namespace power
