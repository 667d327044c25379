#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/power.h"
#include "data/generator.h"
#include "data/paper_example.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "platform/platform.h"
#include "platform/platform_oracle.h"
#include "platform/requester.h"
#include "sim/similarity_matrix.h"
#include "util/rng.h"

namespace power {
namespace {

PlatformConfig HighQualityConfig() {
  PlatformConfig config;
  config.pool_size = 100;
  config.accuracy_lo = 0.97;
  config.accuracy_hi = 0.999;
  config.difficulty_scale = 0.0;  // trivial questions
  config.seed = 5;
  return config;
}

TEST(WorkerPoolTest, SamplesWithinBandAndDistinct) {
  WorkerPool pool(50, 0.7, 0.9, 3);
  ASSERT_EQ(pool.size(), 50u);
  for (int w = 0; w < 50; ++w) {
    EXPECT_GE(pool.worker(w).true_accuracy, 0.7);
    EXPECT_LE(pool.worker(w).true_accuracy, 0.9);
    EXPECT_EQ(pool.worker(w).id, w);
    EXPECT_DOUBLE_EQ(pool.worker(w).approval_rate(), 1.0);  // no history
  }
  Rng rng(1);
  auto drawn = pool.DrawQualified(5, 0.0, &rng);
  ASSERT_EQ(drawn.size(), 5u);
  std::sort(drawn.begin(), drawn.end());
  EXPECT_TRUE(std::adjacent_find(drawn.begin(), drawn.end()) == drawn.end());
}

TEST(WorkerPoolTest, QualificationFilterUsesApprovalHistory) {
  WorkerPool pool(4, 0.8, 0.9, 3);
  // Worker 0: 1/4 approved; worker 1: 4/4.
  pool.RecordSubmission(0, true);
  for (int k = 0; k < 3; ++k) pool.RecordSubmission(0, false);
  for (int k = 0; k < 4; ++k) pool.RecordSubmission(1, true);
  Rng rng(2);
  auto qualified = pool.DrawQualified(10, 0.9, &rng);
  std::sort(qualified.begin(), qualified.end());
  // Workers 2, 3 have no history (rate 1.0) and worker 1 qualifies.
  EXPECT_EQ(qualified, (std::vector<int>{1, 2, 3}));
}

TEST(PlatformTest, PacksQuestionsIntoHits) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  config.questions_per_hit = 10;
  CrowdPlatform platform(&table, config);
  std::vector<PairQuestion> questions;
  for (const auto& p : PaperExamplePairs()) questions.push_back({p.i, p.j});
  ASSERT_EQ(questions.size(), 18u);
  auto round = platform.PostRound(questions);
  // 18 questions -> 2 HITs x 5 assignments.
  EXPECT_EQ(platform.hits_posted(), 2u);
  EXPECT_EQ(platform.assignments_completed(), 10u);
  EXPECT_EQ(round.votes.size(), 18u);
  EXPECT_EQ(round.assignments.size(), 10u);
  // Paper pricing: 10 assignments x $0.10.
  EXPECT_DOUBLE_EQ(round.cost_dollars, 1.0);
  EXPECT_DOUBLE_EQ(platform.total_cost_dollars(), 1.0);
  EXPECT_GT(round.latency_seconds, 0.0);
}

TEST(PlatformTest, HighAccuracyPoolAnswersCorrectly) {
  Table table = PaperExampleTable();
  CrowdPlatform platform(&table, HighQualityConfig());
  std::vector<PairQuestion> questions;
  for (const auto& p : PaperExamplePairs()) questions.push_back({p.i, p.j});
  auto round = platform.PostRound(questions);
  auto pairs = PaperExamplePairs();
  int correct = 0;
  for (size_t q = 0; q < questions.size(); ++q) {
    bool truth = table.record(questions[q].i).entity_id ==
                 table.record(questions[q].j).entity_id;
    if (round.votes[q].majority_yes() == truth) ++correct;
    EXPECT_EQ(round.votes[q].total_votes, 5);
  }
  EXPECT_GE(correct, 17);  // near-perfect pool on trivial questions
}

TEST(PlatformTest, EmptyRoundIsFree) {
  Table table = PaperExampleTable();
  CrowdPlatform platform(&table, HighQualityConfig());
  auto round = platform.PostRound({});
  EXPECT_TRUE(round.votes.empty());
  EXPECT_DOUBLE_EQ(platform.total_cost_dollars(), 0.0);
  EXPECT_EQ(platform.rounds_posted(), 0u);
}

TEST(PlatformTest, ApprovalHistoryAccumulates) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  CrowdPlatform platform(&table, config);
  std::vector<PairQuestion> questions = {{0, 1}, {0, 3}, {7, 8}};
  platform.PostRound(questions);
  size_t with_history = 0;
  for (size_t w = 0; w < platform.pool().size(); ++w) {
    if (platform.pool().worker(static_cast<int>(w)).submitted > 0) {
      ++with_history;
    }
  }
  EXPECT_EQ(with_history, 5u);  // one HIT, five assignments
}

TEST(PlatformOracleTest, CachesAndReplays) {
  Table table = PaperExampleTable();
  CrowdPlatform platform(&table, HighQualityConfig());
  PlatformOracle oracle(&platform);
  VoteResult first = oracle.Ask(0, 1);
  size_t rounds = platform.rounds_posted();
  VoteResult again = oracle.Ask(0, 1);
  EXPECT_EQ(first.yes_votes, again.yes_votes);
  EXPECT_EQ(platform.rounds_posted(), rounds);  // no new round
  // Batch with one cached + one fresh question: only the fresh one posts.
  auto votes = oracle.AskBatch({{0, 1}, {2, 3}});
  EXPECT_EQ(votes[0].yes_votes, first.yes_votes);
  EXPECT_EQ(platform.rounds_posted(), rounds + 1);
}

TEST(PlatformOracleTest, PowerRunsEndToEndOnThePlatform) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  CrowdPlatform platform(&table, config);
  PlatformOracle oracle(&platform);
  PowerConfig power_config;
  power_config.prune_tau = 0.2;
  PowerResult result =
      PowerFramework(power_config).RunOnPairs(PaperExamplePairs(), &oracle);
  auto prf = ComputePrf(result.matched_pairs, TrueMatchPairs(table));
  EXPECT_DOUBLE_EQ(prf.f1, 1.0);
  // One platform round per framework iteration.
  EXPECT_EQ(platform.rounds_posted(), result.iterations);
  EXPECT_GT(platform.total_latency_seconds(), 0.0);
  EXPECT_GT(platform.total_cost_dollars(), 0.0);
}

TEST(PlatformTest, LatencyIsMaxOfRound) {
  Table table = PaperExampleTable();
  CrowdPlatform platform(&table, HighQualityConfig());
  auto round = platform.PostRound({{0, 1}});
  double max_assignment = 0.0;
  for (const auto& a : round.assignments) {
    max_assignment = std::max(max_assignment, a.latency_seconds);
  }
  EXPECT_DOUBLE_EQ(round.latency_seconds, max_assignment);
}

TEST(PlatformTest, SimClockAdvancesWithRounds) {
  Table table = PaperExampleTable();
  CrowdPlatform platform(&table, HighQualityConfig());
  EXPECT_DOUBLE_EQ(platform.clock()->now_seconds(), 0.0);
  platform.PostRound({{0, 1}});
  platform.PostRound({{0, 3}});
  EXPECT_DOUBLE_EQ(platform.clock()->now_seconds(),
                   platform.total_latency_seconds());
  EXPECT_GT(platform.clock()->now_seconds(), 0.0);
}

// Regression (issue 5 satellite): a qualification filter that excludes the
// whole pool must surface an explicit no-quorum status, not a silent 0-0
// vote tie (and not crash).
TEST(PlatformTest, NoQuorumInsteadOfZeroVoteTie) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  config.pool_size = 3;
  config.min_approval_rate = 0.9;
  CrowdPlatform platform(&table, config);
  // Mass rejection: every worker's visible approval rate drops to 0.
  for (int w = 0; w < 3; ++w) {
    platform.mutable_pool()->RecordSubmission(w, false);
  }
  auto round = platform.PostRound({{0, 1}, {0, 3}});
  ASSERT_EQ(round.status.size(), 2u);
  EXPECT_EQ(round.status[0], QuestionStatus::kNoQuorum);
  EXPECT_EQ(round.status[1], QuestionStatus::kNoQuorum);
  EXPECT_EQ(round.votes[0].total_votes, 0);
  EXPECT_EQ(round.answered(), 0u);
  EXPECT_DOUBLE_EQ(round.cost_dollars, 0.0);
  EXPECT_EQ(platform.hits_expired(), 1u);
  EXPECT_EQ(platform.assignments_completed(), 0u);
}

// AMT semantics: rejected assignments are not paid.
TEST(PlatformTest, RejectedAssignmentsAreNotPaid) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  config.fault.spammer_rate = 0.5;  // half the crowd answers coin flips
  // One question per HIT: the approval rule then rejects exactly the
  // minority voters, so coin-flip spam reliably produces rejections.
  config.questions_per_hit = 1;
  CrowdPlatform platform(&table, config);
  std::vector<PairQuestion> questions;
  for (const auto& p : PaperExamplePairs()) questions.push_back({p.i, p.j});
  auto round = platform.PostRound(questions);
  size_t approved = 0;
  for (const auto& a : round.assignments) {
    if (a.approved) ++approved;
  }
  ASSERT_GT(platform.assignments_rejected(), 0u);
  EXPECT_EQ(approved + platform.assignments_rejected(),
            platform.assignments_completed());
  EXPECT_NEAR(round.cost_dollars,
              static_cast<double>(approved) * config.reward_per_hit, 1e-9);
  EXPECT_DOUBLE_EQ(platform.total_cost_dollars(), round.cost_dollars);
  EXPECT_LT(platform.total_cost_dollars(),
            static_cast<double>(platform.assignments_completed()) *
                config.reward_per_hit);
}

TEST(PlatformTest, TotalAbandonmentExpiresTheRound) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  config.fault.abandon_prob = 1.0;
  CrowdPlatform platform(&table, config);
  auto round = platform.PostRound({{0, 1}, {0, 3}});
  ASSERT_EQ(round.status.size(), 2u);
  EXPECT_EQ(round.status[0], QuestionStatus::kExpired);
  EXPECT_EQ(round.votes[0].total_votes, 0);
  EXPECT_EQ(round.answered(), 0u);
  EXPECT_TRUE(round.assignments.empty());
  EXPECT_DOUBLE_EQ(round.cost_dollars, 0.0);
  EXPECT_EQ(platform.assignments_abandoned(),
            static_cast<size_t>(config.assignments_per_hit));
  EXPECT_EQ(platform.hits_expired(), 1u);
  // No timeout configured: abandoned slots add no latency.
  EXPECT_DOUBLE_EQ(round.latency_seconds, 0.0);
}

TEST(PlatformTest, AssignmentTimeoutExpiresSlowWork) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  config.fault.assignment_timeout_seconds = 1e-3;  // everyone is too slow
  CrowdPlatform platform(&table, config);
  auto round = platform.PostRound({{0, 1}});
  EXPECT_EQ(round.status[0], QuestionStatus::kExpired);
  EXPECT_EQ(platform.assignments_expired(),
            static_cast<size_t>(config.assignments_per_hit));
  // The round lasted exactly the timeout: slots idled until expiry.
  EXPECT_DOUBLE_EQ(round.latency_seconds, 1e-3);
}

TEST(PlatformTest, SlowTailStretchesRoundLatency) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  CrowdPlatform fast(&table, config);
  config.fault.slow_tail_prob = 1.0;
  config.fault.slow_tail_multiplier = 100.0;
  CrowdPlatform slow(&table, config);
  double fast_latency = fast.PostRound({{0, 1}}).latency_seconds;
  double slow_latency = slow.PostRound({{0, 1}}).latency_seconds;
  EXPECT_GT(slow_latency, fast_latency * 10.0);
}

TEST(RequesterTest, BackoffDelayIsCappedExponential) {
  Table table = PaperExampleTable();
  CrowdPlatform platform(&table, HighQualityConfig());
  RetryPolicy policy;
  policy.base_backoff_seconds = 60.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 300.0;
  Requester requester(&platform, policy);
  EXPECT_DOUBLE_EQ(requester.BackoffDelay(0), 60.0);
  EXPECT_DOUBLE_EQ(requester.BackoffDelay(1), 120.0);
  EXPECT_DOUBLE_EQ(requester.BackoffDelay(2), 240.0);
  EXPECT_DOUBLE_EQ(requester.BackoffDelay(3), 300.0);  // capped
  EXPECT_DOUBLE_EQ(requester.BackoffDelay(10), 300.0);
}

TEST(RequesterTest, BackoffDelaySafeAtExtremeAttemptCounts) {
  // A huge max_ask_attempts plumbed through to the repost count must not
  // hang or overflow the computation — the boundary the durable-job retry
  // machinery can reach. Degenerate schedules (zero base, multiplier 1)
  // formerly spun `repost` times through a loop that changed nothing.
  Table table = PaperExampleTable();
  CrowdPlatform platform(&table, HighQualityConfig());

  RetryPolicy flat;  // multiplier 1: constant schedule
  flat.base_backoff_seconds = 60.0;
  flat.backoff_multiplier = 1.0;
  flat.max_backoff_seconds = 300.0;
  Requester flat_requester(&platform, flat);
  EXPECT_DOUBLE_EQ(flat_requester.BackoffDelay(0), 60.0);
  // INT_MAX reposts: must return immediately, same value as any repost.
  EXPECT_DOUBLE_EQ(
      flat_requester.BackoffDelay(std::numeric_limits<int>::max()), 60.0);

  RetryPolicy zero;  // zero base: delay is identically zero
  zero.base_backoff_seconds = 0.0;
  Requester zero_requester(&platform, zero);
  EXPECT_DOUBLE_EQ(
      zero_requester.BackoffDelay(std::numeric_limits<int>::max()), 0.0);

  RetryPolicy huge;  // cap at DBL_MAX: growth overflows to inf, clamps back
  huge.base_backoff_seconds = 1e300;
  huge.backoff_multiplier = 1e10;
  huge.max_backoff_seconds = std::numeric_limits<double>::max();
  Requester huge_requester(&platform, huge);
  double capped =
      huge_requester.BackoffDelay(std::numeric_limits<int>::max());
  EXPECT_TRUE(std::isfinite(capped));
  EXPECT_DOUBLE_EQ(capped, std::numeric_limits<double>::max());

  // The hardened fast paths produce bit-identical delays to the multiply
  // loop on ordinary schedules (spot-check the documented series).
  RetryPolicy normal;
  normal.base_backoff_seconds = 60.0;
  normal.backoff_multiplier = 2.0;
  normal.max_backoff_seconds = 3600.0;
  Requester normal_requester(&platform, normal);
  EXPECT_DOUBLE_EQ(normal_requester.BackoffDelay(5), 60.0 * 32.0);
  EXPECT_DOUBLE_EQ(normal_requester.BackoffDelay(1000), 3600.0);
}

TEST(RequesterTest, RetriesRecoverFromAbandonment) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  // Everyone abandons the base-rate posting; reward bumps then damp the
  // abandonment probability (1.0 * base/bumped), so retries recover.
  config.fault.abandon_prob = 1.0;
  CrowdPlatform platform(&table, config);
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.reward_bump_dollars = 0.10;  // damps abandonment fast on reposts
  Requester requester(&platform, policy);
  std::vector<PairQuestion> questions;
  for (const auto& p : PaperExamplePairs()) questions.push_back({p.i, p.j});
  auto outcomes = requester.Resolve(questions);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.answered());
    EXPECT_GT(outcome.vote.total_votes, 0);
    EXPECT_GE(outcome.attempts, 1);
    EXPECT_LE(outcome.attempts, policy.max_attempts);
  }
  // The fault actually fired and the retry machinery did real work.
  EXPECT_GT(platform.assignments_abandoned(), 0u);
  EXPECT_GT(requester.questions_reposted(), 0u);
  EXPECT_GT(requester.backoff_seconds(), 0.0);
  EXPECT_EQ(requester.questions_exhausted(), 0u);
  // Backoff waits flow into the simulated clock on top of round latency.
  EXPECT_DOUBLE_EQ(
      platform.clock()->now_seconds(),
      platform.total_latency_seconds() + requester.backoff_seconds());
}

TEST(RequesterTest, ExhaustionAfterMaxAttemptsWithRewardBumps) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  config.fault.assignment_timeout_seconds = 1e-3;  // nothing ever completes
  CrowdPlatform platform(&table, config);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.reward_bump_dollars = 0.05;
  Requester requester(&platform, policy);
  auto outcomes = requester.Resolve({{0, 1}});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].answered());
  EXPECT_EQ(outcomes[0].status, QuestionStatus::kExpired);
  EXPECT_EQ(outcomes[0].attempts, 3);
  EXPECT_EQ(outcomes[0].vote.total_votes, 0);
  EXPECT_EQ(requester.questions_exhausted(), 1u);
  EXPECT_EQ(requester.questions_reposted(), 2u);
  // Each repost bumps the HIT reward and tags the repost generation.
  ASSERT_EQ(platform.hit_log().size(), 3u);
  EXPECT_EQ(platform.hit_log()[2].repost, 2);
  EXPECT_DOUBLE_EQ(platform.hit_log()[2].reward_dollars,
                   config.reward_per_hit + 2 * policy.reward_bump_dollars);
  // Nothing was approved, so nothing was paid.
  EXPECT_DOUBLE_EQ(platform.total_cost_dollars(), 0.0);
}

TEST(RequesterTest, NoQuorumSurfacesInOutcome) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  config.pool_size = 2;
  config.min_approval_rate = 0.9;
  CrowdPlatform platform(&table, config);
  for (int w = 0; w < 2; ++w) {
    platform.mutable_pool()->RecordSubmission(w, false);
  }
  RetryPolicy policy;
  policy.max_attempts = 2;
  Requester requester(&platform, policy);
  auto outcomes = requester.Resolve({{0, 1}});
  EXPECT_FALSE(outcomes[0].answered());
  EXPECT_EQ(outcomes[0].status, QuestionStatus::kNoQuorum);
  EXPECT_GT(requester.no_quorum_failures(), 0u);
}

TEST(PlatformOracleTest, UnansweredPairsAreNotCachedAndCanRecover) {
  Table table = PaperExampleTable();
  PlatformConfig config = HighQualityConfig();
  config.pool_size = 4;
  config.min_approval_rate = 0.9;
  CrowdPlatform platform(&table, config);
  for (int w = 0; w < 4; ++w) {
    platform.mutable_pool()->RecordSubmission(w, false);
  }
  PlatformOracle oracle(&platform);
  VoteResult first = oracle.Ask(0, 1);
  EXPECT_EQ(first.total_votes, 0);  // no quorum, returned as unanswered
  // The operator relaxes the situation (workers earn approvals back); the
  // pair was not cached, so re-asking posts again and now succeeds.
  for (int w = 0; w < 4; ++w) {
    for (int k = 0; k < 20; ++k) {
      platform.mutable_pool()->RecordSubmission(w, true);
    }
  }
  VoteResult again = oracle.Ask(0, 1);
  EXPECT_GT(again.total_votes, 0);
  // Now it is cached: a third ask posts no new round.
  size_t rounds = platform.rounds_posted();
  oracle.Ask(0, 1);
  EXPECT_EQ(platform.rounds_posted(), rounds);
}

// FNV-1a over 64-bit words, doubles by their bit patterns.
class StreamDigest {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001B3ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// A generated Cora table: dirty duplicates, so the questions' record-level
// Jaccard spreads over [0, 1] and the difficulty matters.
Table VoteStreamTable() {
  DatasetProfile profile = CoraProfile();
  profile.num_records = 240;
  profile.num_entities = 80;
  return DatasetGenerator(29).Generate(profile);
}

// Every pair of records of one entity (up to three per record), interleaved
// with a spread of pairs of mostly different entities.
std::vector<PairQuestion> VoteStreamQuestions(const Table& table) {
  const int n = static_cast<int>(table.num_records());
  std::vector<PairQuestion> questions;
  for (int i = 0; i < n; ++i) {
    int same = 0;
    for (int j = i + 1; j < n && same < 3; ++j) {
      if (table.record(i).entity_id == table.record(j).entity_id) {
        questions.push_back({i, j});
        ++same;
      }
    }
    const int other = (i * 37 + 11) % n;
    if (other != i) questions.push_back({std::min(i, other),
                                         std::max(i, other)});
  }
  return questions;
}

void DigestPlatform(const CrowdPlatform& platform, StreamDigest* d) {
  for (const Assignment& a : platform.assignment_log()) {
    d->Add(static_cast<uint64_t>(a.hit_id));
    d->Add(static_cast<uint64_t>(a.worker_id));
    d->Add(a.answers.size());
    for (bool yes : a.answers) d->Add(yes ? 1 : 0);
    d->Add(a.approved ? 1 : 0);
    d->AddDouble(a.latency_seconds);
  }
  for (const Hit& hit : platform.hit_log()) {
    d->Add(static_cast<uint64_t>(hit.id));
    d->Add(hit.questions.size());
    d->AddDouble(hit.reward_dollars);
    d->Add(static_cast<uint64_t>(hit.repost));
  }
  d->AddDouble(platform.total_cost_dollars());
  d->AddDouble(platform.total_latency_seconds());
  d->AddDouble(platform.clock().now_seconds());
  d->Add(platform.hits_posted());
  d->Add(platform.hits_expired());
  d->Add(platform.assignments_completed());
  d->Add(platform.assignments_abandoned());
  d->Add(platform.assignments_expired());
  d->Add(platform.assignments_rejected());
}

void DigestVote(const VoteResult& vote, StreamDigest* d) {
  d->Add(static_cast<uint64_t>(vote.yes_votes));
  d->Add(static_cast<uint64_t>(vote.total_votes));
}

// One crowd's whole stream over the questions, posted in rounds of uneven
// sizes: straight to the platform, or through a requester that reposts what
// comes back unanswered.
uint64_t VoteStreamDigest(const Table& table, size_t questions_per_hit,
                          bool faulty, uint64_t seed) {
  PlatformConfig config;
  config.difficulty_scale = CoraProfile().human_hardness;
  config.questions_per_hit = questions_per_hit;
  config.seed = seed;
  if (faulty) {
    // perfbench's crowd-faulty marketplace.
    config.fault.abandon_prob = 0.4;
    config.fault.spammer_rate = 0.2;
    config.fault.slow_tail_prob = 0.2;
    config.fault.slow_tail_multiplier = 10.0;
    config.fault.assignment_timeout_seconds = 600.0;
  }
  CrowdPlatform platform(&table, config);
  RetryPolicy policy;
  policy.max_attempts = 4;
  Requester requester(&platform, policy);
  const std::vector<PairQuestion> all = VoteStreamQuestions(table);
  StreamDigest d;
  const size_t sizes[] = {1, 3, 10, 17, 1, 30, 9, 64};
  size_t next = 0;
  for (size_t r = 0; next < all.size(); ++r) {
    const size_t take = std::min(sizes[r % std::size(sizes)],
                                 all.size() - next);
    const std::vector<PairQuestion> round(all.begin() + next,
                                          all.begin() + next + take);
    next += take;
    if (faulty) {
      for (const QuestionOutcome& o : requester.Resolve(round)) {
        DigestVote(o.vote, &d);
        d.Add(static_cast<uint64_t>(o.status));
        d.Add(static_cast<uint64_t>(o.attempts));
      }
    } else {
      const CrowdPlatform::RoundResult result = platform.PostRound(round);
      for (const VoteResult& vote : result.votes) DigestVote(vote, &d);
      for (QuestionStatus s : result.status) {
        d.Add(static_cast<uint64_t>(s));
      }
      d.AddDouble(result.latency_seconds);
      d.AddDouble(result.cost_dollars);
    }
  }
  DigestPlatform(platform, &d);
  if (faulty) {
    d.Add(requester.questions_reposted());
    d.Add(requester.questions_exhausted());
    d.AddDouble(requester.backoff_seconds());
  }
  return d.value();
}

// Pins every vote, status, latency, approval, payment and clock tick of the
// simulated crowd: the values were recorded before the platform computed a
// question's difficulty once per HIT from cached record tokens, and any
// change to what the crowd answers shows here.
TEST(PlatformTest, VoteStreamMatchesParent) {
  const Table table = VoteStreamTable();
  struct Case {
    size_t questions_per_hit;
    bool faulty;
    uint64_t seed;
    uint64_t digest;
  };
  const Case cases[] = {
      {10, false, 5, 0xcffd59b745456b58ULL},
      {10, false, 51, 0x6bf0ea4416081abeULL},
      {10, false, 2016, 0x234b2e7d8bc2d159ULL},
      {1, false, 5, 0xf82fab3e85f1a336ULL},
      {1, false, 51, 0x9ae9951f8fce826eULL},
      {1, false, 2016, 0x0bdbf81c462760fbULL},
      {10, true, 5, 0xe2b8a91cfef61634ULL},
      {10, true, 51, 0x478c15728470958aULL},
      {10, true, 2016, 0x778972fa62a4d775ULL},
      {1, true, 5, 0x03d288a0ae4dc803ULL},
      {1, true, 51, 0x470b4200fbacfb7aULL},
      {1, true, 2016, 0x5aaed044e58a23e3ULL},
  };
  for (const Case& c : cases) {
    const uint64_t digest =
        VoteStreamDigest(table, c.questions_per_hit, c.faulty, c.seed);
    EXPECT_EQ(digest, c.digest)
        << "questions_per_hit " << c.questions_per_hit
        << (c.faulty ? " faulty" : " perfect") << " seed " << c.seed
        << ": digest 0x" << std::hex << digest;
  }
}

// Records whose text stresses the tokenizer: mixed case, tabs and
// newlines, repeated and empty cells, bytes >= 0x80, and a record with no
// tokens at all.
Table HostileTable() {
  Table table(Schema({{"a", SimilarityFunction::kJaccard},
                      {"b", SimilarityFunction::kJaccard},
                      {"c", SimilarityFunction::kJaccard}}));
  const std::vector<std::vector<std::string>> rows = {
      {"The QUICK brown", "fox", "the quick"},
      {"the quick BROWN", "FOX\tjumps", ""},
      {"a\tb\nc", "a b c", "A B C"},
      {"", "", ""},
      {" \t\n", "\r\v\f", "  "},
      {"caf\xc3\xa9 na\xc3\xafve", "\xff\xfe\x80", "CAF\xc3\xa9"},
      {"caf\xc3\xa9", "\xff\xfe\x80 x", "x x x"},
      {"same", "same", "same"},
      {"same", "", "other"},
      {"fox", "brown", "quick the"},
  };
  for (size_t r = 0; r < rows.size(); ++r) {
    Record record;
    record.entity_id = static_cast<int>(r / 2);
    record.values = rows[r];
    table.Add(std::move(record));
  }
  return table;
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

void ExpectDifficultyMatches(CrowdPlatform* platform, const Table& table,
                             int i, int j) {
  const double expected = TaskDifficulty(platform->config().difficulty_scale,
                                         RecordLevelJaccard(table, i, j));
  EXPECT_EQ(Bits(platform->Difficulty(i, j)), Bits(expected))
      << "pair (" << i << ", " << j << ")";
}

TEST(PlatformTest, DifficultyMatchesRecordJaccard) {
  Table table = HostileTable();
  const int n = static_cast<int>(table.num_records());
  PlatformConfig config = HighQualityConfig();
  config.difficulty_scale = 0.7;
  {
    // Cold cache in ascending order, then warm in descending order.
    CrowdPlatform platform(&table, config);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ExpectDifficultyMatches(&platform, table, i, j);
      }
    }
    for (int i = n - 1; i >= 0; --i) {
      for (int j = n - 1; j >= 0; --j) {
        ExpectDifficultyMatches(&platform, table, i, j);
      }
    }
  }
  {
    // Cold cache in descending order, after a round that scored some pairs.
    CrowdPlatform platform(&table, config);
    platform.PostRound({{0, 1}, {2, 5}, {3, 4}});
    for (int i = n - 1; i >= 0; --i) {
      for (int j = 0; j < n; ++j) {
        ExpectDifficultyMatches(&platform, table, i, j);
      }
    }
    // A record added after the first round.
    Record late;
    late.entity_id = 0;
    late.values = {"THE quick", "Fox\tjumps", "caf\xc3\xa9"};
    table.Add(std::move(late));
    const int added = n;
    const CrowdPlatform::RoundResult round =
        platform.PostRound({{0, added}, {added, 5}});
    EXPECT_EQ(round.answered(), 2u);
    for (int j = 0; j <= added; ++j) {
      ExpectDifficultyMatches(&platform, table, added, j);
      ExpectDifficultyMatches(&platform, table, j, added);
    }
  }
}

TEST(PlatformDeathTest, RefusesDifficultyScaleOutsideUnitInterval) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Table table = PaperExampleTable();
  for (double scale : {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.5}) {
    SCOPED_TRACE(scale);
    PlatformConfig config = HighQualityConfig();
    config.difficulty_scale = scale;
    EXPECT_DEATH(CrowdPlatform(&table, config), "difficulty_scale");
  }
}

}  // namespace
}  // namespace power
