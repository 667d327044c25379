#include "platform/platform.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "sim/similarity_matrix.h"
#include "sim/tokenizer.h"
#include "util/check.h"

namespace power {
namespace {

struct ScoredQuestion {
  bool truth;
  double difficulty;
};

}  // namespace

CrowdPlatform::CrowdPlatform(const Table* table,
                             const PlatformConfig& config)
    : table_(table),
      config_(config),
      pool_(config.pool_size, config.accuracy_lo, config.accuracy_hi,
            config.seed * 7919 + 1),
      rng_(config.seed) {
  POWER_CHECK(table != nullptr);
  POWER_CHECK(config.assignments_per_hit >= 1);
  POWER_CHECK(config.questions_per_hit >= 1);
  // NaN fails too: Rng::Bernoulli(NaN) is always false, which would invert
  // every honest answer.
  POWER_CHECK(config.difficulty_scale >= 0.0 &&
              config.difficulty_scale <= 1.0);
}

bool CrowdPlatform::Truth(const PairQuestion& q) const {
  return table_->record(q.i).entity_id == table_->record(q.j).entity_id;
}

int32_t CrowdPlatform::TokenSlot(int r) {
  const auto record = static_cast<size_t>(r);
  POWER_CHECK(record < table_->num_records());
  if (record >= token_slot_.size()) {
    token_slot_.resize(table_->num_records(), kNoTokens);
  }
  if (token_slot_[record] == kNoTokens) {
    token_slot_[record] = static_cast<int32_t>(token_begin_.size() - 1);
    for (std::string& token : RecordWordTokenSet(*table_, r)) {
      const auto next = static_cast<int32_t>(token_dict_.size());
      token_ids_.push_back(
          token_dict_.try_emplace(std::move(token), next).first->second);
    }
    std::sort(token_ids_.begin() +
                  static_cast<std::ptrdiff_t>(token_begin_.back()),
              token_ids_.end());
    token_begin_.push_back(token_ids_.size());
  }
  return token_slot_[record];
}

std::span<const int32_t> CrowdPlatform::SlotTokens(int32_t slot) const {
  const auto s = static_cast<size_t>(slot);
  return std::span<const int32_t>(token_ids_).subspan(
      token_begin_[s], token_begin_[s + 1] - token_begin_[s]);
}

double CrowdPlatform::Difficulty(int i, int j) {
  // Both slots before either span: caching a record may grow token_ids_.
  const int32_t a = TokenSlot(i);
  const int32_t b = TokenSlot(j);
  // Interning is a bijection, so the id sets' Jaccard is the token sets'.
  return TaskDifficulty(config_.difficulty_scale,
                        JaccardOfSets(SlotTokens(a), SlotTokens(b)));
}

bool CrowdPlatform::WorkerAnswers(const SimWorker& worker, bool truth,
                                  double difficulty) {
  // Same task-difficulty model as CrowdSimulator, driven by the worker's
  // latent accuracy.
  double gamma = 1.0 + 4.0 * (1.0 - worker.true_accuracy);
  double p_correct =
      0.5 + 0.5 * std::pow(1.0 - std::clamp(difficulty, 0.0, 1.0), gamma);
  bool correct = rng_.Bernoulli(p_correct);
  return correct ? truth : !truth;
}

CrowdPlatform::RoundResult CrowdPlatform::PostRound(
    const std::vector<PairQuestion>& questions, double reward_bonus_dollars,
    int repost) {
  POWER_CHECK(reward_bonus_dollars >= 0.0);
  RoundResult result;
  if (questions.empty()) return result;
  ++rounds_posted_;
  const FaultProfile& fault = config_.fault;
  const double reward = config_.reward_per_hit + reward_bonus_dollars;
  // Reward bumps damp abandonment: a HIT paying k times the base rate is
  // abandoned 1/k as often. Every fault draw below is gated on its knob
  // being enabled, so a fault-free profile consumes exactly the historical
  // rng stream (replay compatibility).
  const double abandon_prob =
      fault.abandon_prob > 0.0 && reward > 0.0
          ? fault.abandon_prob * config_.reward_per_hit / reward
          : fault.abandon_prob;

  // 1. Pack questions into HITs.
  std::vector<Hit> hits;
  for (size_t start = 0; start < questions.size();
       start += config_.questions_per_hit) {
    Hit hit;
    hit.id = next_hit_id_++;
    hit.reward_dollars = reward;
    hit.repost = repost;
    size_t end = std::min(start + config_.questions_per_hit,
                          questions.size());
    hit.questions.assign(questions.begin() + start, questions.begin() + end);
    hits.push_back(std::move(hit));
  }
  hits_posted_ += hits.size();

  // 2. Each HIT is offered to `assignments_per_hit` qualified workers.
  //    yes_votes[q] accumulates across *submitted* assignments only;
  //    abandoned and timed-out assignments contribute nothing.
  std::vector<int> yes_votes(questions.size(), 0);
  std::vector<int> total_votes(questions.size(), 0);
  result.status.assign(questions.size(), QuestionStatus::kExpired);
  double round_latency = 0.0;
  // The current HIT's questions as honest workers see them. A question's
  // truth and difficulty depend on the question alone and draw nothing from
  // rng_, so they are computed once per HIT, when its first honest
  // assignment is simulated; a HIT whose assignments are all abandoned or
  // spam computes none.
  std::vector<ScoredQuestion> scored;

  for (size_t h = 0; h < hits.size(); ++h) {
    const Hit& hit = hits[h];
    scored.clear();
    std::vector<int> workers = pool_.DrawQualified(
        config_.assignments_per_hit, config_.min_approval_rate, &rng_);
    if (workers.empty()) {
      // Strict qualification after mass rejections can empty the eligible
      // sub-pool. This is an explicit no-quorum outcome, not a 0-0 vote tie
      // and not a fatal error: the caller decides whether to relax the
      // filter, repost, or degrade.
      for (size_t q = 0; q < hit.questions.size(); ++q) {
        result.status[h * config_.questions_per_hit + q] =
            QuestionStatus::kNoQuorum;
      }
      ++hits_expired_;
      hit_log_.push_back(hit);
      continue;
    }
    std::vector<Assignment> hit_assignments;
    for (int worker_id : workers) {
      const SimWorker& worker = pool_.worker(worker_id);
      if (abandon_prob > 0.0 && rng_.Bernoulli(abandon_prob)) {
        // Accepted, then walked away: no submission, no votes, no pay. The
        // slot stays locked until the assignment timeout (when one is set).
        ++assignments_abandoned_;
        round_latency =
            std::max(round_latency, fault.assignment_timeout_seconds);
        continue;
      }
      bool spammer =
          fault.spammer_rate > 0.0 && rng_.Bernoulli(fault.spammer_rate);
      Assignment assignment;
      assignment.hit_id = hit.id;
      assignment.worker_id = worker_id;
      assignment.answers.reserve(hit.questions.size());
      if (!spammer && scored.empty()) {
        for (const PairQuestion& q : hit.questions) {
          scored.push_back({Truth(q), Difficulty(q.i, q.j)});
        }
      }
      for (size_t q = 0; q < hit.questions.size(); ++q) {
        assignment.answers.push_back(
            spammer ? rng_.Bernoulli(0.5)
                    : WorkerAnswers(worker, scored[q].truth,
                                    scored[q].difficulty));
      }
      // Latency: exponential-ish around the worker's mean speed; spammers
      // rush, the slow tail multiplies.
      double u = rng_.UniformDouble(1e-6, 1.0);
      double latency = worker.mean_hit_seconds * -std::log(u);
      if (spammer) latency *= 0.25;
      if (fault.slow_tail_prob > 0.0 &&
          rng_.Bernoulli(fault.slow_tail_prob)) {
        latency *= fault.slow_tail_multiplier;
      }
      if (fault.assignment_timeout_seconds > 0.0 &&
          latency > fault.assignment_timeout_seconds) {
        // Idled past the assignment duration: AMT returns the slot with
        // nothing submitted.
        ++assignments_expired_;
        round_latency =
            std::max(round_latency, fault.assignment_timeout_seconds);
        continue;
      }
      assignment.latency_seconds = latency;
      round_latency = std::max(round_latency, latency);
      hit_assignments.push_back(std::move(assignment));
    }
    if (hit_assignments.empty()) {
      // Every assignment abandoned or timed out: the HIT expired.
      ++hits_expired_;
      hit_log_.push_back(hit);
      continue;
    }

    // 3. Tally votes and approve assignments: a requester without gold
    //    labels approves a worker who agrees with the per-question majority
    //    on at least half of the HIT's questions. Only approved assignments
    //    are paid (AMT semantics: rejected work costs nothing).
    for (size_t a = 0; a < hit_assignments.size(); ++a) {
      const Assignment& assignment = hit_assignments[a];
      for (size_t q = 0; q < hit.questions.size(); ++q) {
        size_t global_q = h * config_.questions_per_hit + q;
        if (assignment.answers[q]) ++yes_votes[global_q];
        ++total_votes[global_q];
        result.status[global_q] = QuestionStatus::kAnswered;
      }
    }
    for (Assignment& assignment : hit_assignments) {
      int agreements = 0;
      for (size_t q = 0; q < hit.questions.size(); ++q) {
        size_t global_q = h * config_.questions_per_hit + q;
        bool majority_yes = 2 * yes_votes[global_q] > total_votes[global_q];
        if (assignment.answers[q] == majority_yes) ++agreements;
      }
      assignment.approved = 2 * agreements >=
                            static_cast<int>(hit.questions.size());
      pool_.RecordSubmission(assignment.worker_id, assignment.approved);
      if (assignment.approved) {
        total_cost_ += hit.reward_dollars;  // paid per approved assignment
        result.cost_dollars += hit.reward_dollars;
      } else {
        ++assignments_rejected_;
      }
      ++assignments_completed_;
    }
    result.assignments.insert(result.assignments.end(),
                              hit_assignments.begin(), hit_assignments.end());
    assignment_log_.insert(assignment_log_.end(), hit_assignments.begin(),
                           hit_assignments.end());
    hit_log_.push_back(hit);
  }

  result.votes.reserve(questions.size());
  for (size_t q = 0; q < questions.size(); ++q) {
    VoteResult vote;
    vote.yes_votes = yes_votes[q];
    vote.total_votes = total_votes[q];
    result.votes.push_back(vote);
  }
  result.latency_seconds = round_latency;
  total_latency_ += round_latency;
  clock_.Advance(round_latency);
  return result;
}

}  // namespace power
