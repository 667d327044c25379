#ifndef POWER_CORE_JOB_JOURNAL_H_
#define POWER_CORE_JOB_JOURNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/snapshot.h"

namespace power {

/// Checkpoint codec for resumable RunOnPairs jobs (core/power.h).
///
/// A JobCheckpoint is everything the ask-and-color loop cannot recompute:
/// the crowd-facing state (answers are money). The machine-side setup —
/// grouping, graph construction, the rng fork sequence that seeds the
/// builder and selector — is a deterministic function of (config, pairs)
/// and is replayed on resume, then the restored loop state overwrites the
/// replayed loop state. The `fingerprint` field binds a checkpoint to the
/// exact (config, pairs) that wrote it; resuming under a different
/// configuration is refused, never silently blended.
///
/// Checkpoints are written at *every* phase boundary, not just after apply:
/// a round's answered-vote residue mid-retry is already paid for, and the
/// write-ahead discipline is what lets a resumed job hold those votes
/// instead of re-posting the questions.

/// "POWERJOB" as a little-endian u64 — the snapshot-file type tag.
inline constexpr uint64_t kJobSnapshotMagic = 0x424F4A5245574F50ULL;
/// Version 3 drops the per-vertex forced flags from the coloring blob;
/// version 2 fingerprinted the similarity table one 8-byte word at a time
/// (version 1 hashed it bytewise). An older file is refused by version, with
/// a warning, and the job starts clean.
inline constexpr uint32_t kJobSnapshotVersion = 3;

struct JobCheckpoint {
  /// FNV-1a over the loop-relevant PowerConfig fields and the similarity
  /// table (pair keys + value bit patterns). See JobFingerprint in
  /// power.cc.
  uint64_t fingerprint = 0;

  /// RunPhase (as u8) the resumed job steps into next.
  uint8_t phase = 0;

  // ErResult counters at the boundary.
  uint64_t questions = 0;
  uint64_t iterations = 0;
  uint64_t requeued_questions = 0;
  uint64_t degraded_questions = 0;
  uint64_t checkpoints_written = 0;
  uint64_t resumed = 0;
  double assignment_seconds = 0.0;

  /// Loop rng engine (util/rng.h SaveState text).
  std::string rng_state;
  /// ColoringState::SaveState blob (colors, asked flags, votes, journal).
  std::string coloring_state;
  /// QuestionSelector::SaveState blob (empty for the stateless selectors).
  std::string selector_state;
  /// PairOracle::SaveDurableState blob (empty for pure oracles).
  std::string oracle_state;

  // In-flight round (meaningful when phase is kPost/kCollect/kApply):
  // the selected group batch, its representative pair questions (two ints
  // per slot), the votes held so far (yes, total per slot), the slot
  // indices still unanswered, and the 0-based attempt about to run.
  std::vector<int> batch;
  std::vector<int> questions_flat;
  std::vector<int> votes_flat;
  std::vector<int> unanswered;
  uint64_t attempt = 0;

  /// Every (i, j) posted to the oracle so far, in posting order, retries
  /// included — the byte-identity witness the crash sweep compares.
  std::vector<int> question_trace;
};

/// Serializes a checkpoint into a snapshot payload (util/snapshot.h framing
/// adds the versioned, checksummed header).
std::string EncodeJobCheckpoint(const JobCheckpoint& cp);

/// Decodes a payload produced by EncodeJobCheckpoint. Returns false on any
/// truncation, trailing garbage, or internal inconsistency (mismatched
/// parallel-array lengths, out-of-range phase); `out` is unspecified then.
bool DecodeJobCheckpoint(std::string_view payload, JobCheckpoint* out);

/// The durable store a job commits through: two-generation rotation on
/// write, checksum-validated load with previous-generation fallback, and
/// removal once the job completes.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  /// Encodes and durably commits (write-temp + fsync + rename + parent
  /// fsync, previous generation kept at path + ".prev").
  SnapshotStatus Commit(const JobCheckpoint& cp) const;

  /// Loads the newest decodable checkpoint: current generation first, then
  /// the previous one, warning loudly about every file it rejects. Returns
  /// false when neither generation yields a valid checkpoint (the caller
  /// starts clean). `generation` (optional) reports which file won (0 =
  /// current, 1 = previous).
  bool Load(JobCheckpoint* out, int* generation = nullptr) const;

  /// Deletes both generations (job completed; nothing left to resume).
  void Clear() const;

 private:
  std::string path_;
};

}  // namespace power

#endif  // POWER_CORE_JOB_JOURNAL_H_
