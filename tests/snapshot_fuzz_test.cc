// Adversarial coverage of the durable-snapshot substrate: every truncation
// prefix and every single-bit flip of a snapshot file must be *detected*
// (never kOk, never UB — run this under ASan/UBSan via check.sh --asan /
// --crash), hostile length prefixes must not allocate, version skew and
// magic mismatch must map to their dedicated statuses, generation fallback
// must be deterministic, and a fully corrupted checkpoint must degrade an
// end-to-end resume into a loud clean start — never a wrong answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/job_journal.h"
#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/paper_example.h"
#include "util/snapshot.h"

namespace power {
namespace {

constexpr uint64_t kMagic = 0x544F4E5350414E53ULL;  // arbitrary test tag
constexpr uint32_t kVersion = 3;

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "snapshot_fuzz_" + tag;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string SamplePayload() {
  SnapshotWriter w;
  w.U8(7);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1);
  w.F64(3.14159265358979);
  w.Str("the crowd is not free");
  w.VecU8({0, 1, 2, 255});
  w.VecI32({-3, 0, 3, 1 << 30});
  return w.payload();
}

// The textbook bytewise CRC-32 (reflected 0xEDB88320), the reference the
// sliced Crc32 must equal at every length and alignment.
uint32_t BytewiseCrc32(const unsigned char* p, size_t size, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t size, uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(gen());
  return bytes;
}

TEST(SnapshotCrc, CheckValueOfTheStandardString) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(SnapshotCrc, MatchesBytewiseAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLength = 4100;
  const std::vector<unsigned char> bytes = RandomBytes(kMaxLength + 8, 1);
  for (size_t start = 0; start < 8; ++start) {
    // Odd starts also chain from a nonzero seed.
    const uint32_t seed = start % 2 == 0 ? 0u : 0x9E3779B9u;
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const unsigned char* p = bytes.data() + start;
      ASSERT_EQ(Crc32(p, length, seed), BytewiseCrc32(p, length, seed))
          << "start " << start << " length " << length;
    }
  }
}

TEST(SnapshotCrc, ChainsAcrossEverySplit) {
  // Crc32(b, nb, Crc32(a, na)) == Crc32(concat(a, b)), as snapshot.h
  // documents, with splits on and off the eight-byte steps.
  const std::vector<unsigned char> bytes = RandomBytes(300, 7);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const uint32_t head = Crc32(bytes.data(), cut);
    EXPECT_EQ(Crc32(bytes.data() + cut, bytes.size() - cut, head), whole)
        << "cut " << cut;
  }
}

TEST(SnapshotCodecTest, RoundTripAllTypes) {
  std::string payload = SamplePayload();
  SnapshotReader r(payload);
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1);
  EXPECT_DOUBLE_EQ(r.F64(), 3.14159265358979);
  EXPECT_EQ(r.Str(), "the crowd is not free");
  EXPECT_EQ(r.VecU8(), (std::vector<uint8_t>{0, 1, 2, 255}));
  EXPECT_EQ(r.VecI32(), (std::vector<int>{-3, 0, 3, 1 << 30}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodecTest, TruncatedPayloadLatchesNotOk) {
  std::string payload = SamplePayload();
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    // Named: the reader is a view, and the loop body outlives a temporary.
    std::string truncated = payload.substr(0, cut);
    SnapshotReader r(truncated);
    // Drain with the full read sequence; somewhere it must fall off the end.
    (void)r.U8();
    (void)r.U32();
    (void)r.U64();
    (void)r.I32();
    (void)r.I64();
    (void)r.F64();
    (void)r.Str();
    (void)r.VecU8();
    (void)r.VecI32();
    EXPECT_FALSE(r.ok() && r.AtEnd()) << "cut=" << cut;
  }
}

TEST(SnapshotCodecTest, HostileLengthPrefixesNeverAllocate) {
  // A length prefix claiming ~2^64 bytes with 4 bytes of actual data: the
  // reader must refuse (latch !ok) without ever attempting the allocation
  // (an attempt would OOM or trip ASan allocator limits).
  for (uint64_t hostile : std::vector<uint64_t>{
           ~uint64_t{0}, ~uint64_t{0} / 2, uint64_t{1} << 40,
           uint64_t{1} << 62}) {
    SnapshotWriter w;
    w.U64(hostile);  // same wire shape as a Str/Vec length prefix
    std::string bytes = w.payload() + "abcd";
    {
      SnapshotReader r(bytes);
      EXPECT_TRUE(r.Str().empty());
      EXPECT_FALSE(r.ok());
    }
    {
      SnapshotReader r(bytes);
      EXPECT_TRUE(r.VecU8().empty());
      EXPECT_FALSE(r.ok());
    }
    {
      SnapshotReader r(bytes);
      EXPECT_TRUE(r.VecI32().empty());
      EXPECT_FALSE(r.ok());
    }
  }
}

TEST(SnapshotFileTest, WriteThenReadBack) {
  std::string path = TempPath("roundtrip.snap");
  ASSERT_EQ(WriteSnapshotFile(path, kMagic, kVersion, SamplePayload()),
            SnapshotStatus::kOk);
  SnapshotFile file;
  ASSERT_EQ(ReadSnapshotFile(path, kMagic, kVersion, kVersion, &file),
            SnapshotStatus::kOk);
  EXPECT_EQ(file.version, kVersion);
  EXPECT_EQ(file.payload, SamplePayload());
  // No stray temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(SnapshotFileTest, EveryTruncationPrefixIsDetected) {
  std::string path = TempPath("trunc.snap");
  ASSERT_EQ(WriteSnapshotFile(path, kMagic, kVersion, SamplePayload()),
            SnapshotStatus::kOk);
  const std::string full = SlurpFile(path);
  std::string cut_path = TempPath("trunc_cut.snap");
  for (size_t cut = 0; cut < full.size(); ++cut) {
    DumpFile(cut_path, full.substr(0, cut));
    SnapshotFile file;
    SnapshotStatus s =
        ReadSnapshotFile(cut_path, kMagic, kVersion, kVersion, &file);
    EXPECT_NE(s, SnapshotStatus::kOk) << "cut=" << cut;
  }
}

TEST(SnapshotFileTest, EverySingleBitFlipIsDetected) {
  // CRC-32 detects all single-bit errors, so this is exhaustive, not
  // probabilistic: flip each bit of the file, expect rejection.
  std::string path = TempPath("flip.snap");
  ASSERT_EQ(WriteSnapshotFile(path, kMagic, kVersion, SamplePayload()),
            SnapshotStatus::kOk);
  const std::string full = SlurpFile(path);
  std::string flip_path = TempPath("flip_cut.snap");
  for (size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      DumpFile(flip_path, mutated);
      SnapshotFile file;
      SnapshotStatus s =
          ReadSnapshotFile(flip_path, kMagic, kVersion, kVersion, &file);
      EXPECT_NE(s, SnapshotStatus::kOk)
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(SnapshotFileTest, VersionSkewAndMagicMismatchAreTyped) {
  std::string path = TempPath("skew.snap");
  ASSERT_EQ(WriteSnapshotFile(path, kMagic, kVersion + 1, SamplePayload()),
            SnapshotStatus::kOk);
  SnapshotFile file;
  // An intact snapshot from a newer writer: kBadVersion, not a CRC error —
  // the caller can tell "upgrade me" from "disk rot".
  EXPECT_EQ(ReadSnapshotFile(path, kMagic, kVersion, kVersion, &file),
            SnapshotStatus::kBadVersion);
  EXPECT_EQ(ReadSnapshotFile(path, kMagic, kVersion, kVersion + 1, &file),
            SnapshotStatus::kOk);
  EXPECT_EQ(ReadSnapshotFile(path, kMagic ^ 1, kVersion, kVersion + 1, &file),
            SnapshotStatus::kBadMagic);
  EXPECT_EQ(ReadSnapshotFile(TempPath("no_such_file"), kMagic, kVersion,
                             kVersion, &file),
            SnapshotStatus::kNotFound);
}

TEST(SnapshotFileTest, RotationFallsBackToPreviousGeneration) {
  std::string path = TempPath("rotate.snap");
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  ASSERT_EQ(CommitSnapshotWithRotation(path, kMagic, kVersion, "gen one"),
            SnapshotStatus::kOk);
  ASSERT_EQ(CommitSnapshotWithRotation(path, kMagic, kVersion, "gen two"),
            SnapshotStatus::kOk);

  LoadedSnapshot intact =
      LoadSnapshotWithFallback(path, kMagic, kVersion, kVersion);
  ASSERT_EQ(intact.status, SnapshotStatus::kOk);
  EXPECT_EQ(intact.generation, 0);
  EXPECT_EQ(intact.file.payload, "gen two");

  // Corrupt the current generation: deterministic fallback to .prev.
  std::string bytes = SlurpFile(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  DumpFile(path, bytes);
  LoadedSnapshot fallback =
      LoadSnapshotWithFallback(path, kMagic, kVersion, kVersion);
  ASSERT_EQ(fallback.status, SnapshotStatus::kOk);
  EXPECT_EQ(fallback.generation, 1);
  EXPECT_EQ(fallback.file.payload, "gen one");
  EXPECT_NE(fallback.current_status, SnapshotStatus::kOk);

  // Corrupt both: clean-start signal, with the current file's status kept.
  std::string prev_bytes = SlurpFile(path + ".prev");
  DumpFile(path + ".prev", prev_bytes.substr(0, prev_bytes.size() - 3));
  LoadedSnapshot dead =
      LoadSnapshotWithFallback(path, kMagic, kVersion, kVersion);
  EXPECT_NE(dead.status, SnapshotStatus::kOk);
}

JobCheckpoint SampleCheckpoint() {
  JobCheckpoint cp;
  cp.fingerprint = 0xFEEDFACECAFEBEEFull;
  cp.phase = 2;  // kCollect
  cp.questions = 17;
  cp.iterations = 5;
  cp.requeued_questions = 3;
  cp.degraded_questions = 1;
  cp.checkpoints_written = 21;
  cp.resumed = 1;
  cp.assignment_seconds = 0.25;
  cp.rng_state = "1234 5678 90";
  cp.coloring_state = std::string("\x01\x02\x03", 3);
  cp.selector_state = "";
  cp.oracle_state = std::string("\x00\xFF", 2);
  cp.batch = {4, 9, 2};
  cp.questions_flat = {0, 1, 2, 3, 4, 5};
  cp.votes_flat = {3, 5, 0, 0, 4, 5};
  cp.unanswered = {1};
  cp.attempt = 1;
  cp.question_trace = {0, 1, 2, 3, 4, 5, 0, 1};
  return cp;
}

TEST(JobCheckpointCodecTest, RoundTrip) {
  JobCheckpoint cp = SampleCheckpoint();
  JobCheckpoint back;
  ASSERT_TRUE(DecodeJobCheckpoint(EncodeJobCheckpoint(cp), &back));
  EXPECT_EQ(back.fingerprint, cp.fingerprint);
  EXPECT_EQ(back.phase, cp.phase);
  EXPECT_EQ(back.questions, cp.questions);
  EXPECT_EQ(back.iterations, cp.iterations);
  EXPECT_EQ(back.requeued_questions, cp.requeued_questions);
  EXPECT_EQ(back.degraded_questions, cp.degraded_questions);
  EXPECT_EQ(back.checkpoints_written, cp.checkpoints_written);
  EXPECT_EQ(back.resumed, cp.resumed);
  EXPECT_DOUBLE_EQ(back.assignment_seconds, cp.assignment_seconds);
  EXPECT_EQ(back.rng_state, cp.rng_state);
  EXPECT_EQ(back.coloring_state, cp.coloring_state);
  EXPECT_EQ(back.selector_state, cp.selector_state);
  EXPECT_EQ(back.oracle_state, cp.oracle_state);
  EXPECT_EQ(back.batch, cp.batch);
  EXPECT_EQ(back.questions_flat, cp.questions_flat);
  EXPECT_EQ(back.votes_flat, cp.votes_flat);
  EXPECT_EQ(back.unanswered, cp.unanswered);
  EXPECT_EQ(back.attempt, cp.attempt);
  EXPECT_EQ(back.question_trace, cp.question_trace);
}

TEST(JobCheckpointCodecTest, EveryTruncationPrefixFailsDecode) {
  std::string payload = EncodeJobCheckpoint(SampleCheckpoint());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    JobCheckpoint out;
    EXPECT_FALSE(DecodeJobCheckpoint(payload.substr(0, cut), &out))
        << "cut=" << cut;
  }
  // Trailing garbage is a decode error too (AtEnd discipline).
  JobCheckpoint out;
  EXPECT_FALSE(DecodeJobCheckpoint(payload + "x", &out));
}

TEST(JobCheckpointCodecTest, RandomMutationsNeverCrashDecode) {
  // Decode of mutated payloads may legitimately succeed (a flipped counter
  // bit is the file-layer CRC's job to catch) but must never crash,
  // over-allocate, or return a structurally inconsistent checkpoint.
  std::string payload = EncodeJobCheckpoint(SampleCheckpoint());
  std::mt19937 rng(20260810);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = payload;
    int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      size_t at = rng() % mutated.size();
      mutated[at] = static_cast<char>(rng());
    }
    JobCheckpoint out;
    if (DecodeJobCheckpoint(mutated, &out)) {
      // The decoder's structural invariants must hold on anything it
      // accepts — these are what the resume path relies on.
      EXPECT_EQ(out.questions_flat.size(), 2 * out.batch.size());
      EXPECT_EQ(out.votes_flat.size(), 2 * out.batch.size());
      EXPECT_LE(out.phase, 4);
      for (int slot : out.unanswered) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(static_cast<size_t>(slot), out.batch.size());
      }
      EXPECT_EQ(out.question_trace.size() % 2, 0u);
    }
  }
}

TEST(CorruptedCheckpointEndToEndTest, DegradesToCleanStartNotWrongAnswer) {
  // The acceptance scenario: a job crashes, its checkpoint (both
  // generations) rots on disk, the restarted job must warn, start clean,
  // and still produce the exact uninterrupted-run result.
  Table table = PaperExampleTable();
  const auto pairs = PaperExamplePairs();
  PowerConfig config;
  config.num_threads = 1;
  std::string path = TempPath("e2e.snap");

  CrowdOracle ref_oracle(&table, Band90(), WorkerModel::kExactAccuracy, 5, 7);
  PowerResult want = PowerFramework(config).RunOnPairs(pairs, &ref_oracle);

  config.checkpoint_path = path;
  CheckpointStore(path).Clear();
  CrowdOracle oracle(&table, Band90(), WorkerModel::kExactAccuracy, 5, 7);
  {
    RunOnPairsJob job(config, pairs, &oracle);
    for (int s = 0; s < 6; ++s) ASSERT_TRUE(job.Step());
    job.SimulateCrashForTest();
  }
  // Rot both generations in distinct ways: bit flip + truncation.
  std::string cur = SlurpFile(path);
  cur[cur.size() - 1] = static_cast<char>(cur[cur.size() - 1] ^ 0x10);
  DumpFile(path, cur);
  std::string prev = SlurpFile(path + ".prev");
  DumpFile(path + ".prev", prev.substr(0, prev.size() / 2));

  CrowdOracle oracle2(&table, Band90(), WorkerModel::kExactAccuracy, 5, 7);
  RunOnPairsJob job(config, pairs, &oracle2);
  EXPECT_FALSE(job.resumed()) << "resumed from a corrupted checkpoint";
  while (job.Step()) {
  }
  PowerResult got = job.Finish();
  EXPECT_EQ(got.resumed, 0u);
  EXPECT_EQ(got.questions, want.questions);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.matched_pairs, want.matched_pairs);
}

}  // namespace
}  // namespace power
