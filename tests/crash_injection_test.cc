// Subprocess crash-injection sweep: the POWER_CRASH_AT kill point really
// kills the whole process (std::_Exit(kCrashExitCode) — no destructors, no
// flushes, exactly what a power cut leaves on disk), and a fresh process
// resumed against the surviving checkpoint finishes with a result file
// byte-identical to an uninterrupted reference process.
//
// The child re-executes this very test binary (/proc/self/exe) filtered to
// CrashInjectionChild.RunJob, parameterized entirely through the
// environment. The crowd is a CrowdOracle: its votes are a pure function of
// (seed, pair), so both processes of a crash/resume pair see the same
// marketplace without any shared in-memory state. (The in-process sweep in
// checkpoint_resume_test.cc covers the complementary model — a live
// platform that survives the requester's death.)
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/power.h"
#include "crowd/answer_cache.h"
#include "data/paper_example.h"
#include "sim/pair.h"

namespace power {
namespace {

// ---------------------------------------------------------------------------
// Child side.
// ---------------------------------------------------------------------------

PowerConfig ChildConfig(SelectorKind kind) {
  PowerConfig config;
  config.selector = kind;
  config.num_threads = 1;
  return config;  // checkpoint path arrives via POWER_CHECKPOINT
}

bool ParseSelector(const std::string& name, SelectorKind* out) {
  for (SelectorKind kind :
       {SelectorKind::kRandom, SelectorKind::kSinglePath,
        SelectorKind::kMultiPath, SelectorKind::kTopoSort}) {
    if (name == SelectorKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

// Every field identity is judged on, in a fixed text format so the parent
// can compare result files byte-for-byte.
std::string ResultFingerprint(const PowerResult& r) {
  std::ostringstream out;
  out << "questions=" << r.questions << "\n";
  out << "iterations=" << r.iterations << "\n";
  out << "requeued=" << r.requeued_questions << "\n";
  out << "degraded=" << r.degraded_questions << "\n";
  out << "checkpoints=" << r.checkpoints_written << "\n";
  out << "blue_groups=" << r.num_blue_groups << "\n";
  std::set<uint64_t> matched(r.matched_pairs.begin(), r.matched_pairs.end());
  out << "matched=";
  for (uint64_t key : matched) out << key << ",";
  out << "\n";
  return out.str();
}

// Parent-driven only: skips (exit 0) in a normal suite run. With
// POWER_CRASH_AT armed in the environment the process dies mid-run with
// kCrashExitCode and never reaches the result write.
TEST(CrashInjectionChild, RunJob) {
  const char* result_path = std::getenv("POWER_CRASH_CHILD_RESULT");
  if (result_path == nullptr) {
    GTEST_SKIP() << "child of CrashInjectionTest, not a standalone test";
  }
  const char* selector_name = std::getenv("POWER_CRASH_CHILD_SELECTOR");
  ASSERT_NE(selector_name, nullptr);
  SelectorKind kind = SelectorKind::kTopoSort;
  ASSERT_TRUE(ParseSelector(selector_name, &kind));

  Table table = PaperExampleTable();
  CrowdOracle oracle(&table, Band90(), WorkerModel::kExactAccuracy, 5, 7);
  PowerResult result = PowerFramework(ChildConfig(kind))
                           .RunOnPairs(PaperExamplePairs(), &oracle);
  std::ofstream out(result_path, std::ios::trunc);
  out << ResultFingerprint(result);
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

struct ChildSpec {
  std::string selector;
  std::string checkpoint;  // POWER_CHECKPOINT
  std::string crash_at;    // POWER_CRASH_AT; empty = disarmed
  std::string result;      // POWER_CRASH_CHILD_RESULT
};

// Forks and re-executes this binary filtered to the child test. Returns the
// raw wait() status (check WIFEXITED / WEXITSTATUS at the call site).
int RunChild(const ChildSpec& spec) {
  pid_t pid = fork();
  if (pid == 0) {
    ::setenv("POWER_CRASH_CHILD_RESULT", spec.result.c_str(), 1);
    ::setenv("POWER_CRASH_CHILD_SELECTOR", spec.selector.c_str(), 1);
    ::setenv("POWER_CHECKPOINT", spec.checkpoint.c_str(), 1);
    if (spec.crash_at.empty()) {
      ::unsetenv("POWER_CRASH_AT");
    } else {
      ::setenv("POWER_CRASH_AT", spec.crash_at.c_str(), 1);
    }
    ::execl("/proc/self/exe", "/proc/self/exe",
            "--gtest_filter=CrashInjectionChild.RunJob",
            "--gtest_brief=1", static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing result file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

size_t ParseIterations(const std::string& fingerprint) {
  const std::string key = "iterations=";
  size_t at = fingerprint.find(key);
  EXPECT_NE(at, std::string::npos);
  return static_cast<size_t>(
      std::strtoull(fingerprint.c_str() + at + key.size(), nullptr, 10));
}

// Keyed by the running test's name as well: the tests below reuse tags (the
// kTopoSort reference, "collect:1"), and ctest -j runs them in parallel.
std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "crash_inject_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + tag;
}

// Runs the uninterrupted reference child for `selector`, returning its
// fingerprint. `*rounds` reports how many loop rounds the job ran.
std::string ReferenceFingerprint(const std::string& selector,
                                 size_t* rounds) {
  ChildSpec ref;
  ref.selector = selector;
  ref.checkpoint = TempPath(selector + "_ref.snap");
  ref.result = TempPath(selector + "_ref.txt");
  std::remove(ref.result.c_str());
  CheckpointStore(ref.checkpoint).Clear();
  int status = RunChild(ref);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "reference child failed, status " << status;
  std::string want = ReadFileOrDie(ref.result);
  *rounds = ParseIterations(want);
  EXPECT_GT(*rounds, 0u);
  return want;
}

// One crash/resume cycle at `crash_at`, expecting the crash child to die
// with kCrashExitCode and the resume child to reproduce `want` exactly.
void ExpectCrashThenIdenticalResume(const std::string& selector,
                                    const std::string& crash_at,
                                    const std::string& want) {
  SCOPED_TRACE(selector + " POWER_CRASH_AT=" + crash_at);
  ChildSpec spec;
  spec.selector = selector;
  spec.checkpoint = TempPath(selector + "_" + crash_at + ".snap");
  spec.result = TempPath(selector + "_" + crash_at + ".txt");
  // Sanitize ':' for the filesystem.
  for (char& c : spec.checkpoint) c = (c == ':') ? '-' : c;
  for (char& c : spec.result) c = (c == ':') ? '-' : c;
  std::remove(spec.result.c_str());
  CheckpointStore(spec.checkpoint).Clear();

  spec.crash_at = crash_at;
  int status = RunChild(spec);
  ASSERT_TRUE(WIFEXITED(status)) << "crash child did not exit, status "
                                 << status;
  ASSERT_EQ(WEXITSTATUS(status), kCrashExitCode)
      << "kill point did not fire (did the run finish first?)";
  // The kill is std::_Exit: the result file must NOT exist.
  std::ifstream leaked(spec.result);
  EXPECT_FALSE(leaked.good()) << "crashed child wrote a result";

  spec.crash_at.clear();
  status = RunChild(spec);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "resume child failed, status " << status;
  EXPECT_EQ(ReadFileOrDie(spec.result), want)
      << "resumed run diverged from the uninterrupted reference";
}

TEST(CrashInjectionTest, KillPointSweepResumesByteIdentical) {
  // Full phase sweep on the paper's default selector: first, middle and
  // last round of every phase.
  size_t rounds = 0;
  const std::string selector = SelectorKindName(SelectorKind::kTopoSort);
  std::string want = ReferenceFingerprint(selector, &rounds);
  std::set<size_t> sweep_rounds = {1, (rounds + 1) / 2, rounds};
  for (RunPhase phase : {RunPhase::kSelect, RunPhase::kPost,
                         RunPhase::kCollect, RunPhase::kApply}) {
    for (size_t round : sweep_rounds) {
      ExpectCrashThenIdenticalResume(
          selector,
          std::string(RunPhaseName(phase)) + ":" + std::to_string(round),
          want);
    }
  }
}

TEST(CrashInjectionTest, AllSelectorsSurviveAMidRunKill) {
  for (SelectorKind kind :
       {SelectorKind::kRandom, SelectorKind::kSinglePath,
        SelectorKind::kMultiPath, SelectorKind::kTopoSort}) {
    size_t rounds = 0;
    const std::string selector = SelectorKindName(kind);
    std::string want = ReferenceFingerprint(selector, &rounds);
    ExpectCrashThenIdenticalResume(selector, "collect:1", want);
    if (rounds > 1) {
      ExpectCrashThenIdenticalResume(
          selector, "apply:" + std::to_string(rounds), want);
    }
  }
}

TEST(CrashInjectionTest, MalformedCrashSpecIsDisarmedNotFatal) {
  // A bad POWER_CRASH_AT must warn and run to completion, never kill or
  // corrupt the run.
  size_t rounds = 0;
  const std::string selector = SelectorKindName(SelectorKind::kTopoSort);
  std::string want = ReferenceFingerprint(selector, &rounds);
  for (const char* bad : {"frobnicate:1", "collect", "collect:0",
                          "collect:-3", ":", "done:1"}) {
    SCOPED_TRACE(bad);
    ChildSpec spec;
    spec.selector = selector;
    spec.checkpoint = TempPath("malformed.snap");
    spec.result = TempPath("malformed.txt");
    std::remove(spec.result.c_str());
    CheckpointStore(spec.checkpoint).Clear();
    spec.crash_at = bad;
    int status = RunChild(spec);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "malformed spec killed the run, status " << status;
    EXPECT_EQ(ReadFileOrDie(spec.result), want);
  }
}

}  // namespace
}  // namespace power
