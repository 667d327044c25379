#!/usr/bin/env python3
"""Fixture test for scripts/power_lint.py (ctest target power_lint_test).

Proves the lint (1) passes the real tree, (2) flags each rule on a seeded
violation and accepts the corrected form (fail-before / pass-after), (3)
honors allow() suppressions and flags stale ones, (4) sees through typedef /
using renames of banned types, (5) keeps engine parity between --mode=regex
and whatever --mode=auto selects, and (6) exits 3 (tool missing, not lint
failure) when --mode=ast is requested without libclang — so a silent
regression in the checker (never firing again) cannot pass the gate.
"""

import os
import subprocess
import sys
import tempfile

REPO = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "scripts", "power_lint.py")

FAILURES = []


def run_lint(args):
    proc = subprocess.run(
        [sys.executable, LINT, "--compile-commands", "/nonexistent"] + args,
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(name, cond, detail=""):
    if cond:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name}: {detail}")
        FAILURES.append(name)


def fixture(files):
    """Writes {relpath: content} under a temp dir; returns (tmpdir, roots)."""
    tmp = tempfile.mkdtemp(prefix="power_lint_fix_")
    roots = set()
    for rel, content in files.items():
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
        roots.add(os.path.join(tmp, rel.split(os.sep)[0].split("/")[0]))
    return tmp, sorted(roots)


def check_fixture(name, files, expect_code, expect_rules=(),
                  forbid_rules=(), extra_args=None):
    _, roots = fixture(files)
    code, out = run_lint((extra_args or []) + roots)
    expect(f"{name}: exit {expect_code}", code == expect_code,
           f"got {code}\n{out}")
    for rule in expect_rules:
        expect(f"{name}: {rule} fires", f"[{rule}]" in out, out)
    for rule in forbid_rules:
        expect(f"{name}: {rule} silent", f"[{rule}]" not in out, out)
    return out


def libclang_available():
    probe = ("import sys\n"
             "sys.path.insert(0, %r)\n"
             "from power_lint import load_libclang\n"
             "cx, _ = load_libclang()\n"
             "sys.exit(0 if cx is not None else 1)\n"
             % os.path.join(REPO, "scripts"))
    return subprocess.run([sys.executable, "-c", probe],
                          capture_output=True).returncode == 0


VIOLATIONS = """\
#include <chrono>
#include <ctime>
#include <thread>
#include <unordered_map>

void Bad() {
  std::unordered_map<int, int> counts;
  for (const auto& [k, v] : counts) {  // hash-order leak
    (void)k;
  }
  unsigned seed = time(nullptr);
  (void)seed;
  std::thread t([] {});
  t.join();
  auto deadline = std::chrono::steady_clock::now();  // wall-clock read
  (void)deadline;
  __m256i sum = _mm256_add_epi64(sum, sum);  // intrinsic outside simd_kernels
  (void)sum;
}
"""

SUPPRESSED = """\
#include <unordered_map>

int Ok() {
  std::unordered_map<int, int> counts;
  int total = 0;
  // power-lint: allow(unordered-iter) — integer sum, order-insensitive.
  for (const auto& [k, v] : counts) total += v;
  return total;
}
"""

TYPEDEF_RENAME = """\
#include <unordered_map>

// The acceptance fixture of the AST rewrite: the banned type hides behind a
// typedef and a using alias; spelling-based greps miss both.
typedef std::unordered_map<int, int> CountsT;
using CountsU = std::unordered_map<int, long>;

int LeakT(const CountsT& m) {
  int s = 0;
  for (const auto& [k, v] : m) s += v;  // hash-order leak through typedef
  return s;
}

long LeakU() {
  CountsU m;
  long s = 0;
  for (const auto& [k, v] : m) s += v;  // hash-order leak through using
  return s;
}
"""

FLOAT_REDUCE_BAD = """\
#include "util/parallel.h"

double SharedAccumulator(int n) {
  double sum = 0.0;
  power::ParallelFor(0, n, 64, [&](long b, long e) {
    for (long i = b; i < e; ++i) sum += 1.0 / (i + 1);  // racy, order-dep
  });
  return sum;
}
"""

FLOAT_REDUCE_GOOD = """\
#include <vector>

#include "util/parallel.h"

double ChunkedReduce(int n) {
  const long grain = 64;
  std::vector<double> partial(power::NumChunks(0, n, grain), 0.0);
  power::ParallelForChunked(0, n, grain, [&](size_t c, long b, long e) {
    double local = 0.0;  // lambda-local accumulator: fine
    for (long i = b; i < e; ++i) local += 1.0 / (i + 1);
    partial[c] = local;
  });
  double sum = 0.0;
  for (double p : partial) sum += p;  // folded in chunk order, serial
  return sum;
}
"""

FLOAT_REDUCE_ALLOWED = """\
#include "util/parallel.h"

double JustifiedAccumulator(int n) {
  double hits = 0.0;
  power::ParallelFor(0, n, 64, [&](long b, long e) {
    // Counting whole numbers below 2^53: addition is exact, order-free.
    hits += e - b;  // power-lint: allow(float-reduce)
  });
  return hits;
}
"""

TASK_NOEXCEPT_BAD = """\
#include <string>
#include <vector>

#include "util/parallel.h"

void Risky(const std::vector<std::string>& rows, std::vector<int>* out) {
  power::ParallelFor(0, rows.size(), 64, [&](long b, long e) {
    for (long i = b; i < e; ++i) {
      (*out)[i] = std::stoi(rows.at(i));  // both throw; task is noexcept
      if ((*out)[i] < 0) throw 42;
    }
  });
}
"""

TASK_NOEXCEPT_GOOD = """\
#include <string>
#include <vector>

#include "util/parallel.h"

void Safe(const std::vector<std::string>& rows, std::vector<int>* out) {
  // Pre-validate serially; the pool tasks only index in-bounds.
  power::ParallelFor(0, rows.size(), 64, [&](long b, long e) {
    for (long i = b; i < e; ++i) (*out)[i] = (int)rows[i].size();
  });
}
"""

ENV_READ_BAD = """\
#include <cstdlib>

int Threads() {
  const char* raw = std::getenv("POWER_THREADS");
  return raw ? atoi(raw) : 0;  // silent 0 on malformed input
}
"""

ENV_READ_HOME = """\
#include <cstdlib>

namespace power {
const char* EnvRaw(const char* name) { return std::getenv(name); }
}  // namespace power
"""

STALE_ALLOW = """\
int Fine(int x) {
  // power-lint: allow(raw-random) — nothing random here anymore.
  return x + 1;
}
"""

RAW_IO_BAD = """\
#include <cstdio>
#include <fcntl.h>
#include <fstream>

void Persist(const char* path) {
  std::ofstream out(path);  // tear-on-crash write outside the snapshot layer
  out << 42;
  FILE* f = std::fopen(path, "w");
  (void)f;
  int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  (void)fd;
}
"""

RAW_IO_READONLY = """\
#include <cstdio>
#include <fcntl.h>
#include <fstream>

void Load(const char* path) {
  std::ifstream in(path);              // reads are fine
  FILE* f = std::fopen(path, "rb");    // read-only mode: fine
  (void)f;
  int fd = ::open(path, O_RDONLY);     // no write flag: fine
  (void)fd;
}
"""

RAW_IO_HOME = """\
#include <fcntl.h>

namespace power {
int CommitFd(const char* tmp) {
  return ::open(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
}
}  // namespace power
"""


def main():
    # 1. The real tree is clean.
    code, out = run_lint([])
    expect("real tree clean", code == 0, out)
    expect("summary table present", "power-lint summary" in out, out)
    expect("summary lists every rule",
           all(r in out for r in ("unordered-iter", "float-reduce",
                                  "task-noexcept", "env-read", "raw-io",
                                  "stale-allow")), out)

    # 2. A seeded fixture trips every ported rule.
    out = check_fixture(
        "violations", {"src/bad.cc": VIOLATIONS}, 1,
        expect_rules=("unordered-iter", "raw-random", "naked-thread",
                      "wall-clock", "raw-simd"))

    # 3. allow() suppresses, and a used allow is not reported stale.
    check_fixture("suppression", {"src/ok.cc": SUPPRESSED}, 0,
                  forbid_rules=("unordered-iter", "stale-allow"))

    # 4. Sanctioned homes are exempt.
    check_fixture("simd home exempt", {
        "src/sim/simd_kernels_avx2.cc":
            "__m256i V(__m256i a) { return _mm256_add_epi64(a, a); }\n"}, 0)

    # 5. Typedef / using renames of unordered containers cannot slip through
    #    (the acceptance fixture of the v2 rewrite).
    out = check_fixture("typedef rename", {"src/renamed.cc": TYPEDEF_RENAME},
                        1, expect_rules=("unordered-iter",))
    expect("typedef rename: both aliases caught",
           out.count("[unordered-iter]") >= 2, out)

    # 6. float-reduce: shared FP accumulator in a pool lambda fails; the
    #    chunk-indexed reduce passes; a justified allow() passes and is not
    #    stale.
    check_fixture("float-reduce bad", {"src/reduce.cc": FLOAT_REDUCE_BAD}, 1,
                  expect_rules=("float-reduce",))
    check_fixture("float-reduce good", {"src/reduce.cc": FLOAT_REDUCE_GOOD},
                  0, forbid_rules=("float-reduce",))
    check_fixture("float-reduce allowed",
                  {"src/reduce.cc": FLOAT_REDUCE_ALLOWED}, 0,
                  forbid_rules=("float-reduce", "stale-allow"))
    # bench/ is policed too (benches feed reported numbers).
    check_fixture("float-reduce bench scope",
                  {"bench/reduce.cc": FLOAT_REDUCE_BAD}, 1,
                  expect_rules=("float-reduce",))

    # 7. task-noexcept: throw / .at() / std::sto* inside pool lambdas fail;
    #    the pre-validated form passes.
    out = check_fixture("task-noexcept bad",
                        {"src/task.cc": TASK_NOEXCEPT_BAD}, 1,
                        expect_rules=("task-noexcept",))
    check_fixture("task-noexcept good", {"src/task.cc": TASK_NOEXCEPT_GOOD},
                  0, forbid_rules=("task-noexcept",))

    # 8. env-read: raw getenv/atoi in src/ fails; util/env.{h,cc} is the
    #    sanctioned home; tests/ are out of scope.
    check_fixture("env-read bad", {"src/knobs.cc": ENV_READ_BAD}, 1,
                  expect_rules=("env-read",))
    check_fixture("env-read home exempt",
                  {"src/util/env.cc": ENV_READ_HOME}, 0,
                  forbid_rules=("env-read",))
    check_fixture("env-read tests out of scope",
                  {"tests/helper.cc": ENV_READ_BAD}, 0,
                  forbid_rules=("env-read",))

    # 9. raw-io: ad-hoc writes in src/ fail; read-only opens pass;
    #    util/snapshot.{h,cc} is the sanctioned home; bench/ report emitters
    #    are out of scope.
    out = check_fixture("raw-io bad", {"src/persist.cc": RAW_IO_BAD}, 1,
                        expect_rules=("raw-io",))
    expect("raw-io: all three write forms caught",
           out.count("[raw-io]") >= 3, out)
    check_fixture("raw-io read-only passes",
                  {"src/load.cc": RAW_IO_READONLY}, 0,
                  forbid_rules=("raw-io",))
    check_fixture("raw-io home exempt",
                  {"src/util/snapshot.cc": RAW_IO_HOME}, 0,
                  forbid_rules=("raw-io",))
    check_fixture("raw-io bench out of scope", {
        "bench/report.cc":
            '#include <cstdio>\n'
            'void Dump(const char* p) { (void)std::fopen(p, "w"); }\n'}, 0,
        forbid_rules=("raw-io",))

    # 10. stale-allow: an allow() that suppresses nothing is itself an error.
    check_fixture("stale allow", {"src/fine.cc": STALE_ALLOW}, 1,
                  expect_rules=("stale-allow",))

    # 11. Engine selection: --regex-fallback is a working alias; --mode=ast
    #     without libclang exits 3 (tool missing — distinct from findings);
    #     with libclang, auto and regex agree on the fixtures (parity).
    tmp, roots = fixture({"src/renamed.cc": TYPEDEF_RENAME})
    code, out = run_lint(["--regex-fallback"] + roots)
    expect("regex-fallback alias works",
           code == 1 and "[unordered-iter]" in out, out)
    have_ast = libclang_available()
    code, out = run_lint(["--mode=ast"] + roots)
    if have_ast:
        expect("ast mode flags typedef rename",
               code == 1 and "[unordered-iter]" in out, out)
        code_r, out_r = run_lint(["--mode=regex"] + roots)

        def findings_of(text):
            return sorted(l.split(" ")[0] + l.split("[")[1].split("]")[0]
                          for l in text.splitlines() if "] " in l and
                          ": [" in l)

        expect("engine parity on typedef fixture",
               findings_of(out) == findings_of(out_r),
               f"ast={findings_of(out)} regex={findings_of(out_r)}")
    else:
        expect("ast mode exits 3 when libclang missing", code == 3, out)
        expect("ast-missing notice names the fallback",
               "--regex-fallback" in out, out)

    # 12. Wall-time budget: exceeding it is a failure (exit 1), reported in
    #     the output.
    code, out = run_lint(["--budget-seconds", "0.000001"] + roots)
    expect("budget overrun fails", code == 1 and "budget" in out, out)

    if FAILURES:
        print(f"{len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("all power-lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
