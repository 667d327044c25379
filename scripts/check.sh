#!/usr/bin/env bash
# Repo check gate, one leg per build tree:
#   main  (build/)       regular build + full ctest suite;
#   tsan  (build-tsan/)  ThreadSanitizer over the parallel differential,
#                        determinism, fuzz, and pool tests (the PR gate for
#                        every change touching util/parallel.h or a pooled
#                        hot path);
#   asan  (build-asan/)  ASan+UBSan (POWER_SANITIZE=address) over the full
#                        suite, the examples' er_cli entries included —
#                        memory errors and UB at -O0-ish codegen;
#   ubsan (build-ubsan/) UBSan alone (POWER_SANITIZE=undefined) at -O2 over
#                        the full suite — integer overflow / bad shifts in
#                        optimized codegen, which the asan tree's different
#                        codegen can mask;
#   faults (build-asan/) the fault-injection suite (ctest -L fault: the
#                        marketplace fault model, requester retry/backoff,
#                        and the FaultSweep grid) under ASan+UBSan — failure
#                        paths allocate and free along routes the happy path
#                        never takes;
#   crash  (build-asan/) the durability suite (ctest -L crash: snapshot
#                        corruption fuzz, the in-process checkpoint/resume
#                        sweep, and the subprocess POWER_CRASH_AT kill-point
#                        harness) under ASan+UBSan — corrupted-snapshot
#                        handling must be allocation-clean, never UB;
#   lint                 scripts/lint.sh (clang-tidy when available, always
#                        power-lint).
#
# Default run: main + tsan (the historical gate). Opt into the rest:
#   scripts/check.sh --asan          main + tsan + asan
#   scripts/check.sh --ubsan         main + tsan + ubsan
#   scripts/check.sh --faults        main + tsan + faults
#   scripts/check.sh --crash         main + tsan + crash
#   scripts/check.sh --lint          main + tsan + lint
#   scripts/check.sh --all           everything
#   scripts/check.sh --tsan-only     tsan only
#   scripts/check.sh --no-tsan       main only
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_MAIN=1
RUN_TSAN=1
RUN_ASAN=0
RUN_UBSAN=0
RUN_FAULTS=0
RUN_CRASH=0
RUN_LINT=0
for flag in "$@"; do
  case "$flag" in
    --tsan-only) RUN_MAIN=0 ;;
    --no-tsan) RUN_TSAN=0 ;;
    --asan) RUN_ASAN=1 ;;
    --ubsan) RUN_UBSAN=1 ;;
    --faults) RUN_FAULTS=1 ;;
    --crash) RUN_CRASH=1 ;;
    --lint) RUN_LINT=1 ;;
    --all) RUN_ASAN=1; RUN_UBSAN=1; RUN_FAULTS=1; RUN_CRASH=1; RUN_LINT=1 ;;
    *) echo "unknown flag: $flag" >&2; exit 2 ;;
  esac
done

# POWER_SANITIZE=address / POWER_SANITIZE=undefined in the environment force
# the corresponding leg on (CI matrix entries use this instead of flags).
case "${POWER_SANITIZE:-}" in
  address) RUN_ASAN=1 ;;
  undefined) RUN_UBSAN=1 ;;
esac

# The parallel harness: differential (parallel output == serial output),
# determinism (PowerResult independent of num_threads), the coloring fuzz
# suite on parallel-built graphs, the ParallelFor/ThreadPool unit tests, the
# selection-loop trace suite (incremental ask-and-color loop == legacy
# scan-based reference at 1/2/8 threads, over the parallel CSR freeze), the
# feature-cache differential (cached similarity front end == legacy string
# path, bit for bit, at 1/2/8 threads — its build is itself a pooled hot
# path), the bit-parallel edit-distance fuzz suite, and the FaultSweep grid
# (fault-injected serve loops must stay byte-identical at 1/2/8 threads),
# plus the SIMD differential layer (scalar vs AVX2 kernels and the dispatch
# invariance suite — dispatch resolution itself is a racy first-call CAS),
# and bench_scale_smoke (the 10k end-to-end scale run, whose prefix-join
# probes and all-pairs scan both run on the pool; the join's own
# differential against the scan is ParallelPrefixJoinDifferential, matched
# by Parallel), and the similarity-table suites (the pooled table fill ==
# the single-pair path, bit for bit, at 1/2/8 threads, and the job over
# the table == the job over packed pairs).
# ctest filters by gtest-discovered *test* names, not binary names.
PARALLEL_TESTS='Parallel|ColoringFuzz|SelectionLoop|FeatureCache|SimilarityTable|EditDistanceFuzz|FaultSweep|SimdKernels|SimdDispatch|bench_scale_smoke'

if [[ "$RUN_MAIN" == 1 ]]; then
  echo "== build (default flags) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" >/dev/null
  echo "== ctest (full suite) =="
  (cd build && ctest --output-on-failure -j "$(nproc)")
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== build (ThreadSanitizer) =="
  # Benchmarks stay ON here (unlike the other sanitizer trees) so the
  # bench_scale_smoke leg of the regex exists to run; the explicit ON
  # overrides any stale OFF cached in an existing build-tsan tree.
  cmake -B build-tsan -S . \
    -DPOWER_SANITIZE=thread \
    -DPOWER_BUILD_BENCHMARKS=ON \
    -DPOWER_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan -j "$(nproc)" >/dev/null
  echo "== ctest (parallel suite under TSan) =="
  # Exercise the pool beyond any single test's thread count.
  (cd build-tsan && POWER_THREADS=8 ctest --output-on-failure -j 2 \
      --tests-regex "$PARALLEL_TESTS")
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== build (ASan+UBSan) =="
  # Examples stay ON in build-asan (every leg that configures it says so),
  # so the er_cli entries, the hostile table CSVs among them, run under
  # ASan+UBSan; the explicit ON overrides a stale OFF in an existing tree.
  cmake -B build-asan -S . \
    -DPOWER_SANITIZE=address \
    -DPOWER_BUILD_BENCHMARKS=OFF \
    -DPOWER_BUILD_EXAMPLES=ON >/dev/null
  cmake --build build-asan -j "$(nproc)" >/dev/null
  echo "== ctest (full suite under ASan+UBSan) =="
  (cd build-asan && \
      ASAN_OPTIONS=detect_leaks=1 \
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --output-on-failure -j "$(nproc)")
fi

if [[ "$RUN_UBSAN" == 1 ]]; then
  echo "== build (UBSan @ -O2) =="
  # Default build type (RelWithDebInfo, -O2): UBSan is cheap enough to ride
  # on optimized codegen, which is the point of this leg.
  cmake -B build-ubsan -S . \
    -DPOWER_SANITIZE=undefined \
    -DPOWER_BUILD_BENCHMARKS=OFF \
    -DPOWER_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-ubsan -j "$(nproc)" >/dev/null
  echo "== ctest (full suite under UBSan) =="
  (cd build-ubsan && \
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --output-on-failure -j "$(nproc)")
fi

if [[ "$RUN_FAULTS" == 1 ]]; then
  echo "== build (ASan+UBSan, fault suite) =="
  cmake -B build-asan -S . \
    -DPOWER_SANITIZE=address \
    -DPOWER_BUILD_BENCHMARKS=OFF \
    -DPOWER_BUILD_EXAMPLES=ON >/dev/null
  cmake --build build-asan -j "$(nproc)" >/dev/null
  echo "== ctest (fault-injection suite under ASan+UBSan) =="
  # -L before -j: were -j ever left without its count, ctest would eat "-L"
  # as -j's argument and silently run the full suite instead of the label.
  (cd build-asan && \
      ASAN_OPTIONS=detect_leaks=1 \
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --output-on-failure -L fault -j "$(nproc)")
fi

if [[ "$RUN_CRASH" == 1 ]]; then
  echo "== build (ASan+UBSan, crash/durability suite) =="
  cmake -B build-asan -S . \
    -DPOWER_SANITIZE=address \
    -DPOWER_BUILD_BENCHMARKS=OFF \
    -DPOWER_BUILD_EXAMPLES=ON >/dev/null
  cmake --build build-asan -j "$(nproc)" >/dev/null
  echo "== ctest (crash/durability suite under ASan+UBSan) =="
  # The kill point is std::_Exit, which skips LSan's atexit hook — the crash
  # children can't leak-report, and the resumed/reference children still do.
  (cd build-asan && \
      ASAN_OPTIONS=detect_leaks=1 \
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --output-on-failure -L crash -j "$(nproc)")
fi

if [[ "$RUN_LINT" == 1 ]]; then
  echo "== lint (clang-tidy + power-lint) =="
  # power-lint prints its per-rule summary table (findings/suppressed per
  # rule, engine, wall time) on stderr; lint.sh distinguishes findings
  # (exit 1, propagated here) from missing tooling (skip with notice).
  scripts/lint.sh
  echo "== knob-table drift (gen_env_table --check) =="
  python3 scripts/gen_env_table.py --check
fi

echo "OK"
