#!/usr/bin/env python3
"""The repository benchmark: entity resolution with a simulated crowd.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-dense --seed 51 --seconds 30 \\
        --trace 0

It builds the `power` library and the measurement program (perfbench.cc)
from source into .bench_build/, runs it on one workload, checks
every run's output, and prints every metric by name and unit. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program makes whole passes over a fixed set of tables generated from the
seed, one repetition of each table per pass, for about --seconds. A metric
is the mean over the tables of each table's median over its repetitions, so
every table weighs the same however many passes fit.

--trace 0 reports the end-to-end metrics, with tracing off: run_s (time of
PowerFramework::Run), setup_s (Table::FromCsv plus the platform and oracle),
peak_rss_mb, and the crowd cost and quality of the run.

run_s and setup_s are CPU seconds on one thread, scaled to the host's speed:
each repetition first times a fixed probe (HostProbe in perfbench.cc, which
uses nothing of the library), and the times are multiplied by
PROBE_REFERENCE_S over the probe's median in the run. On a shared host the
program's CPU time doubles for minutes at a time while other tenants load the
memory they share, which would otherwise swamp any change to the program. The
probe slows somewhat less than the program, so a slow period still raises
the scaled times by 10 to 20%: compare runs whose probe medians are alike.
The unscaled CPU and wall times are printed above the result line.

--trace 1 reports the per-layer metrics, each timed from outside by spans
around the calls into the layers' public entry points. `_s` metrics are busy
wall seconds per table (a span's duration less its children's), unscaled.
`_p50` / `_p99` metrics pool their samples over all repetitions. Where fewer
than ten samples lie beyond the percentile (batch-dense's `_p99` metrics,
since its tables have only a few crowd rounds each), the metric reads the
largest sample instead, because every per-layer metric must have a value.

Operations are crowd questions posted. A question degraded to the machine
answer after exhausting its retries is a failed operation, and so is every
question of a run whose output check fails.

Seeds: 51 is the default (the repository's bench seed). 2016 is held out:
use it only to confirm a claim made on other seeds.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

DEFAULT_SEED = 51

# Knobs that would change what is measured: refuse to run under them.
REFUSED_KNOBS = ("POWER_SHARDS", "POWER_CHECKPOINT", "POWER_CRASH_AT",
                 "POWER_HUGEPAGES", "POWER_VERBOSE")

# Workload name -> what its runs must show, and its smoke-size record count.
WORKLOADS = {
    "batch-dense": {"power_plus": False, "checkpoint": True, "smoke": 3000},
    "crowd-faulty": {"power_plus": True, "checkpoint": False, "smoke": 600},
}

# A run must end within 180 s; leave room for the build check and output.
DEADLINE_S = 170.0

# The host probe's median CPU time on a quiet host: an Intel Xeon (family 6,
# model 207) 4-vCPU KVM guest, GNU 12.2.0, Release. Times are scaled to it.
PROBE_REFERENCE_S = 0.0055

# name -> (unit, better). Order is print order.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "questions": ("count", "lower"),
    "rounds": ("count", "lower"),
    "f1": ("ratio", "higher"),
    "crowd_usd": ("USD", "lower"),
}

PER_LAYER = {
    "data.ingest_s": ("s", "lower"),
    "crowd.setup_s": ("s", "lower"),
    "sim.features_s": ("s", "lower"),
    "sim.vectors_s": ("s", "lower"),
    "sim.rss_mb": ("MB", "lower"),
    "blocking.candidates_s": ("s", "lower"),
    "blocking.pairs": ("count", "lower"),
    "blocking.selectivity": ("ratio", "lower"),
    "blocking.rss_mb": ("MB", "lower"),
    "group.split_s": ("s", "lower"),
    "group.groups": ("count", "lower"),
    "group.pairs_per_group": ("ratio", "higher"),
    "graph.build_s": ("s", "lower"),
    "graph.edges": ("count", "lower"),
    "graph.apply_s": ("s", "lower"),
    "core.job_setup_s": ("s", "lower"),
    "core.job_rss_mb": ("MB", "lower"),
    "core.loop_s": ("s", "lower"),
    "core.commits": ("count", "lower"),
    "core.commit_ms_p50": ("ms", "lower"),
    "core.commit_ms_p99": ("ms", "lower"),
    "core.checkpoint_kb_mean": ("KB", "lower"),
    "core.checkpoint_new_share": ("ratio", "higher"),
    "core.finish_s": ("s", "lower"),
    "core.loop_overhead_s": ("s", "lower"),
    "select.step_s": ("s", "lower"),
    "select.step_ms_p50": ("ms", "lower"),
    "select.step_ms_p99": ("ms", "lower"),
    "select.batch_mean": ("count", "higher"),
    "select.inferred_per_question": ("ratio", "higher"),
    "crowd.ask_s": ("s", "lower"),
    "crowd.posted": ("count", "lower"),
    "platform.hits": ("count", "lower"),
    "platform.reposted": ("count", "lower"),
    "platform.rejected": ("count", "lower"),
    "platform.paid_share": ("ratio", "higher"),
    "platform.clock_hours": ("sim_h", "lower"),
    "platform.backoff_hours": ("sim_h", "lower"),
    "platform.degraded": ("count", "lower"),
    "round_ms_p50": ("ms", "lower"),
    "round_ms_p99": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result (no JSON line is printed)."""


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank q-quantile, or None unless >= 10 samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def percentile_or_max(samples, q):
    """percentile(), falling back to the largest sample (0 with none) when
    too few samples lie beyond the percentile for it to be reported: the
    output format has a number for every metric."""
    value = percentile(samples, q)
    if value is not None:
        return value
    return max(samples) if samples else 0.0


def self_times(spans):
    """Self time of every span: its duration minus its children's. `spans`
    are dicts with start, end, parent (an index into `spans`, or -1), as the
    single-threaded tracer records them: children nest inside their parent
    and do not overlap."""
    result = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] >= 0:
            result[span["parent"]] -= span["end"] - span["start"]
    return result


def self_time_by_name(spans):
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_run(run, reference_pairs, workload):
    """Problems with one run's output (empty when it is correct)."""
    problems = []
    if run["pairs"] != reference_pairs:
        problems.append("candidate pairs %d != reference %d" %
                        (run["pairs"], reference_pairs))
    if run["questions"] > run["groups"]:
        problems.append("questions %d > groups %d" %
                        (run["questions"], run["groups"]))
    if run["questions"] < 1:
        problems.append("no question was posted")
    if run["budget_exhausted"]:
        problems.append("groups left uncolored")
    if (run["blue_groups"] > 0 and not workload["power_plus"]
            and run["degraded"] == 0):
        problems.append("blue groups without Power+")
    if run["resumed"] != 0:
        problems.append("job resumed from a stale checkpoint")
    if workload["checkpoint"] and run["checkpoints"] < 1:
        problems.append("no checkpoint was committed")
    return problems


class DigestMemo:
    """Matched-pair digests by binary, workload, table and size, kept in the
    build tree: every later run of a table, in this process or a later one,
    must match the pairs its first run matched."""

    def __init__(self, path, binary):
        self.path = path
        with open(binary, "rb") as f:
            self.build = hashlib.sha256(f.read()).hexdigest()[:16]
        try:
            with open(path) as f:
                self.entries = json.load(f)
        except (OSError, ValueError):
            self.entries = {}

    def check(self, workload, table_seed, size, digest):
        key = "/".join((self.build, workload, table_seed, size))
        first = self.entries.setdefault(key, digest)
        if first != digest:
            return ["matched-pair digest %s differs from an earlier run's %s"
                    % (digest, first)]
        return []

    def save(self):
        with open(self.path, "w") as f:
            json.dump(self.entries, f)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def mean_of_table_medians(tables, value):
    """The mean over tables of each table's median of value(rep)."""
    return statistics.mean(
        statistics.median(value(rep) for rep in table["reps"])
        for table in tables)


def host_scale(tables):
    """PROBE_REFERENCE_S over the probe's median in the run: how much faster
    the reference host runs the probe than this host did during the run."""
    probes = [rep["probe_s"] for table in tables for rep in table["reps"]]
    return PROBE_REFERENCE_S / statistics.median(probes)


def end_to_end_metrics(tables):
    values = {"setup_s": mean_of_table_medians(tables,
                                               lambda r: r["setup_s"])}
    for name in END_TO_END:
        if name != "setup_s":
            values[name] = mean_of_table_medians(
                tables, lambda r, name=name: r["run"][name])
    scale = host_scale(tables)
    for name in ("run_s", "setup_s"):
        values[name] *= scale
    return values


# Per-layer metrics read as percentiles of samples pooled over all of a
# run's repetitions (the largest sample where too few lie beyond the
# percentile, see percentile_or_max): name -> (sample set, quantile).
PERCENTILES = {
    # Every Step() ends in one checkpoint commit and the post step does
    # nothing else, so post steps time the commits.
    "core.commit_ms_p50": ("post", 0.5),
    "core.commit_ms_p99": ("post", 0.99),
    "select.step_ms_p50": ("select", 0.5),
    "select.step_ms_p99": ("select", 0.99),
    "round_ms_p50": ("gaps", 0.5),
    "round_ms_p99": ("gaps", 0.99),
}


def rep_samples(rep):
    spans = rep["spans"]
    return {
        "post": [d * 1e3 for d in durations(spans, "core.step.post")],
        "select": [d * 1e3 for d in durations(spans, "core.step.select")],
        "gaps": rep["baseline"]["gaps_ms"],
    }


def rep_layer_values(rep):
    """Every per-layer metric but the percentiles, for one repetition."""
    spans = rep["spans"]
    counters = rep["counters"]
    traced = rep["traced"]
    own = self_time_by_name(spans)
    steps = {p: durations(spans, "core.step." + p)
             for p in ("select", "post", "collect", "apply")}
    sizes = counters["checkpoint_bytes"]
    n = counters["records"]
    pairs = counters["blocking.pairs"]
    questions = traced["questions"]
    completed = counters["platform.completed"]
    return {
        "data.ingest_s": own["data.ingest"],
        "crowd.setup_s": own["crowd.setup"],
        "sim.features_s": own["sim.features"],
        "sim.vectors_s": own["sim.vectors"],
        "sim.rss_mb": counters["sim.rss_mb"],
        "blocking.candidates_s": own["blocking.candidates"],
        "blocking.pairs": pairs,
        "blocking.selectivity": pairs / (n * (n - 1) / 2) if n > 1 else 0.0,
        "blocking.rss_mb": counters["blocking.rss_mb"],
        "group.split_s": own["group.split"],
        "group.groups": counters["group.groups"],
        "group.pairs_per_group": pairs / max(1, counters["group.groups"]),
        "graph.build_s": own["graph.build"],
        "graph.edges": counters["graph.edges"],
        "graph.apply_s": sum(steps["apply"]),
        "core.job_setup_s": own["core.job_setup"],
        "core.job_rss_mb": counters["core.job_rss_mb"],
        "core.loop_s": sum(sum(v) for v in steps.values()),
        "core.commits": counters["core.commits"],
        "core.checkpoint_kb_mean":
            statistics.mean(sizes) / 1e3 if sizes else 0.0,
        # File growth over bytes written: how much of each commit is new.
        "core.checkpoint_new_share": sizes[-1] / sum(sizes) if sizes else 0.0,
        "core.finish_s": own["core.finish"],
        "core.loop_overhead_s": own.get("core.step.collect", 0.0),
        "select.step_s": sum(steps["select"]),
        "select.batch_mean": questions / max(1, traced["rounds"]),
        "select.inferred_per_question":
            counters["select.inferred"] / max(1, questions),
        "crowd.ask_s": own.get("crowd.ask", 0.0),
        "crowd.posted": counters["crowd.posted"],
        "platform.hits": counters["platform.hits"],
        "platform.reposted": counters["platform.reposted"],
        "platform.rejected": counters["platform.rejected"],
        "platform.paid_share":
            (completed - counters["platform.rejected"]) / completed
            if completed else 0.0,
        "platform.clock_hours": traced["crowd_hours"],
        "platform.backoff_hours": counters["platform.backoff_hours"],
        "platform.degraded": traced["degraded"],
    }


def trace_overhead(rep):
    """Traced run wall time less the untraced run's, for one repetition (the
    two alternate which goes first)."""
    run_span = next(s for s in rep["spans"] if s["name"] == "run")
    return (run_span["end"] - run_span["start"]) - rep["baseline"]["wall_s"]


def per_layer_metrics(tables):
    """Means over tables of per-table medians; percentiles over the pooled
    samples; the overhead is the median over all repetitions."""
    reps = [rep for table in tables for rep in table["reps"]]
    for rep in reps:
        rep["layers"] = rep_layer_values(rep)
    pooled = {}
    for rep in reps:
        for key, samples in rep_samples(rep).items():
            pooled.setdefault(key, []).extend(samples)
    values = {}
    for name in PER_LAYER:
        if name in PERCENTILES:
            source, q = PERCENTILES[name]
            values[name] = percentile_or_max(pooled[source], q)
        elif name == "trace.overhead_s":
            values[name] = statistics.median(trace_overhead(r) for r in reps)
        else:
            values[name] = mean_of_table_medians(
                tables, lambda r, name=name: r["layers"][name])
    return values


def check_reference(reference, traced):
    """Problems a table's reference shows for all of the table's runs."""
    problems = []
    if not reference["matched_in_reference"]:
        problems.append("a matched pair is not a reference candidate")
    if traced:
        scan, join = reference["all_pairs"], reference["prefix_join"]
        if (scan["pairs"], scan["digest"]) != (join["pairs"],
                                               join["digest"]):
            problems.append("all-pairs and prefix-join references disagree")
    return problems


def check_traced(rep, reference):
    """Problems only a traced repetition can show."""
    problems = []
    counters = rep["counters"]
    if counters["candidate_digest"] != reference["all_pairs"]["digest"]:
        problems.append("traced candidate pairs differ from the reference")
    if rep["baseline"]["matched_digest"] != rep["traced"]["matched_digest"]:
        problems.append("traced and untraced runs matched different pairs")
    if counters["group.groups"] != rep["traced"]["groups"]:
        problems.append("split grouping disagrees with the job's groups")
    if counters["graph.edges"] != rep["traced"]["edges"]:
        problems.append("graph build disagrees with the job's edges")
    if not counters["all_settled"]:
        problems.append("the loop ended with uncolored groups")
    return problems


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures and builds perfbench.cc; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("the library sources (src/) are not in %s" % ROOT)
    out = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        command = ["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_tool(command)
    run_tool(["cmake", "--build", out, "-j", "4"])
    return os.path.join(out, "perfbench")


def run_tool(command, timeout=900):
    # Build output goes to stderr: stdout's last line is the result.
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if done.returncode != 0:
        raise BenchError("%s exited with %d" % (command[0], done.returncode))


def read_output(lines):
    """The program's output as one document: a JSON line per repetition
    ({"table": k, "rep": ...}), then the summary, whose tables get their
    repetitions as "reps"."""
    records = [json.loads(line) for line in lines]
    doc = records.pop()
    for table in doc["tables"]:
        table["reps"] = []
    for record in records:
        doc["tables"][record["table"]]["reps"].append(record["rep"])
    return doc


def run_binary(binary, args, deadline):
    work = os.path.join(build_root(), "perfbench-run")
    os.makedirs(work, exist_ok=True)
    tag = "%s-%d" % (args.workload, os.getpid())
    out = os.path.join(work, tag + ".json")
    checkpoint = os.path.join(work, tag + ".ckpt")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--mode", "traced" if args.trace else "timed",
               "--seconds", str(args.seconds), "--out", out,
               "--checkpoint", checkpoint]
    if args.smoke:
        command += ["--records", str(WORKLOADS[args.workload]["smoke"]),
                    "--tables", "2"]
    try:
        run_tool(command, timeout=max(1.0, deadline - time.monotonic()))
        with open(out) as f:
            return read_output(f), work
    finally:
        for path in (out, checkpoint, checkpoint + ".prev",
                     checkpoint + ".tmp"):
            if os.path.exists(path):
                os.remove(path)


def measure(args):
    for knob in REFUSED_KNOBS:
        if os.environ.get(knob):
            raise BenchError("%s is set; unset it to benchmark" % knob)
    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    doc, work = run_binary(binary, args, deadline)
    tables = doc["tables"]
    workload = WORKLOADS[args.workload]
    memo = DigestMemo(os.path.join(work, "digests.json"), binary)
    size = "smoke" if args.smoke else "full"
    attempted = failed = 0
    problems = []
    for table in tables:
        reference = table["reference"]
        reference_pairs = reference["all_pairs"]["pairs"]
        table_problems = check_reference(reference, args.trace)
        problems += table_problems
        for rep in table["reps"]:
            if args.trace:
                runs = [rep["baseline"], rep["traced"]]
                shared = table_problems + check_traced(rep, reference)
                problems += shared[len(table_problems):]
            else:
                runs, shared = [rep["run"]], table_problems
            for run in runs:
                found = check_run(run, reference_pairs, workload)
                found += memo.check(args.workload, table["table_seed"], size,
                                    run["matched_digest"])
                attempted += run["questions"]
                failed += (run["questions"] if found or shared
                           else run["degraded"])
                problems += found
    memo.save()
    if args.trace:
        metrics, names = per_layer_metrics(tables), PER_LAYER
    else:
        metrics, names = end_to_end_metrics(tables), END_TO_END
    return doc, metrics, names, problems, attempted, failed


def report(doc, metrics, names, problems, attempted, failed, args):
    machine = doc["machine"]
    tables = doc["tables"]
    print("perfbench %s seed=%d trace=%d: %d tables x %d passes on %s "
          "(nproc %d, %d threads, %s, %s, simd %s)" % (
              args.workload, args.seed, args.trace, len(tables),
              doc["passes"], machine["cpu"], machine["nproc"],
              machine["threads"], machine["compiler"], machine["build_type"],
              machine["simd"]))
    if args.trace:
        reps = [rep for table in tables for rep in table["reps"]]
        own = {}
        for rep in reps:
            for name, seconds in self_time_by_name(rep["spans"]).items():
                own[name] = own.get(name, 0.0) + seconds / len(reps)
        ranked = sorted(own.items(), key=lambda kv: -kv[1])
        print("mean self time per table: " + ", ".join(
            "%s %.4f s" % kv for kv in ranked[:8]))
    else:
        probes = [rep["probe_s"] for table in tables for rep in table["reps"]]
        print("host probe median %.4f ms (reference %.4f ms); unscaled "
              "run_s %.6f s CPU, %.6f s wall; setup_s %.6f s CPU" % (
                  statistics.median(probes) * 1e3, PROBE_REFERENCE_S * 1e3,
                  mean_of_table_medians(tables, lambda r: r["run"]["run_s"]),
                  mean_of_table_medians(tables, lambda r: r["run"]["wall_s"]),
                  mean_of_table_medians(tables, lambda r: r["setup_s"])))
    for name, (unit, better) in names.items():
        print("  %-30s %16.6g %-6s (%s is better)" % (
            name, metrics[name], unit, better))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": names[name][0]}
                    for name in names},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a small table of the workload")
    args = parser.parse_args(argv)
    try:
        outcome = measure(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    report(*outcome, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
