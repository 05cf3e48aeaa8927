#!/usr/bin/env python3
"""Builds and runs the layer-attributed serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot-closed --seed 1 --seconds 24 --trace 0

Builds `perfbench/` twice — once as is and once against ftl-server's
`no-obs` feature (metrics and spans compiled out) — then runs the
instrumented build. The last line of stdout is the JSON result. A run is
split over a few processes (see SUBRUNS). With `--trace 1` it also
measures what the instrumentation costs: short untraced runs of both
builds, alternating which goes first, compared on `rtt_p50_ms`.

The build goes to `$CARGO_TARGET_DIR` (default `perfbench/target`); the
no-obs build to its `no-obs/` subdirectory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "ftl-perfbench"
# An untraced run is split into this many processes, each measuring an
# equal share of --seconds; each end-to-end metric is their median. A
# process keeps the thread placement and allocator state it started with,
# so fresh processes sample those as well as the host's load.
SUBRUNS = 4
# A traced run is split in two, which also keeps the edges churn-open
# removes in one process (one every 20 ms) well under a third of the graph.
TRACE_SUBRUNS = 2
# Alternating pairs of (instrumented, no-obs) runs behind obs.overhead_pct.
PROBE_PAIRS = 4
PROBE_SECONDS = 3
RUN_TIMEOUT_S = 150


def build(target_dir, features):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir] + features
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(target_dir, "release", BINARY)


def git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(binary, workload, seed, seconds, trace, commit):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if "metrics" in result else None


def overhead_probe(obs_bin, noobs_bin, workload, seed, commit):
    """Median and quartile spread of the relative rtt_p50 increase the
    instrumentation causes, over alternating pairs of short runs, in %."""
    overheads = []
    for pair in range(PROBE_PAIRS):
        order = [obs_bin, noobs_bin] if pair % 2 == 0 else [noobs_bin, obs_bin]
        p50 = {}
        for binary in order:
            code, lines = run(binary, workload, seed, PROBE_SECONDS, 0, commit)
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                sys.exit(f"perfbench: overhead probe failed ({binary})")
            p50[binary] = result["metrics"]["rtt_p50_ms"]["value"]
        overheads.append((p50[obs_bin] / p50[noobs_bin] - 1.0) * 100.0)
    q1, _, q3 = statistics.quantiles(overheads, n=4)
    return statistics.median(overheads), q3 - q1


def measure(binary, args, commit, processes, seconds):
    """Runs `processes` benchmark processes and merges their results."""
    results = []
    for _ in range(processes):
        code, lines = run(binary, args.workload, args.seed, seconds, args.trace, commit)
        result = result_of(lines)
        if result is None:
            print("\n".join(lines), file=sys.stderr)
            sys.exit(code or 1)
        for line in lines[:-1]:
            print(line)
        results.append(result)
        if code != 0:
            return code, result
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                   "unit": m["unit"]}
            for name, m in results[0]["metrics"].items()
        },
    }
    return 0, merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    obs_bin = build(base, [])
    noobs_bin = build(os.path.join(base, "no-obs"), ["--features", "no-obs"])
    commit = git_commit()

    processes = TRACE_SUBRUNS if args.trace == 1 else SUBRUNS
    code, result = measure(obs_bin, args, commit, processes, args.seconds / processes)
    if args.trace == 1 and code == 0:
        median, spread = overhead_probe(obs_bin, noobs_bin, args.workload, args.seed, commit)
        result["metrics"]["obs.overhead_pct"] = {"value": median, "unit": "%"}
        result["metrics"]["obs.overhead_spread_pct"] = {"value": spread, "unit": "%"}
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
