#!/usr/bin/env python3
"""The repository's benchmark: builds `slb-perfbench` and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload converge --seed 42 --seconds 25 --trace 0

Repetitions of the workload run one process each, back to back, as
long as the next one can end within `--seconds` (at least one runs).
Each repetition also times a fixed reference kernel just before and just
after the workload; its end-to-end times are divided by that reference
time (rates multiplied) and given in seconds of a host on which the
kernel takes `REFERENCE_S`, which takes the host's drift out of them.
With `--trace 0` the result holds the medians of these end-to-end
metrics over the repetitions (`peak_rss_mb` is not normalised); with
`--trace 1` every repetition is traced and the result holds the medians
of the per-layer metrics, as measured. The metric names and units come
from BENCHMARK.json. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it are a readable table. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
PINNED = HERE / "reference_sha256.json"
WORKLOADS = ["converge", "scale-1m", "dynamic-64k", "serve"]
# Seconds the reference kernel takes on the nominal host that normalised
# times are given for; a 2-vCPU Xeon guest takes 0.10-0.16 s.
REFERENCE_S = 0.1
# A run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def steal_seconds():
    """Steal time of the whole host so far, summed over its CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def build(target_dir):
    """Builds the benchmark binary; its output goes to standard error."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850)
    if done.returncode != 0:
        raise BenchError("cargo build failed")
    return target_dir / "release" / "slb-perfbench"


def run_child(binary, args, deadline):
    """Runs one repetition and returns its parsed JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition")
    try:
        done = subprocess.run([str(binary), *args], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"repetition timed out: {args}") from e
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"repetition exited with {done.returncode}: {args}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"repetition printed nothing: {args}")
    return json.loads(lines[-1])


def e2e_metrics(rep):
    """The end-to-end metrics of one repetition, normalised by the
    reference kernel's time (README.md, End-to-end metrics)."""
    speed = rep["reference_s"] / REFERENCE_S
    return {
        "wall_s": rep["wall_s"] / speed,
        "setup_s": rep["setup_s"] / speed,
        "cpu_s": rep["cpu_s"] / speed,
        "peak_rss_mb": rep["peak_rss_mb"],
        "rounds_per_s": rep["rounds"] / rep["phase_s"] * speed,
        "jobs_per_s": rep["jobs"] / rep["phase_s"] * speed,
    }


def reference_note(workload, seed, digest):
    try:
        pinned = json.loads(PINNED.read_text()).get(workload, {}).get(str(seed))
    except (OSError, ValueError):
        pinned = None
    if pinned is None:
        return "no pinned reference for this seed"
    if pinned == digest:
        return "matches the pinned reference"
    return "CHANGED from the pinned reference (flagged, not counted as a failure)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    sidecar = target_dir / "perfbench-traces" / f"{args.workload}-seed{args.seed}.json"
    sidecar.parent.mkdir(parents=True, exist_ok=True)

    steal_start = steal_seconds()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reps = []
    longest = 0.0
    # A repetition starts only if it can end within `--seconds`, judged
    # by the longest one so far; the first always runs.
    while not reps or time.monotonic() - start + longest <= args.seconds:
        child_args = [args.workload, "--seed", str(args.seed)]
        if args.trace:
            child_args += ["--trace", "--sidecar", str(sidecar)]
        began = time.monotonic()
        reps.append(run_child(binary, child_args, deadline))
        longest = max(longest, time.monotonic() - began)
    steal_s = steal_seconds() - steal_start

    digests = {hashlib.sha256(r["artifact"].encode()).hexdigest() for r in reps}
    mismatches = [m for r in reps for m in r["mismatches"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    deterministic = len(digests) == 1
    correct = failed == 0 and not mismatches and deterministic

    if args.trace:
        per_rep = [r["layers"] for r in reps]
        per_rep[0]["host.steal_s"] = steal_s
    else:
        per_rep = [e2e_metrics(r) for r in reps]
    # A layer the workload does not exercise reads 0.
    metrics = {}
    for name, unit in units.items():
        values = [m[name] for m in per_rep if m.get(name) is not None]
        metrics[name] = {"value": statistics.median(values) if values else 0.0,
                         "unit": unit}

    digest = sorted(digests)[0]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  repetitions {len(reps)}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'failed_frac':<40} {failed / max(attempted, 1):>16.6g} ratio")
        print(f"  {'host.steal_s':<40} {steal_s:>16.6g} s")
    print(f"  checks: {failed} of {attempted} operations failed")
    print(f"  artifact sha256 {digest}: {reference_note(args.workload, args.seed, digest)}")
    if not deterministic:
        print(f"  NOT DETERMINISTIC: repetitions rendered {len(digests)} different artifacts")
    for m in mismatches:
        print(f"  RE-DRIVE MISMATCH: {m}")
    if args.trace:
        phase = metrics["trace.round_phase_s"]["value"]
        if phase > 0:
            covered = (metrics["engine.step_s"]["value"]
                       + metrics["equilibrium.check_s"]["value"]) / phase
            print(f"  step + check time covers {covered:.1%} of the round phase")
        print(f"  spans: {sidecar}")
    else:
        walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
        refs = " ".join(f"{r['reference_s']:.3f}" for r in reps)
        print(f"  wall_s per repetition, as measured: {walls}")
        print(f"  reference kernel per repetition: {refs}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
