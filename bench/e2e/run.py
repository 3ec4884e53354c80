#!/usr/bin/env python3
"""Build and run the end-to-end APOLLO bench (see README.md beside this file).

One workload (the interface of BENCHMARK.json's command); builds first if needed:

    python3 bench/e2e/run.py --workload train_n1 --seed 1 --seconds 15 --trace 0

prints the bench's log on stderr and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics (a layer the workload never calls reads 0).

Every workload, --reps times, alternating the order on each rep:

    python3 bench/e2e/run.py [--seed 1] [--reps 3] [--trace 1]

prints a host/build header and "workload metric value unit" lines, and writes
build-e2e/summary.json. The exit code is non-zero when the build fails or any
output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "e2e")
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ["train_n1", "emulate_long", "serve_open", "droop_loop"]
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build; the compiler output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, spec):
    """Run one workload; returns (exit code, result dict or None, header line)."""
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    if trace:
        cmd.append(f"--out={os.path.join(BUILD, f'trace-{workload}-s{seed}.json')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or ""))
        sys.stderr.write(f"bench_e2e {workload}: timed out after {RUN_TIMEOUT_S} s\n")
        return 1, None, ""
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(f"bench_e2e {workload}: no result (exit {proc.returncode})\n")
        return proc.returncode or 1, None, ""
    raw = json.loads(lines[-1])
    header = next((l for l in proc.stderr.splitlines() if l.startswith("# bench_e2e")), "")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and not trace:
            sys.stderr.write(f"bench_e2e {workload}: missing metric {m['name']}\n")
            return 1, None, header
        value = got["value"] if got else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return proc.returncode, result, header


def git_revision():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args, spec):
    """Every workload --reps times; prints lines and writes summary.json."""
    values = {}
    failed = 0
    header_printed = False
    for rep in range(args.reps):
        order = WORKLOADS if rep % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            code, result, header = run_workload(workload, args.seed, args.seconds,
                                                args.trace, spec)
            if not header_printed and header:
                print(f"{header[2:]} git={git_revision()}")
                header_printed = True
            if result is None or code != 0:
                failed += 1
            if result is None:
                continue
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, {"unit": m["unit"], "values": []})
                values[workload][name]["values"].append(m["value"])
                print(f"{workload} {name} {m['value']} {m['unit']}", flush=True)
    summary = {"seed": args.seed, "reps": args.reps, "seconds": args.seconds,
               "trace": args.trace, "git": git_revision(), "failed_runs": failed,
               "workloads": {w: {n: dict(m, median=statistics.median(m["values"]))
                                 for n, m in ms.items()} for w, ms in values.items()}}
    with open(os.path.join(BUILD, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(f"wrote {os.path.join(BUILD, 'summary.json')}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reps", type=int, default=1)
    args = parser.parse_args()

    if not build():
        sys.stderr.write("build failed\n")
        return 1
    spec = load_benchmark()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    code, result, _ = run_workload(args.workload, args.seed, args.seconds,
                                   args.trace, spec)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
