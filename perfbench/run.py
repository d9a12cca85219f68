#!/usr/bin/env python3
"""Build and run the ARA end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload point_serial|sweep_parallel|serve_mixed \
        --seed N --seconds S --trace 0|1 [--quick]
    python3 perfbench/run.py --write-pins

The simulator library is compiled from ../src into the build directory
($CARGO_TARGET_DIR or .bench_build, subdirectory perfbench) on first use.
The last line of standard output is the run's JSON result, with the metrics
BENCHMARK.json names for the mode. perfbench/METRICS.md describes the
workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("point_serial", "sweep_parallel", "serve_mixed")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build; returns the benchmark binary path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "ara_perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def contract_line(raw, trace):
    """The result line: BENCHMARK.json's metrics of this mode, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = spec["per_layer" if trace == "1" else "end_to_end"]
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {m["name"]: {"value": raw["values"][m["name"]],
                                    "unit": m["unit"]} for m in names}}


def write_pins(binary):
    """Record the combined digests of seeds 0-63 under the tree's salt."""
    salt = None
    pins = {}
    for workload in WORKLOADS:
        table = {}
        for seed in ([0] if workload == "sweep_parallel" else range(64)):
            res = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--digest-only"],
                capture_output=True, text=True, check=True)
            salt, digest = res.stdout.split()
            table["any" if workload == "sweep_parallel" else str(seed)] = digest
        pins[workload] = table
    existing = {}
    if os.path.exists(PINS):
        with open(PINS) as f:
            existing = json.load(f)
    existing[salt] = pins
    with open(PINS, "w") as f:
        json.dump(existing, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote pins for salt {salt} to {os.path.relpath(PINS, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs (self-test); digests are unpinned")
    ap.add_argument("--write-pins", action="store_true",
                    help="record combined digests for seeds 0-63")
    args = ap.parse_args()
    if not args.write_pins and args.workload is None:
        ap.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.write_pins:
        write_pins(binary)
        return 0

    out = build_dir()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.relpath(out, ROOT), "--commit", git_commit(),
           "--pins", os.path.relpath(PINS, ROOT)]
    if args.quick:
        cmd.append("--quick")
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        sys.stdout.write(res.stdout)
        print(f"perfbench: benchmark exited with {res.returncode}",
              file=sys.stderr)
        return res.returncode or 1
    print("\n".join(lines[:-1]))
    try:
        print(json.dumps(contract_line(json.loads(lines[-1]), args.trace)))
    except (ValueError, KeyError) as e:
        print(f"perfbench: bad benchmark output: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
