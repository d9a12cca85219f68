#!/usr/bin/env python3
"""Self-test of the benchmark: quick (tiny-scale) runs of every workload.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it checks that one untraced run emits every end-to-end
metric of BENCHMARK.json, that two traced runs emit every per-layer metric,
that all values are finite, that the exact work counts and the output digest
are identical across the two traced runs, and that every run is correct with
a clean verify pass (zero invariant violations). Exits 1 on any failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer metrics that are exact work counts (must repeat bit-for-bit).
COUNT_PREFIXES = ("sim.events", "noc.packets", "noc.link_reservations",
                  "noc.reservations_per_packet", "noc.flit_hops", "island.",
                  "mem.", "abc.")


def quick_run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "3", "--trace", str(trace),
           "--quick"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180)
    if res.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_run(spec_names, lines, result, label):
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{label}: correct={result['correct']} "
                      f"failed={result['failed']}: "
                      + "; ".join(l for l in lines if "FAILED" in l))
    if result["attempted"] < 1:
        errors.append(f"{label}: nothing attempted")
    metrics = result["metrics"]
    missing = sorted(set(spec_names) - set(metrics))
    extra = sorted(set(metrics) - set(spec_names))
    if missing or extra:
        errors.append(f"{label}: missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            errors.append(f"{label}: {name} is not a finite number")
    if not any(" 0 invariant violations" in l for l in lines):
        errors.append(f"{label}: verify pass not clean")
    return errors


def digest_line(lines):
    return next(l for l in lines if l.startswith("# digest "))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        lines, res = quick_run(workload, 0)
        errors += check_run(e2e, lines, res, f"{workload} untraced")
        traced = []
        for i in range(2):
            lines, res = quick_run(workload, 1)
            errors += check_run(layer, lines, res, f"{workload} traced #{i}")
            traced.append((lines, res["metrics"]))
        (l0, m0), (l1, m1) = traced
        for name in layer:
            if name.startswith(COUNT_PREFIXES) and \
                    m0.get(name, {}).get("value") != m1.get(name, {}).get("value"):
                errors.append(f"{workload}: work count {name} differs "
                              f"between runs")
        if digest_line(l0) != digest_line(l1):
            errors.append(f"{workload}: combined digest differs between runs")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
