"""Run every workload, print every metric with its unit, optionally record a baseline.

    python3 perfbench/suite.py                        # each workload: one untraced, one traced run
    python3 perfbench/suite.py --runs 10              # ten seeds per workload, with spreads
    python3 perfbench/suite.py --runs 10 --record perfbench/baseline.json

Each run is a fresh ``run.py`` process measuring ``run_seconds`` from
``BENCHMARK.json``. Untraced runs use seeds 1, 2, ..., ``--runs``; the traced
run uses seed 1. With two or more runs the suite reports, per end-to-end
metric, the distance between the quartiles as a share of the median, next to
a third of the metric's bound in ``BENCHMARK.json``. Exits non-zero when any
run fails a correctness or determinism check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180

sys.path.insert(0, str(HERE))
from metrics import PER_LAYER, validate_result  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict | None, float, str]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    took = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        validate_result(result, bool(trace))
    return done.returncode, result, took, done.stderr.strip()


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload, one seed each")
    parser.add_argument("--record", type=Path, help="write medians, spreads and the environment here as JSON")
    args = parser.parse_args(argv)

    ok = True
    seconds = bench["run_seconds"]
    record = {"environment": environment(), "seconds": seconds, "workloads": {}}
    for workload in names:
        why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
        print(f"== {workload}: {why}")
        values: dict[str, list[float]] = {}
        entry = {"why": why, "seeds": [], "end_to_end": {}, "per_layer": {}}
        for seed in range(1, args.runs + 1):
            rc, result, took, errors = run_once(workload, seed, seconds, 0)
            status = "ok" if rc == 0 and result and result["correct"] else f"FAILED (exit {rc})"
            ok &= status == "ok"
            print(f"   seed {seed}: {status}, {took:.1f} s" + (f"\n{errors}" if errors else ""))
            entry["seeds"].append(seed)
            if result:
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            series = values.get(name, [])
            if not series:
                continue
            row = {"unit": metric["unit"], "better": metric["better"], "bound": bound, "median": median(series), "values": series}
            line = f"   {name:<18} {median(series):>14.6g} {metric['unit']:<6}"
            if len(series) >= 2:
                mid, q1, q3, share = spread(series)
                row.update(q1=q1, q3=q3, spread=share)
                steady = "ok" if share < bound / 3 else "WIDE"
                line += f" quartiles {q1:.6g}..{q3:.6g}, spread {share:.3f} vs bound/3 {bound / 3:.3f} {steady}"
            print(line)
            entry["end_to_end"][name] = row
        rc, result, took, errors = run_once(workload, 1, seconds, 1)
        status = "ok" if rc == 0 and result and result["correct"] else f"FAILED (exit {rc})"
        ok &= status == "ok"
        print(f"   traced, seed 1: {status}, {took:.1f} s" + (f"\n{errors}" if errors else ""))
        for name, metric in (result or {}).get("metrics", {}).items():
            print(f"   {name:<34} {metric['value']:>14.6g} {metric['unit']}")
            entry["per_layer"][name] = {
                "value": metric["value"], "unit": metric["unit"],
                "better": PER_LAYER[name].better, "moves": PER_LAYER[name].moves,
            }
        record["workloads"][workload] = entry
    if args.record:
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
