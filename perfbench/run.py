"""uniprio benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload stable-reps --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src`` directory, and scratch output goes to ``.perfbench_work``
at its root and is removed before exit. A traced run leaves its spans in
``.perfbench_spans/<workload>-seed<seed>.json``. ``--trace 0`` reports the end-to-end
metrics of untraced runs; ``--trace 1`` reports the per-layer metrics of
instrumented runs. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status
is 0 only when every correctness and determinism check passed, 1 when one
failed, and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("stable-reps", "overloaded", "many-server", "analytic-sweep")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="generates the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from instrumented runs")
    parser.add_argument("--tiny", action="store_true", help="shrink the workload for a smoke test; numbers are not comparable")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "uniprio" / "__init__.py").is_file():
        print(f"perfbench: no program to measure, {SRC / 'uniprio'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import measure
    from metrics import result_line

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, SRC, tiny=args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    if outcome.spans is not None:
        spans = ROOT / ".perfbench_spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        outcome.spans.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    try:
        line = result_line(outcome.values, bool(args.trace), outcome.attempted, outcome.failed, outcome.correct)
    except KeyError as exc:  # a failure stopped the run before every metric was measured
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in line["metrics"].items():
        note = outcome.notes.get(name)
        print(f"{name} = {metric['value']:.6g} {metric['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps(line))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
