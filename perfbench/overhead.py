"""Tracing overhead: run one workload untraced and traced, compare.

    python3 perfbench/overhead.py --workload dispatch-large --seed 1 --seconds 30

Runs ``run.py`` twice in fresh processes with the same arguments, once
with ``--trace 0`` and once with ``--trace 1``, and prints the time per
task and every detail figure of both runs with their relative difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(args, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    path = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    plain, traced = run_once(args, 0), run_once(args, 1)
    rows = {"task_s": (plain["metrics"]["task_s"], traced["metrics"]["task_s"])}
    for name, figure in plain["details"].items():
        rows[name] = (figure, traced["details"][name])
    print(f"{'figure':40} {'untraced':>12} {'traced':>12} {'change':>8}")
    for name, (a, b) in rows.items():
        print(f"{name:40} {a['value']:12.5g} {b['value']:12.5g} "
              f"{b['value'] / a['value'] - 1:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
