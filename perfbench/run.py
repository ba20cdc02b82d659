"""Run one benchmark workload of cpshop and print its metrics.

    python3 perfbench/run.py --workload dispatch-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: cpshop is imported from ``src``.
The run builds its inputs from ``--seed``, repeats whole rounds of the
workload's tasks for about ``--seconds`` seconds, and checks every output.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it wraps cpshop's public functions and reports per-layer metrics, per
round. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``report ...``) holds the workload's detail figures and the platform.
The full report, and the spans of a traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# fixed before numpy loads: one BLAS thread keeps figures steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}



def import_program() -> float:
    """Import numpy and cpshop from the checkout's ``src``; return seconds."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import cpshop.expert  # noqa: F401
    import cpshop.rules  # noqa: F401
    import cpshop.train  # noqa: F401
    return time.perf_counter() - start


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def platform_info() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "commit": git_commit(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False):
    """Run one workload; return the full report (see the module docstring)
    and the tracer of a traced run, else None."""
    import_s = import_program()
    # the benchmark's modules import cpshop, so they load after its timing
    import workloads
    from hostspeed import REFERENCE_S, calibrate
    from tracing import Tracer

    setup, round_, calibrations_per_task = workloads.WORKLOADS[workload]
    setup_calibrations = [calibrate()]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = setup(seed, toy)
        setup_times.append(time.perf_counter() - start)
        setup_calibrations.append(calibrate())
    setup_wall_s = import_s + statistics.median(setup_times)

    tracer = Tracer() if trace else None
    tally = workloads.Tally(tracer=tracer, calibrations_per_task=calibrations_per_task)
    if tracer:
        tracer.install(extra_modules=[workloads])
    try:
        start = time.perf_counter()
        round_task_s, round_task_wall_s = [], []
        while True:
            done = len(tally.task_s)
            round_(inputs, tally)
            tally.rounds += 1
            round_task_s.append(statistics.fmean(tally.task_s[done:]))
            round_task_wall_s.append(statistics.fmean(tally.task_wall_s[done:]))
            elapsed = time.perf_counter() - start
            # start another round only if it is expected to end in time
            if elapsed * (tally.rounds + 1) / tally.rounds > seconds:
                break
    finally:
        if tracer:
            tracer.close()

    metrics = {
        "setup_s": setup_wall_s * REFERENCE_S / statistics.median(setup_calibrations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "task_s": statistics.median(round_task_s),
        "makespan_ratio": statistics.fmean(tally.ratios),
    }
    units = metric_units("end_to_end")
    details = tally.details()
    details["setup_wall_s"] = (setup_wall_s, "s")
    details["task_wall_s"] = (statistics.median(round_task_wall_s), "s")
    details["calibrate_s"] = (statistics.median(setup_calibrations + tally.calibrations), "s")
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "toy": toy,
        "rounds": tally.rounds, "attempted": tally.attempted, "failed": tally.failed,
        "platform": platform_info(),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": {k: {"value": v, "unit": u} for k, (v, u) in sorted(details.items())},
    }
    if tracer:
        totals = tracer.layer_totals()
        report["per_layer"] = {
            name: {"value": totals.get(name, 0) / tally.rounds, "unit": unit}
            for name, unit in metric_units("per_layer").items()
        }
        report["layers"] = {k: v / tally.rounds for k, v in sorted(totals.items())}
    return report, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dispatch-large", "train-epoch", "anytime-ta"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cpshop").is_dir():
        print(f"cpshop sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from check import CheckError

    try:
        report, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("report " + json.dumps({"details": report["details"], "platform": report["platform"],
                                  "rounds": report["rounds"]}))
    metrics = report["per_layer"] if args.trace else report["metrics"]
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
