"""Command-line front end.

Subcommands: ``gen`` (instances and datasets), ``bench`` (PDR and policy
sweeps over an instance directory with CSV reporting), ``solve`` (one
instance, one method), ``compress`` (re-time an existing solution), and
``train`` (run the training loop from a key=value config).

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
infeasible input, missing checkpoint), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from cpshop.benchmarks import DATASETS, dataset
from cpshop.expert import solve_exact
from cpshop.instances import (
    FORMATS,
    Instance,
    InstanceFormatError,
    generate_instance,
    parse_instance,
    read_solution,
    read_text,
    write_instance,
    write_solution,
)
from cpshop.model import compress, validate
from cpshop.net import NetPolicy, load_params
from cpshop.rules import RULES, RulePolicy, ensemble_solve, greedy_rollout
from cpshop.train import TrainConfig, train_loop

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


class DataError(ValueError):
    pass


def _load_method(spec: str, actor_count: int):
    """Resolve a method string into a ``solve(instance, seed)`` callable."""
    if spec in RULES:
        policy = RulePolicy(spec)

        def solve(instance: Instance, seed: int):
            return greedy_rollout(instance, policy)

        return solve
    if spec.startswith("policy:") or spec.startswith("ensemble:"):
        kind, _, ckpt = spec.partition(":")
        path = Path(ckpt)
        if not path.is_file():
            raise DataError(f"checkpoint not found: {ckpt}")
        try:
            params, net_config = load_params(path)
        except ValueError as exc:
            raise DataError(str(exc)) from None
        policy = NetPolicy(params, net_config)
        # every horizon above next_ops gives training's observations
        window = {"horizon": net_config.next_ops + 1, "next_ops": net_config.next_ops}
        if kind == "policy":

            def solve(instance: Instance, seed: int):
                return greedy_rollout(instance, policy, **window)

        else:

            def solve(instance: Instance, seed: int):
                return ensemble_solve(
                    instance, policy, actor_count=actor_count, seed=seed, **window
                ).solution

        return solve
    raise UsageError(
        f"unknown method {spec!r}: expected one of {', '.join(RULES)}, "
        "policy:<checkpoint>, or ensemble:<checkpoint>"
    )


def cmd_bench(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise DataError(f"not a directory: {directory}")
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if not files:
        raise DataError(f"no instance files in {directory}")
    instances = [parse_instance(p, args.fmt) for p in files]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("no methods given")
    seeds = _parse_seeds(args.seeds)
    solvers = [(m, _load_method(m, args.actors)) for m in methods]
    dataset_name = directory.resolve().name  # Path(".").name is empty
    rows = []
    for instance in instances:
        for name, solve in solvers:
            for seed in seeds:
                t0 = time.perf_counter()
                solution = solve(instance, seed)
                dt = time.perf_counter() - t0
                report = validate(instance, solution)
                if not report:
                    raise RuntimeError(
                        f"method {name} produced an infeasible schedule on "
                        f"{instance.name}: {report.violation}"
                    )
                rows.append(
                    (dataset_name, instance.name, name, seed, solution.makespan, round(dt, 6))
                )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "instance", "method", "seed", "makespan", "runtime_s"])
            writer.writerows(rows)
    by_method: dict[str, list[int]] = {}
    for _, _, method, _, makespan, _ in rows:
        by_method.setdefault(method, []).append(makespan)
    for method, makespans in sorted(by_method.items()):
        print(
            f"summary {dataset_name} {method} "
            f"mean {np.mean(makespans):.2f} std {np.std(makespans):.2f}"
        )
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    seed = _at_least(0)
    try:
        seeds = [seed(s) for s in text.split(",") if s.strip()]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad seed list {text!r}: {exc}") from None
    if not seeds:
        raise UsageError("empty seed list")
    return seeds


def cmd_solve(args) -> int:
    instance = parse_instance(args.instance, args.fmt)
    if args.method == "exact":
        # a budget alone bounds the search; without one, the node cap does
        limits = {} if args.budget is None else {"time_limit": args.budget, "node_limit": None}
        t0 = time.perf_counter()
        result = solve_exact(instance, **limits)
        dt = time.perf_counter() - t0
        solution = result.solution
        status = "certified optimum" if result.certified else "best found"
        print(f"{instance.name}: makespan {solution.makespan} ({status}) in {dt:.3f}s")
    else:
        solve = _load_method(args.method, args.actors)
        t0 = time.perf_counter()
        solution = solve(instance, args.seed)
        dt = time.perf_counter() - t0
        print(f"{instance.name}: makespan {solution.makespan} in {dt:.3f}s")
    solution = compress(instance, solution)
    report = validate(instance, solution)
    if not report:
        raise RuntimeError(f"internal: produced infeasible solution: {report.violation}")
    if args.out:
        write_solution(solution, args.out)
    return EXIT_OK


def cmd_compress(args) -> int:
    instance = parse_instance(args.instance, args.fmt)
    solution = read_solution(args.solution_in)
    report = validate(instance, solution)
    if not report:
        raise DataError(f"input solution infeasible: {report.violation}")
    compressed = compress(instance, solution)
    shift = sum(
        sum(row) for row in solution.starts
    ) - sum(sum(row) for row in compressed.starts)
    delta = compressed.makespan - solution.makespan
    print(f"start-time reduction {shift}, makespan delta {delta}")
    if args.solution_out:
        write_solution(compressed, args.solution_out)
    return EXIT_OK


_CONFIG_KEYS = {
    "epochs": ("epochs", int),
    "actors": ("actor_count", int),
    "horizon": ("horizon", int),
    "next_ops": ("next_ops", int),
    "eps": ("clip_eps", float),
    "beta": ("kl_limit", float),
    "K": ("max_updates", int),
    "minibatches": ("minibatch_size", int),
    "expert_budget_start": ("expert_evals_start", int),
    "expert_budget_step": ("expert_evals_step", int),
    "lr": ("lr", float),
}


def parse_train_config(path: str | Path, seed: int) -> TrainConfig:
    """Plain key=value file; unknown keys are rejected by name."""
    fields: dict = {"seed": seed}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        if key not in _CONFIG_KEYS:
            raise DataError(
                f"{path}:{lineno}: unknown config key {key!r} "
                f"(known: {', '.join(sorted(_CONFIG_KEYS))})"
            )
        name, cast = _CONFIG_KEYS[key]
        try:
            fields[name] = cast(value.strip())
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r}") from None
    try:
        return TrainConfig(**fields)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_train(args) -> int:
    paths = [p for chunk in args.instances for p in chunk.split(",") if p]
    if not paths:
        raise UsageError("no instance files given")
    instances = [parse_instance(p, args.fmt) for p in paths]
    config = (
        parse_train_config(args.config, args.seed)
        if args.config
        else TrainConfig(seed=args.seed)
    )
    result = train_loop(instances, config, out_dir=args.out)
    print(
        f"trained {config.epochs} epochs; best epoch {result.best_epoch} "
        f"with greedy mean {result.best_greedy_mean:.2f}"
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    out = Path(args.out)
    if args.dataset:
        out.mkdir(parents=True, exist_ok=True)
        for instance in dataset(args.dataset):
            write_instance(instance, out / f"{instance.name}.txt", args.fmt)
        print(f"wrote {args.dataset} to {out}")
        return EXIT_OK
    if args.job_count is None or args.machine_count is None:
        raise UsageError("gen needs either --dataset or both --jobs and --machines")
    instance = generate_instance(args.job_count, args.machine_count, args.seed)
    if out.is_dir():
        out = out / f"{instance.name}.txt"
    write_instance(instance, out, args.fmt)
    print(f"wrote {instance.name} to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(lower: int, cast=int, kind: str = "an integer"):
    """An argparse type: a finite ``cast`` value no smaller than ``lower``."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = lower - 1
        if not lower <= value < math.inf:  # nan compares false
            raise argparse.ArgumentTypeError(f"expected {kind} >= {lower}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cpshop", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run methods over an instance directory")
    bench.add_argument("--dir", required=True)
    bench.add_argument("--fmt", choices=FORMATS, default="taillard")
    bench.add_argument("--methods", default="fifo,spt,mtwr")
    bench.add_argument("--seeds", default="0")
    bench.add_argument("--actors", type=_at_least(1), default=8)
    bench.add_argument("--out", default=None, help="per-row CSV path")
    bench.set_defaults(func=cmd_bench)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--fmt", choices=FORMATS, default="taillard")
    solve.add_argument("--method", default="mtwr")
    solve.add_argument("--seed", type=_at_least(0), default=0)
    solve.add_argument("--actors", type=_at_least(1), default=8)
    solve.add_argument("--budget", type=_at_least(0, float, "a finite number"), default=None,
                       help="seconds for exact search, in place of its node cap")
    solve.add_argument("--out", default=None, help="solution file path")
    solve.set_defaults(func=cmd_solve)

    comp = sub.add_parser("compress", help="re-time a solution to earliest starts")
    comp.add_argument("--instance", required=True)
    comp.add_argument("--fmt", choices=FORMATS, default="taillard")
    comp.add_argument("--in", dest="solution_in", required=True)
    comp.add_argument("--out", dest="solution_out", default=None)
    comp.set_defaults(func=cmd_compress)

    train = sub.add_parser("train", help="run the training loop")
    train.add_argument("--instances", action="append", required=True,
                       help="instance file, repeatable or comma-separated")
    train.add_argument("--fmt", choices=FORMATS, default="taillard")
    train.add_argument("--config", default=None, help="key=value config file")
    train.add_argument("--seed", type=_at_least(0), default=0)
    train.add_argument("--out", required=True, help="checkpoint/metrics directory")
    train.set_defaults(func=cmd_train)

    gen = sub.add_parser("gen", help="generate instances or whole datasets")
    gen.add_argument("--dataset", choices=DATASETS, default=None)
    gen.add_argument("--jobs", dest="job_count", type=_at_least(1), default=None)
    gen.add_argument("--machines", dest="machine_count", type=_at_least(1), default=None)
    gen.add_argument("--seed", type=_at_least(0), default=0)
    gen.add_argument("--fmt", choices=FORMATS, default="taillard")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, InstanceFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
