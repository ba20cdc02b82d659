"""The benchmark's workloads, driven through cpshop's public functions.

A workload has a ``setup`` that builds its inputs from the seed and a
``round`` that runs one fixed set of timed tasks on them, checks every
output with the benchmark's own checker, and adds to a ``Tally``. A run
repeats whole rounds, so every run attempts the same tasks in the same
proportions. ``toy`` shrinks every input so that the tests can run each
workload in seconds.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import cpshop.train
from cpshop import expert
from cpshop.benchmarks import TA_LIKE_SIZES, dataset
from cpshop.env import JobShopEnv
from cpshop.expert import improve, solve_exact
from cpshop.instances import Instance, generate_instance
from cpshop.net import NetPolicy, PolicyConfig, init_params
from cpshop.rules import (
    RULES,
    RulePolicy,
    ensemble_solve,
    greedy_rollout,
    masked_argmax,
    rollout,
)
from cpshop.train import TrainConfig, train_loop

from check import check_partial, check_schedule, require
from hostspeed import REFERENCE_S, calibrate


@dataclass
class Tally:
    """What the rounds of one run did."""

    tracer: object = None
    # host-speed loops timed after every task; none where a wall budget
    # sets the task times
    calibrations_per_task: int = 1
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    # per completed task: seconds at the reference host speed (as measured
    # when no loops are timed), and as measured
    task_s: list[float] = field(default_factory=list)
    task_wall_s: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)  # makespan / lower bound
    # detail name -> [work units, seconds] of a rate in 1/s
    rates: dict[str, list[float]] = field(default_factory=dict)
    # detail name -> [sum, count, unit] of a mean
    means: dict[str, list] = field(default_factory=dict)
    # outputs of the first round, which every later round must repeat
    first: dict = field(default_factory=dict)

    def timed(self, label: str, units: int, fn, *args, **kwargs):
        """Run one task of ``units`` equal parts; return (result, seconds).
        The host speed during a task is the median of the loops timed
        just before and just after it; consecutive tasks share them."""
        loops = self.calibrations_per_task
        self.attempted += units
        if loops and not self.calibrations:
            self.calibrations += [calibrate() for _ in range(loops)]
        span = self.tracer.span(label) if self.tracer else nullcontext()
        with span:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
        self.task_wall_s += [seconds / units] * units
        scaled = seconds
        if loops:
            self.calibrations += [calibrate() for _ in range(loops)]
            scaled *= REFERENCE_S / statistics.median(self.calibrations[-2 * loops:])
        self.task_s += [scaled / units] * units
        return result, seconds

    def rate(self, name: str, units: float, seconds: float) -> None:
        acc = self.rates.setdefault(name, [0.0, 0.0])
        acc[0] += units
        acc[1] += seconds

    def mean(self, name: str, value: float, unit: str) -> None:
        acc = self.means.setdefault(name, [0.0, 0, unit])
        acc[0] += value
        acc[1] += 1

    def details(self) -> dict[str, tuple[float, str]]:
        """Every rate and mean by name, as (value, unit)."""
        out = {name: (units / seconds, "1/s") for name, (units, seconds) in self.rates.items()}
        out.update({name: (total / count, unit) for name, (total, count, unit) in self.means.items()})
        return out

    def repeat(self, key, value) -> None:
        """Require every round to produce the first round's ``value``."""
        if key in self.first:
            require(self.first[key] == value, f"{key}: {value} differs from {self.first[key]}")
        else:
            self.first[key] = value


def _ta_like(suite: list[Instance], job_count: int, machine_count: int, pick: int) -> Instance:
    """Instance ``pick`` (0-9) of one size of the ta-like suite."""
    sizes = [(j, m) for j, m, _ in TA_LIKE_SIZES]
    return suite[10 * sizes.index((job_count, machine_count)) + pick]


def _size(instance: Instance) -> str:
    return f"{instance.job_count}x{instance.machine_count}"


def _lower_bound(instance: Instance) -> int:
    return instance.machine_load_bound()


# -- dispatch-large ------------------------------------------------------


class CountingPolicy:
    """A policy that counts its decisions."""

    def __init__(self, policy):
        self.policy = policy
        self.decisions = 0

    def logits(self, observation):
        self.decisions += 1
        return self.policy.logits(observation)


def dispatch_prefix(instance: Instance, rule: str, operations: int, vector: bool) -> JobShopEnv:
    """Greedy rule dispatch, as ``greedy_rollout`` does it, stopped after
    ``operations`` operations are scheduled."""
    policy = RulePolicy(rule)
    env = JobShopEnv(instance)
    obs = env.reset()
    done = 0
    while done < operations:
        logits = policy.logits(obs)
        if vector:
            result = env.step_vector(np.argsort(-logits[:-1], kind="stable"))
            done += sum(1 for a in result.applied_actions if a != env.noop_action)
        else:
            result = env.step(masked_argmax(logits, obs.mask))
            done += 1
        obs = result.observation
    return env


@dataclass
class DispatchInputs:
    large: Instance  # generated, dispatched for a prefix of ``prefix_ops``
    prefix_ops: int
    rule_instance: Instance  # full rule rollouts, single-step and vector
    policy_instances: list[Instance]  # greedy net-policy rollouts
    ensemble_instance: Instance
    actors: int
    params: dict
    seed: int


def dispatch_setup(seed: int, toy: bool) -> DispatchInputs:
    pick = seed % 10
    if toy:
        rule_instance = generate_instance(12, 6, seed=seed)
        policy_instances = [generate_instance(6, 6, seed=seed), generate_instance(9, 4, seed=seed)]
        return DispatchInputs(generate_instance(60, 5, seed=seed), 100, rule_instance,
                              policy_instances, policy_instances[0], 2,
                              init_params(PolicyConfig(), seed=0), seed)
    suite = dataset("ta-like")
    return DispatchInputs(
        large=generate_instance(1000, 10, seed=seed),
        prefix_ops=600,
        rule_instance=_ta_like(suite, 100, 20, pick),
        policy_instances=[_ta_like(suite, 15, 15, pick), _ta_like(suite, 50, 20, pick)],
        ensemble_instance=_ta_like(suite, 15, 15, pick),
        actors=4,
        # One fixed initialization: how often a policy picks No-Op, and so
        # how many decisions a rollout takes, depends strongly on it.
        params=init_params(PolicyConfig(), seed=0),
        seed=seed,
    )


def dispatch_round(inp: DispatchInputs, tally: Tally) -> None:
    large = inp.large
    for vector in (False, True):
        name = "vector_ops_per_s" if vector else "rule_ops_per_s"
        env, seconds = tally.timed(f"bench.{name}", 1, dispatch_prefix, large, "mtwr",
                                   inp.prefix_ops, vector)
        starts = [row[:n] for row, n in zip(env.model.starts.tolist(), env.model.n_ops)]
        done = check_partial(large, starts)
        require(done >= inp.prefix_ops, f"prefix scheduled {done} of {inp.prefix_ops} operations")
        tally.rate(name, done, seconds)
        tally.rate(f"{name}@{_size(large)}", done, seconds)
        tally.repeat((name, "prefix"), starts)

    inst = inp.rule_instance
    for rule in RULES:
        for vector in (False, True):
            name = "vector_ops_per_s" if vector else "rule_ops_per_s"
            solution, seconds = tally.timed(f"bench.{name}", 1, greedy_rollout, inst,
                                            RulePolicy(rule), use_vector=vector)
            check_schedule(inst, solution.starts, solution.makespan, left_justified=True)
            tally.rate(name, inst.total_operations, seconds)
            tally.rate(f"{name}@{_size(inst)}", inst.total_operations, seconds)
            tally.ratios.append(solution.makespan / _lower_bound(inst))
            tally.repeat((name, rule), solution.makespan)

    policy = CountingPolicy(NetPolicy(inp.params))
    for inst in inp.policy_instances:
        policy.decisions = 0
        run, seconds = tally.timed("bench.policy_decisions_per_s", 1, rollout, inst, policy)
        check_schedule(inst, run.solution.starts, run.makespan, left_justified=True)
        tally.rate("policy_decisions_per_s", policy.decisions, seconds)
        tally.rate(f"policy_decisions_per_s@{_size(inst)}", policy.decisions, seconds)
        tally.repeat(("policy", inst.name), run.makespan)

    inst = inp.ensemble_instance
    policy.decisions = 0
    result, seconds = tally.timed("bench.ensemble_decisions_per_s", 1, ensemble_solve, inst,
                                  policy, actor_count=inp.actors, seed=inp.seed)
    check_schedule(inst, result.solution.starts, result.best_makespan, left_justified=True)
    require(result.best_makespan == min(result.makespans),
            f"ensemble kept {result.best_makespan}, its actors reached {min(result.makespans)}")
    require(len(result.makespans) == inp.actors, "ensemble ran the wrong number of actors")
    tally.rate("ensemble_decisions_per_s", policy.decisions, seconds)
    tally.repeat(("ensemble", inst.name), result.makespans)


# -- train-epoch ---------------------------------------------------------


@dataclass
class TrainInputs:
    instances: list[Instance]
    config: TrainConfig


def train_setup(seed: int, toy: bool) -> TrainInputs:
    # The criterion-8 training set and a fixed training seed, so that the
    # trained makespan follows the method only; ``seed`` is not used.
    if toy:
        return TrainInputs(
            [generate_instance(4, 3, seed=s) for s in (1, 2)],
            TrainConfig(epochs=1, actor_count=2, max_updates=2, expert_evals_start=40, seed=0),
        )
    return TrainInputs(
        [generate_instance(6, 6, seed=s) for s in (1, 2, 3, 4)],
        TrainConfig(epochs=2, actor_count=8, seed=0),
    )


@contextmanager
def _recording_completions(records: list):
    """Record (instance, completion, warm start) of every expert completion
    that training asks for. Looks ``complete_prefix`` up at each call, so a
    tracer's wrapper stays in the path."""

    def recording(instance, prefix_actions, **kwargs):
        solution = expert.complete_prefix(instance, prefix_actions, **kwargs)
        records.append((instance, solution, kwargs.get("warm")))
        return solution

    original = cpshop.train.complete_prefix
    cpshop.train.complete_prefix = recording
    try:
        yield
    finally:
        cpshop.train.complete_prefix = original


def train_round(inp: TrainInputs, tally: Tally) -> None:
    config = inp.config
    completions: list = []
    with _recording_completions(completions):
        result, seconds = tally.timed("bench.epoch_s", config.epochs, train_loop,
                                      inp.instances, config)
    tally.mean("epoch_s", seconds / config.epochs, "s")
    require(len(completions) == config.epochs * config.actor_count * len(inp.instances),
            f"training asked for {len(completions)} expert completions")
    for instance, solution, warm in completions:
        check_schedule(instance, solution.starts, solution.makespan, left_justified=True)
        require(warm is not None and solution.makespan <= warm.makespan,
                f"expert completion {solution.makespan} is worse than its actor's episode")
    for params in (result.params, result.best_params):
        require(all(np.isfinite(p.data).all() for p in params.values()),
                "trained parameters are not finite")
    policy = NetPolicy(result.best_params, PolicyConfig(next_ops=config.next_ops))
    makespans = []
    for inst in inp.instances:
        run = rollout(inst, policy, horizon=config.horizon, next_ops=config.next_ops)
        check_schedule(inst, run.solution.starts, run.makespan, left_justified=True)
        makespans.append(run.makespan)
        tally.ratios.append(run.makespan / _lower_bound(inst))
    require(float(np.mean(makespans)) == result.best_greedy_mean,
            f"best policy reaches {np.mean(makespans)}, training reported "
            f"{result.best_greedy_mean}")
    tally.mean("trained_makespan", result.best_greedy_mean, "time")
    tally.repeat("trained_makespan", result.best_greedy_mean)
    for row in result.metrics:
        if row["instance"] == inp.instances[0].name:
            tally.mean(f"train_loop_wall_s@epoch{row['epoch']}", row["wall_s"], "s")


# -- anytime-ta ----------------------------------------------------------


@dataclass
class AnytimeInputs:
    instances: list[Instance]
    budget_s: float
    seed: int


def anytime_setup(seed: int, toy: bool) -> AnytimeInputs:
    if toy:
        instances = [generate_instance(5, 3, seed=seed), generate_instance(6, 4, seed=seed),
                     generate_instance(50, 20, seed=0)]
        return AnytimeInputs(instances, 0.3, seed)
    # The first instance of every size, so that the quality figures vary
    # with the local search's seed only, not with how hard the instances
    # are. The exact search fails on 50x20 and 100x20 whatever the seed.
    suite = dataset("ta-like")
    instances = [_ta_like(suite, j, m, 0) for j, m, _ in TA_LIKE_SIZES]
    return AnytimeInputs(instances, 0.8, seed)


def improve_within(instance: Instance, budget_s: float, seed: int):
    """Greedy ``mtwr`` start, then local search for the rest of the budget."""
    start_time = time.perf_counter()
    start = greedy_rollout(instance, RulePolicy("mtwr"))
    left = budget_s - (time.perf_counter() - start_time)
    best = improve(instance, start, evals=10**12, patience=10**12, seed=seed,
                   time_limit=max(left, 0.0))
    return start, best


def anytime_round(inp: AnytimeInputs, tally: Tally) -> None:
    for inst in inp.instances:
        lb = _lower_bound(inst)
        (start, best), seconds = tally.timed("bench.improve", 1, improve_within, inst,
                                             inp.budget_s, inp.seed)
        tally.mean(f"improve_s@{_size(inst)}", seconds, "s")
        check_schedule(inst, start.starts, start.makespan, left_justified=True)
        check_schedule(inst, best.starts, best.makespan, left_justified=True)
        require(best.makespan <= start.makespan,
                f"improve returned {best.makespan}, worse than its start {start.makespan}")
        tally.ratios.append(best.makespan / lb)
        tally.mean("anytime_improve_ratio", best.makespan / lb, "ratio")
        tally.mean(f"anytime_improve_ratio@{_size(inst)}", best.makespan / lb, "ratio")
        try:
            exact, seconds = tally.timed("bench.solve_exact", 1, solve_exact, inst,
                                         time_limit=inp.budget_s, node_limit=None)
        except RecursionError:
            tally.failed += 1
            continue
        check_schedule(inst, exact.solution.starts, exact.solution.makespan)
        tally.mean(f"solve_exact_s@{_size(inst)}", seconds, "s")
        tally.mean("anytime_exact_ratio", exact.solution.makespan / lb, "ratio")
        tally.mean(f"anytime_exact_ratio@{_size(inst)}", exact.solution.makespan / lb, "ratio")


# name -> (setup, round, host-speed loops timed after each task). An
# epoch is long, so it gets more loops; 0 leaves task times unscaled.
WORKLOADS = {
    "dispatch-large": (dispatch_setup, dispatch_round, 1),
    "train-epoch": (train_setup, train_round, 5),
    "anytime-ta": (anytime_setup, anytime_round, 0),
}
