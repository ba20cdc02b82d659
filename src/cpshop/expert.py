"""Anytime expert solver: exact branch-and-bound plus local-search improvement.

``solve_exact`` enumerates active schedules (Giffler-Thompson conflict
branching) with a lower bound from machine loads and job tails; within
budget it is exact and reports ``certified=True``, otherwise it returns
the best incumbent found.

``improve`` is a critical-path local search over per-machine operation
sequences: adjacent swaps of critical operations, first-improvement, and
random feasible perturbations when stuck. A set of pinned operations is
never moved, which supports completing a frozen schedule prefix.

``complete_prefix`` turns a partial dispatch into a full high-quality
schedule: replay the prefix, finish greedily, then run the pinned local
search, optionally warm-started by a known completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from cpshop.env import JobShopEnv
from cpshop.instances import Instance
from cpshop.model import Solution, compress


@dataclass(frozen=True)
class ExpertConfig:
    """Budgets for the expert. ``None`` disables a limit; step budgets make
    runs deterministic, wall-clock budgets make them anytime."""

    time_limit: float | None = None
    node_limit: int | None = 200_000
    improve_evals: int = 4000
    patience: int = 60
    seed: int = 0


@dataclass(frozen=True)
class ExactResult:
    solution: Solution
    certified: bool
    nodes: int


def _lower_bound(instance, ready, free, cursor, rem_job, rem_machine):
    lb = 0
    for m in range(instance.machine_count):
        if rem_machine[m]:
            lb = max(lb, free[m] + rem_machine[m])
    for j in range(instance.job_count):
        if cursor[j] < len(instance.jobs[j]):
            lb = max(lb, ready[j] + rem_job[j])
    return lb


def _conflict_set(instance, n_ops, cursor, ready, free):
    """Giffler-Thompson branching: the machine that achieves the minimum
    earliest completion time, and its conflicting operations as sorted
    (end, job, start, processing time) tuples."""
    best_c = np.inf
    best_m = -1
    for j in range(instance.job_count):
        k = cursor[j]
        if k >= n_ops[j]:
            continue
        op = instance.jobs[j][k]
        c = max(ready[j], free[op.machine]) + op.processing_time
        if c < best_c:
            best_c = c
            best_m = op.machine
    conflict = []
    for j in range(instance.job_count):
        k = cursor[j]
        if k >= n_ops[j]:
            continue
        op = instance.jobs[j][k]
        if op.machine != best_m:
            continue
        s = max(ready[j], free[op.machine])
        if s < best_c:
            conflict.append((s + op.processing_time, j, s, op.processing_time))
    conflict.sort()
    return best_m, conflict


def solve_exact(
    instance: Instance,
    time_limit: float | None = None,
    node_limit: int | None = 200_000,
) -> ExactResult:
    """Branch-and-bound over active schedules; anytime under a budget."""
    jc = instance.job_count
    mc = instance.machine_count
    n_ops = [len(ops) for ops in instance.jobs]
    total = sum(n_ops)
    deadline = None if time_limit is None else time.monotonic() + time_limit

    best_starts: list[list[int]] | None = None
    best_makespan = np.inf
    nodes = 0
    exhausted = True

    cursor = [0] * jc
    ready = [0] * jc
    free = [0] * mc
    rem_job = [sum(op.processing_time for op in ops) for ops in instance.jobs]
    rem_machine = [0] * mc
    for ops in instance.jobs:
        for op in ops:
            rem_machine[op.machine] += op.processing_time
    starts = [[0] * n for n in n_ops]

    # Depth-first search with an explicit stack, one frame per expanded
    # node: [machine, children, next child, undo record of the applied one]
    frames: list[list] = []
    scheduled = 0
    while True:
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            exhausted = False
            break
        if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
            exhausted = False
            break
        if scheduled == total:
            makespan = max(ready)
            if makespan < best_makespan:
                best_makespan = makespan
                best_starts = [row.copy() for row in starts]
        elif _lower_bound(instance, ready, free, cursor, rem_job, rem_machine) < best_makespan:
            frames.append([*_conflict_set(instance, n_ops, cursor, ready, free), 0, None])
        # backtrack to the deepest frame with a child left and apply it
        while frames:
            frame = frames[-1]
            m, conflict, i, undo = frame
            if undo is not None:
                j, k, old_ready, old_free, p = undo
                cursor[j] = k
                ready[j] = old_ready
                free[m] = old_free
                rem_job[j] += p
                rem_machine[m] += p
                scheduled -= 1
            if i == len(conflict):
                frames.pop()
                continue
            _, j, s, p = conflict[i]
            k = cursor[j]
            frame[2] = i + 1
            frame[3] = (j, k, ready[j], free[m], p)
            starts[j][k] = s
            cursor[j] = k + 1
            ready[j] = s + p
            free[m] = s + p
            rem_job[j] -= p
            rem_machine[m] -= p
            scheduled += 1
            break
        else:
            break
    if best_starts is None:
        raise RuntimeError("budget too small to produce any schedule")
    solution = Solution(
        instance_name=instance.name,
        starts=tuple(tuple(row) for row in best_starts),
        makespan=int(best_makespan),
    )
    return ExactResult(solution=solution, certified=exhausted, nodes=nodes)


# -- machine-sequence evaluation ----------------------------------------


def _machine_sequences(instance: Instance, solution: Solution) -> list[list[tuple[int, int]]]:
    seqs: list[list[tuple[int, int, int]]] = [[] for _ in range(instance.machine_count)]
    for j, (row, ops) in enumerate(zip(solution.starts, instance.jobs)):
        for k, (s, op) in enumerate(zip(row, ops)):
            seqs[op.machine].append((s, j, k))
    return [[(j, k) for _, j, k in sorted(seq)] for seq in seqs]


def _evaluate(instance: Instance, seqs: list[list[tuple[int, int]]]):
    """Earliest starts under fixed machine sequences via topological order.

    Returns (starts, makespan) or (None, None) when the combined
    precedence graph has a cycle.
    """
    n_ops = [len(ops) for ops in instance.jobs]
    starts = [[-1] * n for n in n_ops]
    mpos = {}
    for m, seq in enumerate(seqs):
        for i, (j, k) in enumerate(seq):
            mpos[(j, k)] = (m, i)
    indeg = {}
    for j, n in enumerate(n_ops):
        for k in range(n):
            d = 0
            if k > 0:
                d += 1
            m, i = mpos[(j, k)]
            if i > 0:
                d += 1
            indeg[(j, k)] = d
    frontier = [(j, k) for (j, k), d in indeg.items() if d == 0]
    job_end = [0] * instance.job_count
    mach_end = [0] * instance.machine_count
    done = 0
    makespan = 0
    while frontier:
        nxt = []
        for j, k in frontier:
            op = instance.jobs[j][k]
            s = max(job_end[j], mach_end[op.machine])
            starts[j][k] = s
            end = s + op.processing_time
            job_end[j] = max(job_end[j], end)
            mach_end[op.machine] = max(mach_end[op.machine], end)
            makespan = max(makespan, end)
            done += 1
            if k + 1 < n_ops[j]:
                indeg[(j, k + 1)] -= 1
                if indeg[(j, k + 1)] == 0:
                    nxt.append((j, k + 1))
            m, i = mpos[(j, k)]
            if i + 1 < len(seqs[m]):
                succ = seqs[m][i + 1]
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    nxt.append(succ)
        frontier = nxt
    if done != sum(n_ops):
        return None, None
    return starts, makespan


def _critical_pairs(instance, seqs, starts, makespan):
    """Adjacent same-machine pairs lying on a critical path."""
    ends = {}
    for j, row in enumerate(starts):
        for k, s in enumerate(row):
            ends[(j, k)] = s + instance.jobs[j][k].processing_time
    critical = set()
    stack = [op for op, e in ends.items() if e == makespan]
    mpos = {}
    for m, seq in enumerate(seqs):
        for i, (j, k) in enumerate(seq):
            mpos[(j, k)] = (m, i)
    while stack:
        op = stack.pop()
        if op in critical:
            continue
        critical.add(op)
        j, k = op
        s = starts[j][k]
        if k > 0 and ends[(j, k - 1)] == s:
            stack.append((j, k - 1))
        m, i = mpos[op]
        if i > 0 and ends[seqs[m][i - 1]] == s:
            stack.append(seqs[m][i - 1])
    pairs = []
    for m, seq in enumerate(seqs):
        for i in range(len(seq) - 1):
            if seq[i] in critical and seq[i + 1] in critical:
                pairs.append((m, i))
    return pairs


def improve(
    instance: Instance,
    solution: Solution,
    evals: int = 4000,
    patience: int = 60,
    seed: int = 0,
    pinned: frozenset[tuple[int, int]] | set[tuple[int, int]] = frozenset(),
    time_limit: float | None = None,
) -> Solution:
    """Critical-path adjacent-swap local search; never worsens the input.

    ``pinned`` operations keep their machine-sequence positions, so any
    schedule prefix they form survives re-timing unchanged in order.
    """
    rng = np.random.default_rng(seed)
    deadline = None if time_limit is None else time.monotonic() + time_limit

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() > deadline

    seqs = _machine_sequences(instance, compress(instance, solution))
    starts, makespan = _evaluate(instance, seqs)
    assert starts is not None
    best_starts = starts
    best_makespan = makespan
    used = 0
    stale = 0
    while used < evals and stale <= patience and not out_of_time():
        pairs = _critical_pairs(instance, seqs, starts, makespan)
        candidates = [
            (m, i)
            for m, i in pairs
            if seqs[m][i] not in pinned and seqs[m][i + 1] not in pinned
        ]
        improved = False
        for m, i in candidates:
            if used >= evals or out_of_time():
                break
            seqs[m][i], seqs[m][i + 1] = seqs[m][i + 1], seqs[m][i]
            new_starts, new_makespan = _evaluate(instance, seqs)
            used += 1
            if new_starts is not None and new_makespan < makespan:
                starts, makespan = new_starts, new_makespan
                improved = True
                if makespan < best_makespan:
                    best_makespan = makespan
                    best_starts = starts
                    stale = 0
                break
            seqs[m][i], seqs[m][i + 1] = seqs[m][i + 1], seqs[m][i]
        if improved:
            continue
        stale += 1
        # perturb: random feasible adjacent swap of unpinned operations
        movable = [
            (m, i)
            for m, seq in enumerate(seqs)
            for i in range(len(seq) - 1)
            if seq[i] not in pinned and seq[i + 1] not in pinned
        ]
        if not movable:
            break
        perturbed = False
        for _ in range(8):
            if out_of_time():
                break
            m, i = movable[int(rng.integers(len(movable)))]
            seqs[m][i], seqs[m][i + 1] = seqs[m][i + 1], seqs[m][i]
            new_starts, new_makespan = _evaluate(instance, seqs)
            used += 1
            if new_starts is not None:
                starts, makespan = new_starts, new_makespan
                perturbed = True
                break
            seqs[m][i], seqs[m][i + 1] = seqs[m][i + 1], seqs[m][i]
        if not perturbed:
            break
    return Solution(
        instance_name=instance.name,
        starts=tuple(tuple(row) for row in best_starts),
        makespan=int(best_makespan),
    )


def complete_prefix(
    instance: Instance,
    prefix_actions: list[int],
    config: ExpertConfig = ExpertConfig(),
    policy=None,
    warm: Solution | None = None,
    horizon: int = 10,
    next_ops: int = 3,
) -> Solution:
    """Best-effort completion of a dispatched prefix into a full schedule.

    The prefix actions are replayed verbatim; the remainder is filled
    greedily with ``policy`` (most work remaining, by default), optionally
    compared against a warm-start completion, then polished with the
    prefix pinned.
    """
    from cpshop.rules import RulePolicy, rollout

    env = JobShopEnv(instance, horizon=horizon, next_ops=next_ops)
    env.reset()
    pinned = set()
    for action in prefix_actions:
        if action != env.noop_action:
            pinned.add((int(action), int(env.model.cursor[action])))
        env.step(action)
    if env.done:
        return env.solution()
    base = rollout(instance, policy or RulePolicy("mtwr"), env=env).solution
    if warm is not None and warm.makespan < base.makespan:
        prefix_ok = all(
            warm.starts[j][k] == s
            for (j, k), s in (
                ((j, k), base.starts[j][k]) for (j, k) in pinned
            )
        )
        if prefix_ok:
            base = warm
    return improve(
        instance,
        base,
        evals=config.improve_evals,
        patience=config.patience,
        seed=config.seed,
        pinned=frozenset(pinned),
        time_limit=config.time_limit,
    )
