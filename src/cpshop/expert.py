"""Anytime expert solver: exact branch-and-bound plus local-search improvement.

``solve_exact`` enumerates active schedules (Giffler-Thompson conflict
branching) with a lower bound from machine loads and job tails; within
budget it is exact and reports ``certified=True``, otherwise it returns
the best incumbent found. It reads the instance's ``proc`` and
``machine`` tables, as lists built once per call.

``improve`` is a critical-path local search over per-machine operation
sequences: adjacent swaps of critical operations, first-improvement, and
random feasible perturbations when stuck. Operations are numbered job by
job (job ``j``'s ``k``-th is ``first[j] + k``). An operation is critical
when head (earliest start) + processing time + tail (longest path from its
end to the sink) equals the makespan (Taillard 1994). Each candidate swap
is first screened in O(1): the current heads and tails give the longest
path through the swapped pair, and a swap whose path already reaches the
makespan is rejected. That path exists in the swapped graph whenever the
swap is acyclic, and a cyclic swap is rejected anyway, so the screen
cannot change a result. A swap that passes is then rejected unless every
longest path runs through its arc (van Laarhoven, Aarts & Lenstra 1992),
checked against the spans of the critical operations: otherwise a longest
path survives the swap. So only swaps that improve and the perturbations
are re-timed, by ``cpshop.model.earliest_starts`` as in ``compress``.
Pinned operations are never moved, which supports completing a frozen
schedule prefix.

``complete_prefix`` turns a partial dispatch into a full high-quality
schedule: it continues an environment stepped to the cut, finishes a copy
of it greedily, then runs the pinned local search, optionally
warm-started by a known completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from cpshop.env import JobShopEnv
from cpshop.instances import Instance
from cpshop.model import OperationIndex, Solution, earliest_starts, machine_sequences, validate
from cpshop.rules import RulePolicy, rollout


@dataclass(frozen=True)
class ExactResult:
    solution: Solution
    certified: bool
    nodes: int


def _lower_bound(ready, free, rem_job, rem_machine):
    """The largest release plus remaining work over the machines and jobs
    with work left; every processing time is at least 1."""
    return max(t + r for t, r in chain(zip(free, rem_machine), zip(ready, rem_job)) if r)


def _conflict_set(proc, machine, n_ops, cursor, ready, free):
    """Giffler-Thompson branching: the machine that achieves the minimum
    earliest completion time, lowest job first on ties, and its conflicting
    operations as sorted (end, job, start, processing time) tuples."""
    live = []
    for j, k in enumerate(cursor):
        if k < n_ops[j]:
            m = machine[j][k]
            live.append((max(ready[j], free[m]), proc[j][k], j, m))
    best_c, _, best_m = min((s + p, j, m) for s, p, j, m in live)
    conflict = sorted((s + p, j, s, p) for s, p, j, m in live if m == best_m and s < best_c)
    return best_m, conflict


def solve_exact(
    instance: Instance,
    time_limit: float | None = None,
    node_limit: int | None = 200_000,
) -> ExactResult:
    """Branch-and-bound over active schedules; anytime under a budget.
    ``time_limit`` ends the search only once it has found a schedule."""
    jc = instance.job_count
    mc = instance.machine_count
    n_ops = instance.n_ops.tolist()
    proc = instance.proc.tolist()
    machine = instance.machine.tolist()
    total = sum(n_ops)
    deadline = np.inf if time_limit is None else time.monotonic() + time_limit

    best_starts: list[list[int]] | None = None
    best_makespan = np.inf
    nodes = 0
    exhausted = True

    cursor = [0] * jc
    ready = [0] * jc
    free = [0] * mc
    rem_job = instance.proc.sum(axis=1).tolist()
    rem_machine = instance.machine_loads.tolist()
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
        if best_starts is not None and nodes % 256 == 0 and time.monotonic() > deadline:
            exhausted = False
            break
        if scheduled == total:
            makespan = max(ready)
            if makespan < best_makespan:
                best_makespan = makespan
                best_starts = [row.copy() for row in starts]
        elif _lower_bound(ready, free, rem_job, rem_machine) < best_makespan:
            frames.append([*_conflict_set(proc, machine, n_ops, cursor, ready, free), 0, None])
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
        raise RuntimeError("node_limit too small to produce any schedule")
    solution = Solution(
        instance_name=instance.name,
        starts=tuple(tuple(row) for row in best_starts),
        makespan=int(best_makespan),
    )
    return ExactResult(solution=solution, certified=exhausted, nodes=nodes)


# -- local search ----------------------------------------------------------


def _critical(index: OperationIndex, heads, order, machine_next, makespan):
    """Tails (longest path from each operation's end to the sink, by one
    reverse pass over ``order``) and whether each operation lies on a
    longest path: head + p + tail equals the makespan. The tails feed the
    head/tail screen of the candidate swaps, and the critical flags the
    candidates and the spans of the longest-path test."""
    proc, job_next = index.proc, index.job_next
    tails = [0] * len(proc)
    for o in reversed(order):
        succ = job_next[o]
        tail = proc[succ] + tails[succ] if succ >= 0 else 0
        succ = machine_next[o]
        if succ >= 0 and proc[succ] + tails[succ] > tail:
            tail = proc[succ] + tails[succ]
        tails[o] = tail
    return tails, [h + p + t == makespan for h, p, t in zip(heads, proc, tails)]


def _swap_bound(index: OperationIndex, heads, tails, seq, i) -> int:
    """Longest path through ``u = seq[i]`` and ``v = seq[i + 1]`` once they
    swap places, from the heads and tails before the swap (Taillard 1994).

    After the swap, ``v`` starts after its job predecessor and the machine
    predecessor ``seq[i - 1]``; ``u`` ends before its job successor and the
    machine successor ``seq[i + 2]``. A path through the pair enters ``u``
    from its job predecessor, or leaves ``v`` to its job successor, or runs
    ``v`` then ``u``. If the swap leaves the graph acyclic, none of the
    heads and tails read here changes, so this is the length of a real path
    and a lower bound on the makespan after the swap.
    """
    proc, job_next = index.proc, index.job_next
    u, v = seq[i], seq[i + 1]
    # o's job predecessor is o - 1 when that operation's job successor is o
    head_v = heads[v - 1] + proc[v - 1] if v and job_next[v - 1] == v else 0
    if i:
        head_v = max(head_v, heads[seq[i - 1]] + proc[seq[i - 1]])
    tail_u = proc[job_next[u]] + tails[job_next[u]] if job_next[u] >= 0 else 0
    if i + 2 < len(seq):
        tail_u = max(tail_u, proc[seq[i + 2]] + tails[seq[i + 2]])
    into_u = heads[u - 1] + proc[u - 1] if u and job_next[u - 1] == u else 0
    from_v = proc[job_next[v]] + tails[job_next[v]] if job_next[v] >= 0 else 0
    return max(
        into_u + proc[u] + tail_u,
        head_v + proc[v] + max(from_v, proc[u] + tail_u),
    )


def _on_every_longest_path(index: OperationIndex, heads, spans, u, v) -> bool:
    """Whether every longest path runs the machine arc ``u -> v``, given
    ``spans``, the ``(head, end)`` of every critical operation (van
    Laarhoven, Aarts & Lenstra 1992).

    A longest path's operations run back to back from 0 to the makespan,
    so one of them covers ``T = heads[v]``, end points included. On a path
    through a tight arc ``u -> v`` only ``u`` and ``v`` do. So the arc is on
    every longest path exactly when it is tight and no other critical
    operation covers ``T``. A longest path that avoids the arc survives the
    swap, at least as long, so the makespan cannot fall. When none avoids
    it, every path that does not meet ``u`` or ``v`` is shorter than the
    makespan, so a swap that ``_swap_bound`` passes does lower it.
    """
    t = heads[v]
    return heads[u] + index.proc[u] == t and sum(h <= t <= e for h, e in spans) == 2


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

    index = OperationIndex.of(instance)
    for j, k in pinned:
        if not (0 <= j < instance.job_count and 0 <= k < instance.n_ops[j]):
            raise ValueError(f"pinned operation {(j, k)} is not in the instance")
    pins = {index.first[j] + k for j, k in pinned}
    if not (report := validate(instance, solution)):
        raise ValueError(f"cannot improve infeasible solution: {report.violation}")
    # a feasible schedule's start order is its compressed one (p >= 1)
    seqs = machine_sequences(instance, solution)
    current = earliest_starts(index, seqs)
    assert current is not None
    makespan = index.makespan(current[0])
    best_heads = current[0]
    best_makespan = makespan
    # swaps never move a pinned operation, so these positions stay movable
    movable = [
        (m, i)
        for m, seq in enumerate(seqs)
        for i in range(len(seq) - 1)
        if seq[i] not in pins and seq[i + 1] not in pins
    ]
    used = 0
    stale = 0
    while used < evals and stale <= patience and not out_of_time():
        tails, critical = _critical(index, *current, makespan)
        candidates = [
            (m, i) for m, i in movable if critical[seqs[m][i]] and critical[seqs[m][i + 1]]
        ]
        heads = current[0]
        spans = None  # the critical operations' (head, end), built on first use
        improved = False
        for m, i in candidates:
            if used >= evals or out_of_time():
                break
            used += 1
            seq = seqs[m]
            # a swap whose bound reaches the makespan cannot improve it
            if _swap_bound(index, heads, tails, seq, i) >= makespan:
                continue
            if spans is None:
                spans = [(h, h + p) for h, p in compress(zip(heads, index.proc), critical)]
            # nor can one that some longest path avoids
            if not _on_every_longest_path(index, heads, spans, seq[i], seq[i + 1]):
                continue
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
            result = earliest_starts(index, seqs)
            # reversing an arc of every longest path leaves no cycle, and
            # the screen bounds the new paths through it below the makespan
            assert result is not None and index.makespan(result[0]) < makespan
            current, makespan = result, index.makespan(result[0])
            improved = True
            if makespan < best_makespan:
                best_makespan = makespan
                best_heads = current[0]
                stale = 0
            break
        if improved:
            continue
        stale += 1
        # perturb: random feasible adjacent swap of unpinned operations
        if not movable:
            break
        perturbed = False
        for _ in range(8):
            if out_of_time():
                break
            m, i = movable[int(rng.integers(len(movable)))]
            seqs[m][i], seqs[m][i + 1] = seqs[m][i + 1], seqs[m][i]
            result = earliest_starts(index, seqs)
            used += 1
            if result is not None:
                current, makespan = result, index.makespan(result[0])
                perturbed = True
                break
            seqs[m][i], seqs[m][i + 1] = seqs[m][i + 1], seqs[m][i]
        if not perturbed:
            break
    return index.solution(instance.name, best_heads)


def complete_prefix(
    instance: Instance,
    cut: JobShopEnv,
    *,
    warm: Solution | None = None,
    **budget,
) -> Solution:
    """Best-effort completion of a dispatched prefix into a full schedule.

    ``cut`` is an environment stepped through the prefix and is left
    unchanged. The remainder is filled greedily by most work remaining
    (``mtwr``) on a copy of it, replaced by the warm-start completion when
    that is shorter and keeps the prefix, then polished with the prefix
    pinned. ``budget`` holds ``improve``'s ``evals``, ``patience`` and
    ``seed`` keywords, passed on as given.
    """
    if cut.done:
        return cut.solution()
    pinned = {(j, k) for j in range(instance.job_count) for k in range(cut.model.cursor[j])}
    base = rollout(instance, RulePolicy("mtwr"), env=cut.copy()).solution
    if warm is not None and warm.makespan < base.makespan:
        if all(warm.starts[j][k] == base.starts[j][k] for j, k in pinned):
            base = warm
    return improve(instance, base, pinned=frozenset(pinned), **budget)
