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
end to the sink) equals the makespan (Taillard 1994). ``_Timing`` screens
each candidate: ``swap_bound`` is the O(1) longest path through the
swapped pair, and ``on_every_longest_path`` the test that every longest
path runs its arc (van Laarhoven, Aarts & Lenstra 1992); only a swap that
passes both, which improves, and the perturbations are re-timed.
``cpshop.model.earliest_starts`` and one reverse pass give
the heads, tails and a topological order of the start, which ``_Timing``
keeps from swap to swap: it repairs the order with a single-arc
Pearce-Kelly update and relaxes only the heads after, and the tails
before, the swapped pair. It reads the makespan as the largest end of a
job's last operation, and the critical operations by a walk back from
the job-last ones that end at the makespan along tight job and machine
arcs (a predecessor's end equals the head), so a pass does not scan
every operation; the candidates are the critical machine-adjacent pairs
of that set. Pinned operations are never moved, which supports
completing a frozen schedule prefix.

``complete_prefix`` turns a partial dispatch into a full high-quality
schedule: it continues an environment stepped to the cut, finishes a copy
of it greedily, then runs the pinned local search, optionally
warm-started by a known completion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain

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


def _deadline(time_limit: float | None) -> float | None:
    """The ``time.monotonic()`` reading at which ``time_limit`` seconds run
    out, or None for no limit; ``inf`` never runs out."""
    if time_limit is None:
        return None
    if math.isnan(time_limit):
        raise ValueError(f"time_limit must be a number of seconds, not {time_limit}")
    return time.monotonic() + time_limit


def solve_exact(
    instance: Instance,
    time_limit: float | None = None,
    node_limit: int | None = 200_000,
) -> ExactResult:
    """Branch-and-bound over active schedules; anytime under a budget.
    ``time_limit`` ends the search only once it has found a schedule; a
    NaN one raises ``ValueError``."""
    jc = instance.job_count
    mc = instance.machine_count
    n_ops = instance.n_ops.tolist()
    proc = instance.proc.tolist()
    machine = instance.machine.tolist()
    total = sum(n_ops)
    deadline = _deadline(time_limit)

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
        if (deadline is not None and best_starts is not None and nodes % 256 == 0
                and time.monotonic() > deadline):
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


class _Timing:
    """Heads, tails and a topological order of the operations under fixed
    machine sequences, kept up to date across adjacent swaps.

    ``order`` is a topological order of the job and machine arcs and
    ``pos`` each operation's place in it. ``heads``, ``tails``, ``proc``
    and ``pos`` hold one more entry, at index ``n``: a sentinel with head,
    tail and processing time 0 that sits after every operation. A missing
    job or machine neighbour is ``-1``, which indexes the sentinel, so the
    relaxations below read it without a test.
    """

    def __init__(self, index: OperationIndex, seqs: list[list[int]]):
        result = earliest_starts(index, seqs)
        assert result is not None  # the sequences of a feasible schedule
        heads, self.order, self.machine_next = result
        n = len(heads)
        self.seqs = seqs
        self.proc = [*index.proc, 0]
        self.job_next = index.job_next
        # o's job predecessor is o - 1 when that operation's job successor is o
        self.job_prev = [o - 1 if o and index.job_next[o - 1] == o else -1 for o in range(n)]
        self.machine_prev = [-1] * n
        self.place: list[tuple[int, int]] = [(0, 0)] * n  # (machine, slot) in seqs
        for m, seq in enumerate(seqs):
            for i, (a, o) in enumerate(zip([-1, *seq], seq)):
                self.machine_prev[o] = a
                self.place[o] = (m, i)
        self.pos = [0] * n + [n]
        for slot, o in enumerate(self.order):
            self.pos[o] = slot
        # only a job's last operation can end at the makespan
        self.last = [b - 1 for a, b in zip(index.first, index.first[1:]) if b > a]
        self.heads = [*heads, 0]
        self.tails = [0] * (n + 1)
        self._relax_tails(n - 1)

    def _relax_tails(self, last: int) -> None:
        """Recompute the tails of ``order[:last + 1]``, last to first."""
        proc, tails, job_next, machine_next = self.proc, self.tails, self.job_next, self.machine_next
        for o in reversed(self.order[: last + 1]):
            p, q = job_next[o], machine_next[o]
            t, e = proc[p] + tails[p], proc[q] + tails[q]
            tails[o] = t if t > e else e

    def makespan(self) -> int:
        """The largest end of a job's last operation."""
        heads, proc = self.heads, self.proc
        return max((heads[o] + proc[o] for o in self.last), default=0)

    def critical(self, makespan: int) -> set[int]:
        """The operations on a longest path, given the current ``makespan``.

        A walk back from the job-last operations that end at the makespan,
        along the job and machine arcs ``q -> o`` that are tight
        (``heads[q] + proc[q] == heads[o]``). With exact heads and tails
        this is the set where head + processing time + tail equals the
        makespan (Taillard 1994), read off without scanning every operation.
        """
        heads, proc, job_prev, machine_prev = self.heads, self.proc, self.job_prev, self.machine_prev
        found = {o for o in self.last if heads[o] + proc[o] == makespan}
        stack = list(found)
        while stack:
            o = stack.pop()
            h = heads[o]
            for q in (job_prev[o], machine_prev[o]):
                if q >= 0 and heads[q] + proc[q] == h and q not in found:
                    found.add(q)
                    stack.append(q)
        return found

    def candidates(self, critical: set[int], pins: set[int]) -> list[tuple[int, int]]:
        """The ``(machine, slot)`` of every critical operation whose machine
        successor is critical too, neither of them pinned, in machine then
        slot order."""
        machine_next, place = self.machine_next, self.place
        return sorted(
            place[o]
            for o in critical
            if machine_next[o] in critical and o not in pins and machine_next[o] not in pins
        )

    def swap_bound(self, m: int, i: int) -> int:
        """Longest path through ``u = seqs[m][i]`` and ``v = seqs[m][i + 1]``
        once they swap places, from the heads and tails before the swap
        (Taillard 1994).

        After the swap, ``v`` starts after its job predecessor and ``u``'s
        machine predecessor; ``u`` ends before its job successor and
        ``v``'s machine successor. A path through the pair enters ``u``
        from its job predecessor, or leaves ``v`` to its job successor, or
        runs ``v`` then ``u``. If the swap leaves the graph acyclic, none of
        the heads and tails read here changes, so this is the length of a
        real path and a lower bound on the makespan after the swap.
        """
        seq = self.seqs[m]
        u, v = seq[i], seq[i + 1]
        heads, tails, proc, job_prev, job_next = (
            self.heads, self.tails, self.proc, self.job_prev, self.job_next)
        a, b = self.machine_prev[u], self.machine_next[v]
        pred_u, succ_u, pred_v, succ_v = job_prev[u], job_next[u], job_prev[v], job_next[v]
        head_v = max(heads[pred_v] + proc[pred_v], heads[a] + proc[a])
        tail_u = max(proc[succ_u] + tails[succ_u], proc[b] + tails[b])
        return max(
            heads[pred_u] + proc[pred_u] + proc[u] + tail_u,
            head_v + proc[v] + proc[succ_v] + tails[succ_v],
            head_v + proc[v] + proc[u] + tail_u,
        )

    def on_every_longest_path(self, critical: set[int], m: int, i: int) -> bool:
        """Whether every longest path runs the machine arc ``u -> v`` of
        ``u = seqs[m][i]`` and ``v = seqs[m][i + 1]``, given the
        ``critical`` set (van Laarhoven, Aarts & Lenstra 1992).

        A longest path's operations run back to back from 0 to the makespan,
        so one of them covers ``T = heads[v]``, end points included. On a path
        through a tight arc ``u -> v`` only ``u`` and ``v`` do. So the arc is on
        every longest path exactly when it is tight and no other critical
        operation covers ``T``. A longest path that avoids the arc survives the
        swap, at least as long, so the makespan cannot fall. When none avoids
        it, every path that does not meet ``u`` or ``v`` is shorter than the
        makespan, so a swap that :meth:`swap_bound` passes does lower it.
        """
        seq, heads, proc = self.seqs[m], self.heads, self.proc
        u, v = seq[i], seq[i + 1]
        t = heads[v]
        return heads[u] + proc[u] == t and sum(
            heads[o] <= t <= heads[o] + proc[o] for o in critical
        ) == 2

    def _link(self, m: int, i: int, a: int, x: int, y: int, b: int) -> None:
        """Make ``seqs[m][i], seqs[m][i + 1]`` the pair ``x, y``, linked
        ``a -> x -> y -> b``."""
        seq = self.seqs[m]
        seq[i], seq[i + 1] = x, y
        self.place[x], self.place[y] = (m, i), (m, i + 1)
        machine_prev, machine_next = self.machine_prev, self.machine_next
        if a >= 0:
            machine_next[a] = x
        if b >= 0:
            machine_prev[b] = y
        machine_prev[x], machine_next[x] = a, y
        machine_prev[y], machine_next[y] = x, b

    def swap(self, m: int, i: int) -> bool:
        """Swap ``u = seqs[m][i]`` and ``v = seqs[m][i + 1]`` and re-time the
        heads and tails; or, when the swap would close a cycle, leave every
        field unchanged and return False.

        The order is repaired by a single-arc Pearce-Kelly update (Pearce &
        Kelly 2006): the new arc ``v -> u`` breaks it only between ``pos[u]``
        and ``pos[v]``. The operations there that ``u`` reaches must follow
        those that reach ``v``, so the two sets trade slots, each in its old
        order. Heads change only from ``pos[u]`` on, tails only up to
        ``pos[v]``.
        """
        seq = self.seqs[m]
        u, v = seq[i], seq[i + 1]
        a, b = self.machine_prev[u], self.machine_next[v]
        self._link(m, i, a, v, u, b)
        pos, job_next, machine_next = self.pos, self.job_next, self.machine_next
        lo, hi = pos[u], pos[v]
        forward = {u}
        stack = [u]
        while stack:
            o = stack.pop()
            for s in (job_next[o], machine_next[o]):
                if s == v:  # u reaches v, so v -> u closes a cycle
                    self._link(m, i, a, u, v, b)
                    return False
                if pos[s] < hi and s not in forward:
                    forward.add(s)
                    stack.append(s)
        backward = {v}
        stack = [v]
        job_prev, machine_prev = self.job_prev, self.machine_prev
        while stack:
            o = stack.pop()
            for s in (job_prev[o], machine_prev[o]):
                if s >= 0 and pos[s] > lo and s not in backward:
                    backward.add(s)
                    stack.append(s)
        moved = [*sorted(backward, key=pos.__getitem__), *sorted(forward, key=pos.__getitem__)]
        order = self.order
        for slot, o in zip(sorted(map(pos.__getitem__, moved)), moved):
            order[slot] = o
            pos[o] = slot
        proc, heads = self.proc, self.heads
        for o in order[lo:]:
            p, q = job_prev[o], machine_prev[o]
            h, e = heads[p] + proc[p], heads[q] + proc[q]
            heads[o] = h if h > e else e
        self._relax_tails(hi)
        return True


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
    schedule prefix they form survives re-timing unchanged in order. A NaN
    ``time_limit`` raises ``ValueError``; ``inf`` means no limit.
    """
    rng = np.random.default_rng(seed)
    deadline = _deadline(time_limit)

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
    timing = _Timing(index, seqs)
    heads = timing.heads  # updated in place by each swap
    makespan = timing.makespan()
    best_makespan = makespan
    best_heads = None  # a copy of the best heads; None while they are the current ones
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
        critical = timing.critical(makespan)
        candidates = timing.candidates(critical, pins)
        improved = False
        for m, i in candidates:
            if used >= evals or out_of_time():
                break
            used += 1
            # a swap whose bound reaches the makespan cannot improve it
            if timing.swap_bound(m, i) >= makespan:
                continue
            # nor can one that some longest path avoids
            if not timing.on_every_longest_path(critical, m, i):
                continue
            acyclic = timing.swap(m, i)
            new_makespan = timing.makespan()
            # reversing an arc of every longest path leaves no cycle, and
            # the screen bounds the new paths through it below the makespan
            assert acyclic and new_makespan < makespan
            makespan = new_makespan
            improved = True
            if makespan < best_makespan:
                best_makespan = makespan
                best_heads = None
                stale = 0
            break
        if improved:
            continue
        stale += 1
        # perturb: random feasible adjacent swap of unpinned operations
        if not movable:
            break
        if best_heads is None:
            best_heads = heads.copy()
        perturbed = False
        for _ in range(8):
            if out_of_time():
                break
            m, i = movable[int(rng.integers(len(movable)))]
            used += 1
            if timing.swap(m, i):
                makespan = timing.makespan()
                perturbed = True
                break
        if not perturbed:
            break
    return index.solution(instance.name, heads if best_heads is None else best_heads)


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
