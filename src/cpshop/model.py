"""Scheduling state: the schedule fixed so far, one operation at a time.

The model stores, per job, a cursor to the current (first unfixed)
operation, the end of the job's last fixed operation, and per machine its
release time; its operation tables are the instance's own read-only
arrays. The start lower bound of a job's current operation is the max of
its predecessor's end and the release time of its machine; the model
computes it only in :meth:`ModelState.fix_start`, for the job it fixes,
and the dispatching environment reads it for every job off its settled
window. This is exact for the chronological lower-bound fixing that
environment performs.

Also provides solution validation, which checks each job's row of starts
against its row of the instance's ``proc`` and ``machine`` tables, and
the package's one evaluator of earliest starts under fixed machine
orders. It numbers the operations job by job (:class:`OperationIndex`),
reads each machine's sequence off a solution and the machine table
(:func:`machine_sequences`) and computes the heads in one Kahn pass
(:func:`earliest_starts`). Solution compression and the expert's local
search both use it.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from cpshop.instances import Instance

NOT_FIXED = -1


@dataclass(frozen=True)
class Solution:
    """Start time per operation plus the resulting makespan."""

    instance_name: str
    starts: tuple[tuple[int, ...], ...]
    makespan: int


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.feasible


class ModelState:
    """Mutable scheduling state over one instance.

    Single-owner: one ModelState per worker. The instance itself is
    immutable and may be shared freely.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.n_ops, self.proc, self.machine = instance.n_ops, instance.proc, instance.machine
        self.op_count = instance.total_operations
        jc, max_ops = self.proc.shape
        self.cursor = np.zeros(jc, dtype=np.int64)
        self.prev_end = np.zeros(jc, dtype=np.int64)
        self.release = np.zeros(instance.machine_count, dtype=np.int64)
        self.starts = np.full((jc, max_ops), NOT_FIXED, dtype=np.int64)
        self.fixed_count = 0

    def copy(self) -> ModelState:
        """An independent state at the same point of the schedule. Only the
        arrays that :meth:`fix_start` mutates are copied; the instance and
        the operation tables are shared."""
        twin = copy.copy(self)
        twin.cursor = self.cursor.copy()
        twin.prev_end = self.prev_end.copy()
        twin.release = self.release.copy()
        twin.starts = self.starts.copy()
        return twin

    # -- queries ---------------------------------------------------------

    @property
    def complete(self) -> bool:
        return self.fixed_count == self.op_count

    def alive(self) -> np.ndarray:
        """Boolean mask of jobs that still have unfixed operations."""
        return self.cursor < self.n_ops

    # -- transitions -----------------------------------------------------

    def fix_start(self, job: int) -> int:
        """Fix the current operation of ``job`` at its start lower bound.

        Updates the machine release and advances the job cursor. Returns
        the fixed start time.
        """
        k = int(self.cursor[job])
        if k >= self.n_ops[job]:
            raise ValueError(f"job {job} has no unfixed operation left")
        m = int(self.machine[job, k])
        lb = max(int(self.prev_end[job]), int(self.release[m]))
        end = lb + int(self.proc[job, k])
        self.starts[job, k] = lb
        self.prev_end[job] = end
        self.release[m] = end
        self.cursor[job] = k + 1
        self.fixed_count += 1
        return lb

    def solution(self) -> Solution:
        if not self.complete:
            raise ValueError("schedule is not complete")
        starts = tuple(
            tuple(int(s) for s in self.starts[j, : self.n_ops[j]])
            for j in range(self.instance.job_count)
        )
        makespan = int(self.prev_end.max())
        return Solution(instance_name=self.instance.name, starts=starts, makespan=makespan)


# -- earliest starts under fixed machine orders ----------------------------


@dataclass(frozen=True)
class OperationIndex:
    """Operations numbered job by job: job ``j``'s ``k``-th operation is
    ``first[j] + k``, and ``first[job_count]`` is the operation count."""

    first: list[int]
    proc: list[int]
    job_next: list[int]  # the job's next operation, -1 after its last

    @classmethod
    def of(cls, instance: Instance) -> OperationIndex:
        first = [0, *np.cumsum(instance.n_ops).tolist()]
        proc = instance.proc[instance.proc > 0].tolist()
        job_next = [
            o + 1 if o + 1 < b else -1 for a, b in zip(first, first[1:]) for o in range(a, b)
        ]
        return cls(first, proc, job_next)

    def makespan(self, heads: list[int]) -> int:
        return max(map(operator.add, heads, self.proc), default=0)

    def solution(self, instance_name: str, heads: list[int]) -> Solution:
        starts = tuple(tuple(heads[a:b]) for a, b in zip(self.first, self.first[1:]))
        return Solution(instance_name, starts, self.makespan(heads))


def machine_sequences(instance: Instance, solution: Solution) -> list[list[int]]:
    """Each machine's operation numbers in start order."""
    seqs: list[list[tuple[int, int]]] = [[] for _ in range(instance.machine_count)]
    machines = instance.machine[instance.proc > 0].tolist()
    for o, (s, m) in enumerate(zip(chain.from_iterable(solution.starts), machines)):
        seqs[m].append((s, o))
    return [[o for _, o in sorted(seq)] for seq in seqs]


def earliest_starts(index: OperationIndex, seqs: list[list[int]]):
    """Heads (earliest starts) under fixed machine sequences, by one Kahn
    pass over the job and machine arcs.

    Returns ``(heads, order, machine_next)``, with ``order`` a topological
    order of the operations and ``machine_next`` each operation's machine
    successor (-1 for the last), or None when the arcs form a cycle.
    """
    n = len(index.proc)
    proc, job_next = index.proc, index.job_next
    machine_next = [-1] * n
    indeg = [1] * n
    for f in index.first[:-1]:
        if f < n:  # a job's first operation has no job predecessor
            indeg[f] = 0
    for seq in seqs:
        for a, b in zip(seq, seq[1:]):
            machine_next[a] = b
            indeg[b] += 1
    heads = [0] * n
    order = [o for o in range(n) if indeg[o] == 0]
    for o in order:  # grows while it is walked
        end = heads[o] + proc[o]
        for succ in (job_next[o], machine_next[o]):
            if succ >= 0:
                if end > heads[succ]:
                    heads[succ] = end
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    order.append(succ)
    if len(order) < n:
        return None
    return heads, order, machine_next


def validate(instance: Instance, solution: Solution) -> ValidationReport:
    """Check precedence, machine no-overlap, and the reported makespan."""
    if len(solution.starts) != instance.job_count:
        return ValidationReport(
            False, f"solution has {len(solution.starts)} jobs, instance has {instance.job_count}"
        )
    for j, (row, n) in enumerate(zip(solution.starts, instance.n_ops.tolist())):
        if len(row) != n:
            return ValidationReport(False, f"job {j}: {len(row)} start times for {n} operations")
    max_end = 0
    per_machine: dict[int, list[tuple[int, int, int, int]]] = {}
    rows = zip(solution.starts, instance.proc.tolist(), instance.machine.tolist())
    for j, (row, procs, machines) in enumerate(rows):
        # a row of starts is as long as the job, so the zip stops at its padding
        for k, (s, p, m) in enumerate(zip(row, procs, machines)):
            if s < 0:
                return ValidationReport(False, f"operation ({j},{k}) has negative start {s}")
            end = s + p
            max_end = max(max_end, end)
            if k + 1 < len(row) and end > row[k + 1]:
                return ValidationReport(
                    False,
                    f"precedence violation in job {j}: op {k} ends at {end}, "
                    f"op {k + 1} starts at {row[k + 1]}",
                )
            per_machine.setdefault(m, []).append((s, end, j, k))
    for m, entries in per_machine.items():
        entries.sort()
        for (s1, e1, j1, k1), (s2, e2, j2, k2) in zip(entries, entries[1:]):
            if e1 > s2:
                return ValidationReport(
                    False,
                    f"overlap on machine {m}: ops ({j1},{k1}) [{s1},{e1}) and "
                    f"({j2},{k2}) [{s2},{e2})",
                )
    if max_end != solution.makespan:
        return ValidationReport(
            False, f"reported makespan {solution.makespan} != recomputed {max_end}"
        )
    return ValidationReport(True)


def compress(instance: Instance, solution: Solution) -> Solution:
    """Pull every start to its earliest feasible time under the solution's
    per-machine operation order.

    The per-machine order and job order of the input are preserved; every
    output start is <= its input start and the makespan never increases.
    """
    report = validate(instance, solution)
    if not report:
        raise ValueError(f"cannot compress infeasible solution: {report.violation}")
    index = OperationIndex.of(instance)
    heads, _, _ = earliest_starts(index, machine_sequences(instance, solution))
    return index.solution(solution.instance_name, heads)
