"""Schedule checker of the benchmark, written apart from ``cpshop.model``.

A schedule is a start time per operation (``starts[j][k]``). The checker
confirms job precedence, machine no-overlap, the reported makespan, and
the two classic makespan lower bounds (largest machine load, longest
job). With ``left_justified`` it also requires every start to equal the
end of the operation's job predecessor or machine predecessor (0 for a
first operation), the form every dispatching environment schedule and
every re-timed local-search schedule has.

A partial schedule marks unscheduled operations with a negative start;
its scheduled operations must form a prefix of every job.
"""

from __future__ import annotations


class CheckError(Exception):
    """A schedule or a property of a workload's outputs is wrong."""


def _scheduled(instance, starts, complete: bool):
    """Yield (job, op index, start, machine, length) of scheduled operations."""
    if len(starts) != instance.job_count:
        raise CheckError(f"{len(starts)} job rows for {instance.job_count} jobs")
    for j, (row, ops) in enumerate(zip(starts, instance.jobs)):
        if len(row) != len(ops):
            raise CheckError(f"job {j}: {len(row)} starts for {len(ops)} operations")
        gap = False
        for k, (s, op) in enumerate(zip(row, ops)):
            s = int(s)
            if s < 0:
                if complete:
                    raise CheckError(f"operation ({j},{k}) has no start")
                gap = True
            elif gap:
                raise CheckError(f"operation ({j},{k}) is scheduled after an unscheduled one")
            else:
                yield j, k, s, op.machine, op.processing_time


def _check(instance, starts, complete: bool, left_justified: bool) -> int:
    """Check precedence, no-overlap and left-justification; return the
    largest end of a scheduled operation."""
    job_end: dict[int, int] = {}
    per_machine: dict[int, list[tuple[int, int, int, int]]] = {}
    earliest: dict[tuple[int, int], int] = {}
    largest_end = 0
    for j, k, s, m, p in _scheduled(instance, starts, complete):
        if k > 0 and s < job_end[j]:
            raise CheckError(
                f"precedence: job {j} op {k} starts at {s}, op {k - 1} ends at {job_end[j]}"
            )
        earliest[(j, k)] = job_end.get(j, 0)
        job_end[j] = s + p
        largest_end = max(largest_end, s + p)
        per_machine.setdefault(m, []).append((s, s + p, j, k))
    for m, entries in per_machine.items():
        entries.sort()
        previous_end = 0
        for s, e, j, k in entries:
            if s < previous_end:
                raise CheckError(f"overlap on machine {m}: op ({j},{k}) starts at {s} "
                                 f"before the previous one ends at {previous_end}")
            if left_justified and s != max(earliest[(j, k)], previous_end):
                raise CheckError(
                    f"op ({j},{k}) starts at {s}, but its predecessors let it start at "
                    f"{max(earliest[(j, k)], previous_end)}"
                )
            previous_end = e
    return largest_end


def check_schedule(instance, starts, makespan: int, left_justified: bool = False) -> None:
    """Raise CheckError unless ``starts`` is a feasible complete schedule
    whose makespan is ``makespan``."""
    largest_end = _check(instance, starts, complete=True, left_justified=left_justified)
    if makespan != largest_end:
        raise CheckError(f"reported makespan {makespan}, largest end {largest_end}")
    load = [0] * instance.machine_count
    for ops in instance.jobs:
        for op in ops:
            load[op.machine] += op.processing_time
    longest_job = max(sum(op.processing_time for op in ops) for ops in instance.jobs)
    if makespan < max(load) or makespan < longest_job:
        raise CheckError(f"makespan {makespan} is below a lower bound "
                         f"(machine load {max(load)}, longest job {longest_job})")


def check_partial(instance, starts, left_justified: bool = True) -> int:
    """Raise CheckError unless the scheduled operations of a partial
    schedule are feasible; return how many are scheduled."""
    _check(instance, starts, complete=False, left_justified=left_justified)
    return sum(1 for row in starts for s in row if s >= 0)


def require(condition: bool, message: str) -> None:
    """Raise CheckError with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckError(message)
