"""Parsing, generation, and serialization of job-shop instances.

Two text formats are supported:

* ``orlib``: a header line ``<jobs> <machines>`` followed by one line per
  job holding ``(machine, processing_time)`` pairs, machines 0-indexed.
* ``taillard``: a header line starting with ``<jobs> <machines>``
  (surplus header tokens are ignored), a jobs-by-machines matrix of
  processing times, then a matrix of machine numbers, 1-indexed.

All internal machine indices are 0-based; Taillard machine numbers are
converted on parse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

FORMATS = ("orlib", "taillard")


class InstanceFormatError(ValueError):
    """Raised for malformed instance files; message carries the line number,
    and the file name when a file was read."""


@dataclass(frozen=True)
class Operation:
    """One processing step of a job on a fixed machine."""

    machine: int
    processing_time: int


@dataclass(frozen=True)
class Instance:
    """An immutable job-shop problem definition.

    ``jobs[j]`` is the ordered operation sequence of job ``j``; the order
    encodes the in-job precedence relation.
    """

    name: str
    job_count: int
    machine_count: int
    jobs: tuple[tuple[Operation, ...], ...]

    def __post_init__(self) -> None:
        if self.job_count < 1 or self.machine_count < 1:
            raise ValueError("instance needs at least one job and one machine")
        if len(self.jobs) != self.job_count:
            raise ValueError("job_count does not match number of job sequences")
        for j, ops in enumerate(self.jobs):
            seen: set[int] = set()
            for op in ops:
                if op.processing_time < 1:
                    raise ValueError(f"job {j}: processing time must be >= 1")
                if not 0 <= op.machine < self.machine_count:
                    raise ValueError(f"job {j}: machine {op.machine} out of range")
                if op.machine in seen:
                    warnings.warn(
                        f"job {j} visits machine {op.machine} more than once",
                        stacklevel=2,
                    )
                seen.add(op.machine)
        if not any(self.jobs):
            raise ValueError("instance needs at least one operation")

    @cached_property
    def n_ops(self) -> np.ndarray:
        """Operation count per job, ``(job_count,)``."""
        return _read_only(np.array([len(ops) for ops in self.jobs], dtype=np.int64))

    @cached_property
    def proc(self) -> np.ndarray:
        """Processing times, ``(job_count, max ops)``; 0, never a real time, past a job's end."""
        return self._table([op.processing_time for ops in self.jobs for op in ops])

    @cached_property
    def machine(self) -> np.ndarray:
        """Machines laid out as :attr:`proc`; the padding 0 is a valid index."""
        return self._table([op.machine for ops in self.jobs for op in ops])

    @cached_property
    def machine_loads(self) -> np.ndarray:
        """Total processing time per machine, ``(machine_count,)``."""
        loads = np.zeros(self.machine_count, dtype=np.int64)
        np.add.at(loads, self.machine, self.proc)  # padding adds 0
        return _read_only(loads)

    def _table(self, values: list[int]) -> np.ndarray:
        table = np.zeros((self.job_count, int(self.n_ops.max())), dtype=np.int64)
        table[np.arange(table.shape[1]) < self.n_ops[:, None]] = values
        return _read_only(table)

    @property
    def total_operations(self) -> int:
        return int(self.n_ops.sum())

    def machine_load_bound(self) -> int:
        """Max over machines of total assigned work, a makespan lower bound."""
        return int(self.machine_loads.max())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # every model and env of the instance shares it
    return array


def _tokens(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


def _ints(fields: Sequence[str], lineno: int) -> list[int]:
    out = []
    for tok in fields:
        try:
            out.append(int(tok))
        except ValueError:
            raise InstanceFormatError(f"line {lineno}: non-integer token {tok!r}") from None
    return out


def parse_instance_text(text: str, fmt: str, name: str = "unnamed") -> Instance:
    """Parse instance data held in a string. See module docstring for formats."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    lines = list(_tokens(text))
    if not lines:
        raise InstanceFormatError("line 1: empty instance file")
    lineno, header = lines[0]
    if len(header) < 2:
        raise InstanceFormatError(f"line {lineno}: malformed header, expected '<jobs> <machines>'")
    job_count, machine_count = _ints(header[:2], lineno)
    if job_count < 1 or machine_count < 1:
        raise InstanceFormatError(f"line {lineno}: non-positive dimensions in header")
    body = lines[1:]
    if fmt == "orlib":
        jobs = _parse_orlib_body(body, job_count, machine_count)
    else:
        jobs = _parse_taillard_body(body, job_count, machine_count)
    return Instance(name=name, job_count=job_count, machine_count=machine_count, jobs=jobs)


def _parse_orlib_body(
    body: list[tuple[int, list[str]]], job_count: int, machine_count: int
) -> tuple[tuple[Operation, ...], ...]:
    if len(body) < job_count:
        raise InstanceFormatError(f"truncated file: expected {job_count} job lines, got {len(body)}")
    jobs = []
    for j in range(job_count):
        lineno, fields = body[j]
        vals = _ints(fields, lineno)
        if len(vals) % 2 != 0:
            raise InstanceFormatError(f"line {lineno}: odd number of tokens in job line")
        ops = []
        for machine, time in zip(vals[0::2], vals[1::2]):
            if not 0 <= machine < machine_count:
                raise InstanceFormatError(f"line {lineno}: machine index {machine} out of range")
            if time < 1:
                raise InstanceFormatError(f"line {lineno}: processing time {time} < 1")
            ops.append(Operation(machine=machine, processing_time=time))
        jobs.append(tuple(ops))
    return tuple(jobs)


def _parse_taillard_body(
    body: list[tuple[int, list[str]]], job_count: int, machine_count: int
) -> tuple[tuple[Operation, ...], ...]:
    if len(body) < 2 * job_count:
        raise InstanceFormatError(
            f"truncated file: expected {2 * job_count} matrix lines, got {len(body)}"
        )
    times, machines = [], []
    for j in range(job_count):
        lineno, fields = body[j]
        row = _ints(fields, lineno)
        if len(row) != machine_count:
            raise InstanceFormatError(f"line {lineno}: expected {machine_count} times, got {len(row)}")
        for time in row:
            if time < 1:
                raise InstanceFormatError(f"line {lineno}: processing time {time} < 1")
        times.append(row)
    for j in range(job_count):
        lineno, fields = body[job_count + j]
        row = _ints(fields, lineno)
        if len(row) != machine_count:
            raise InstanceFormatError(
                f"line {lineno}: expected {machine_count} machine numbers, got {len(row)}"
            )
        for machine in row:
            if not 1 <= machine <= machine_count:
                raise InstanceFormatError(f"line {lineno}: machine number {machine} out of range")
        machines.append(row)
    jobs = tuple(
        tuple(
            Operation(machine=machines[j][k] - 1, processing_time=times[j][k])
            for k in range(machine_count)
        )
        for j in range(job_count)
    )
    return jobs


def read_text(path: str | Path) -> str:
    """The file's text; a file that is not UTF-8 raises an
    ``InstanceFormatError`` naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None


def parse_instance(path: str | Path, fmt: str) -> Instance:
    """Parse an instance file in the given format ('orlib' or 'taillard')."""
    path = Path(path)
    text = read_text(path)
    try:
        return parse_instance_text(text, fmt, name=path.stem)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None


def serialize_instance(instance: Instance, fmt: str) -> str:
    """Render an instance in the given text format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    lines = [f"{instance.job_count} {instance.machine_count}"]
    if fmt == "orlib":
        for j, ops in enumerate(instance.jobs):
            if not ops:
                raise ValueError(f"job {j} has no operations, which the orlib format cannot hold")
            lines.append(" ".join(f"{op.machine} {op.processing_time}" for op in ops))
    else:
        for ops in instance.jobs:
            if len(ops) != instance.machine_count:
                raise ValueError("taillard format requires one operation per machine")
            lines.append(" ".join(str(op.processing_time) for op in ops))
        for ops in instance.jobs:
            lines.append(" ".join(str(op.machine + 1) for op in ops))
    return "\n".join(lines) + "\n"


def write_instance(instance: Instance, path: str | Path, fmt: str) -> None:
    Path(path).write_text(serialize_instance(instance, fmt))


def generate_instance(
    job_count: int, machine_count: int, seed: int, low: int = 1, high: int = 99
) -> Instance:
    """Generate a random instance: each job visits every machine once in a
    random order, processing times uniform integers in [low, high]."""
    if job_count < 1 or machine_count < 1:
        raise ValueError("job_count and machine_count must be >= 1")
    if not 1 <= low <= high:
        raise ValueError("need 1 <= low <= high")
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(job_count):
        order = rng.permutation(machine_count)
        times = rng.integers(low, high + 1, size=machine_count)
        jobs.append(
            tuple(Operation(machine=int(m), processing_time=int(p)) for m, p in zip(order, times))
        )
    return Instance(
        name=f"rand{job_count}x{machine_count}s{seed}",
        job_count=job_count,
        machine_count=machine_count,
        jobs=tuple(jobs),
    )


def write_solution(solution, path: str | Path) -> None:
    """Write a solution document: instance name, makespan, per-job starts."""
    if not solution.starts or any(len(row) == 0 for row in solution.starts):
        raise ValueError("refusing to write a solution with empty jobs")
    lines = [f"instance {solution.instance_name}", f"makespan {solution.makespan}"]
    for j, row in enumerate(solution.starts):
        lines.append(f"job {j}: " + " ".join(str(s) for s in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_solution(path: str | Path):
    """Read a solution document written by :func:`write_solution`."""
    from cpshop.model import Solution

    text = read_text(path)
    name = None
    makespan = None
    rows: list[tuple[int, ...]] = []
    try:
        for lineno, fields in _tokens(text):
            if fields[0] == "instance":
                name = " ".join(fields[1:])
            elif fields[0] in ("makespan", "job") and len(fields) == 1:
                raise InstanceFormatError(f"line {lineno}: {fields[0]} record has no value")
            elif fields[0] == "makespan":
                (makespan,) = _ints(fields[1:2], lineno)
            elif fields[0] == "job":
                (idx,) = _ints([fields[1].rstrip(":")], lineno)
                if idx != len(rows):
                    raise InstanceFormatError(f"line {lineno}: job lines out of order")
                rows.append(tuple(_ints(fields[2:], lineno)))
            else:
                raise InstanceFormatError(f"line {lineno}: unexpected record {fields[0]!r}")
        if name is None or makespan is None or not rows:
            raise InstanceFormatError("solution document missing instance, makespan, or job lines")
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None
    return Solution(instance_name=name, starts=tuple(rows), makespan=makespan)
