"""Reconstructed benchmark datasets.

The classic job-shop benchmark suites are uniform-random instances. The
original files are not bundled here; instead this module regenerates
statistically equivalent suites with the classic portable
linear-congruential generator (Bratley, Fox, and Schrage) that was used
to build the published ones, from fixed seeds:

* ``ta-like``: 80 instances, 10 each of 15x15, 20x15, 20x20, 30x15,
  30x20, 50x15, 50x20, and 100x20, processing times uniform on [1, 99].
* ``la-like``: 40 instances, 5 each of 10x5, 15x5, 20x5, 10x10, 15x10,
  20x10, 30x10, and 15x15, processing times uniform on [5, 99].

The generator's step is ``s -> 16807 * s mod (2**31 - 1)`` (Schrage's
method computes it in 32 bits), so the k-th state after a seed is
``seed * 16807**k mod (2**31 - 1)``. Every stream is computed in numpy by
that jump-ahead, exact in int64 because both factors are below 2**31,
and each value is ``low + int(state / (2**31 - 1) * width)`` in the same
float64 operations as the scalar step. A seed must lie in
``1 .. 2**31 - 2``: 0 and every multiple of the modulus lead to the
fixed point 0, and a negative seed leaves the step's domain. A suite's
instances share one immutable ``Operation`` per distinct (machine, time)
pair, and either whole suite builds in tens of milliseconds.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Sequence

import numpy as np

from cpshop.instances import Instance, jobs_from_rows

LCG_MODULUS = 2147483647
LCG_MULTIPLIER = 16807

TA_LIKE_SIZES = (
    (15, 15, 10),
    (20, 15, 10),
    (20, 20, 10),
    (30, 15, 10),
    (30, 20, 10),
    (50, 15, 10),
    (50, 20, 10),
    (100, 20, 10),
)
LA_LIKE_SIZES = (
    (10, 5, 5),
    (15, 5, 5),
    (20, 5, 5),
    (10, 10, 5),
    (15, 10, 5),
    (20, 10, 5),
    (30, 10, 5),
    (15, 15, 5),
)
DATASETS = ("ta-like", "la-like")
_SEED_ROOT = 12345


def lcg_states(seed: int, count: int) -> np.ndarray:
    """The ``count`` states that follow ``seed``, as int64.

    The k-th is ``seed * 16807**k mod (2**31 - 1)``: powers of the
    multiplier by doubling, each product of two factors below 2**31.
    """
    if not 1 <= seed < LCG_MODULUS:
        raise ValueError(f"LCG seed {seed} out of range 1..{LCG_MODULUS - 1}")
    powers = np.empty(count, dtype=np.int64)
    if count:
        powers[0] = LCG_MULTIPLIER
    done = 1
    while done < count:
        step = min(done, count - done)
        powers[done:done + step] = powers[:step] * powers[done - 1] % LCG_MODULUS
        done += step
    return seed * powers % LCG_MODULUS


def lcg_values(states: np.ndarray, low, high) -> np.ndarray:
    """``low + int(state / LCG_MODULUS * (high - low + 1))`` per state, the
    generator's uniform draw on [low, high]; ``low`` may be an array."""
    return low + (states / LCG_MODULUS * (high - low + 1)).astype(np.int64)


def lcg_matrices(
    job_count: int,
    machine_count: int,
    time_seed: int,
    machine_seed: int,
    low: int = 1,
    high: int = 99,
) -> tuple[np.ndarray, np.ndarray]:
    """Processing-time and machine-order matrices of one generated
    instance, ``(job_count, machine_count)`` int64 each.

    Machine numbers are 1-based, per job a partial shuffle of the
    identity order driven by ``machine_seed``: step ``j`` swaps entry
    ``j`` with a uniform pick from ``j .. machine_count - 1``, one column
    at a time across all jobs.
    """
    shape = (job_count, machine_count)
    times = lcg_values(lcg_states(time_seed, job_count * machine_count), low, high)
    column = np.arange(machine_count)
    picks = lcg_values(
        lcg_states(machine_seed, job_count * machine_count).reshape(shape),
        column,
        machine_count - 1,
    )
    machines = np.tile(column + 1, (job_count, 1))
    rows = np.arange(job_count)
    for j in range(machine_count):
        pick = picks[:, j]
        kept = machines[:, j].copy()
        machines[:, j] = machines[rows, pick]
        machines[rows, pick] = kept
    return times.reshape(shape), machines


def lcg_instances(
    specs: Sequence[tuple[str, int, int, int, int]], low: int = 1, high: int = 99
) -> list[Instance]:
    """One instance per ``(name, job_count, machine_count, time_seed,
    machine_seed)`` spec, times uniform on [low, high]; all of them share
    one :class:`Operation` per distinct (machine, time) pair."""
    machines, times = [], []
    for _, job_count, machine_count, time_seed, machine_seed in specs:
        spec_times, spec_machines = lcg_matrices(
            job_count, machine_count, time_seed, machine_seed, low, high
        )
        machines += (spec_machines - 1).tolist()
        times += spec_times.tolist()
    jobs = iter(jobs_from_rows(machines, times))
    return [
        Instance(
            name=name,
            job_count=job_count,
            machine_count=machine_count,
            jobs=tuple(islice(jobs, job_count)),
        )
        for name, job_count, machine_count, _, _ in specs
    ]


def dataset(name: str) -> list[Instance]:
    """Build a full benchmark dataset by name ('ta-like' or 'la-like')."""
    if name == "ta-like":
        sizes, low, prefix = TA_LIKE_SIZES, 1, "ta-like"
    elif name == "la-like":
        sizes, low, prefix = LA_LIKE_SIZES, 5, "la-like"
    else:
        raise ValueError(f"unknown dataset {name!r}, expected one of {DATASETS}")
    rng = random.Random(_SEED_ROOT)
    specs = []
    for job_count, machine_count, count in sizes:
        for _ in range(count):
            time_seed = rng.randrange(1, LCG_MODULUS)
            machine_seed = rng.randrange(1, LCG_MODULUS)
            label = f"{prefix}-{len(specs) + 1:02d}"
            specs.append((label, job_count, machine_count, time_seed, machine_seed))
    return lcg_instances(specs, low=low)
