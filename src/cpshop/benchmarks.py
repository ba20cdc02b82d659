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
"""

from __future__ import annotations

import random

from cpshop.instances import Instance, Operation

LCG_MODULUS = 2147483647

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


def lcg_uniform(seed: int, low: int, high: int) -> tuple[int, int]:
    """One step of the portable LCG; returns (next_seed, value in [low, high])."""
    a, b, c = 16807, 127773, 2836
    k = seed // b
    seed = a * (seed % b) - k * c
    if seed < 0:
        seed += LCG_MODULUS
    return seed, low + int(seed / LCG_MODULUS * (high - low + 1))


def lcg_matrices(
    job_count: int,
    machine_count: int,
    time_seed: int,
    machine_seed: int,
    low: int = 1,
    high: int = 99,
) -> tuple[list[list[int]], list[list[int]]]:
    """Processing-time and machine-order matrices of one generated instance.

    Machine numbers are 1-based, per job a partial shuffle of the
    identity order driven by ``machine_seed``.
    """
    times = [[0] * machine_count for _ in range(job_count)]
    for i in range(job_count):
        for j in range(machine_count):
            time_seed, v = lcg_uniform(time_seed, low, high)
            times[i][j] = v
    machines = [[j + 1 for j in range(machine_count)] for _ in range(job_count)]
    for i in range(job_count):
        for j in range(machine_count):
            machine_seed, v = lcg_uniform(machine_seed, j, machine_count - 1)
            machines[i][j], machines[i][v] = machines[i][v], machines[i][j]
    return times, machines


def lcg_instance(
    name: str,
    job_count: int,
    machine_count: int,
    time_seed: int,
    machine_seed: int,
    low: int = 1,
    high: int = 99,
) -> Instance:
    times, machines = lcg_matrices(job_count, machine_count, time_seed, machine_seed, low, high)
    jobs = tuple(
        tuple(
            Operation(machine=machines[i][j] - 1, processing_time=times[i][j])
            for j in range(machine_count)
        )
        for i in range(job_count)
    )
    return Instance(
        name=name, job_count=job_count, machine_count=machine_count, jobs=jobs
    )


def dataset(name: str) -> list[Instance]:
    """Build a full benchmark dataset by name ('ta-like' or 'la-like')."""
    if name == "ta-like":
        sizes, low, prefix = TA_LIKE_SIZES, 1, "ta-like"
    elif name == "la-like":
        sizes, low, prefix = LA_LIKE_SIZES, 5, "la-like"
    else:
        raise ValueError(f"unknown dataset {name!r}, expected one of {DATASETS}")
    rng = random.Random(_SEED_ROOT)
    out = []
    index = 0
    for job_count, machine_count, count in sizes:
        for _ in range(count):
            index += 1
            time_seed = rng.randrange(1, LCG_MODULUS)
            machine_seed = rng.randrange(1, LCG_MODULUS)
            out.append(
                lcg_instance(
                    f"{prefix}-{index:02d}",
                    job_count,
                    machine_count,
                    time_seed,
                    machine_seed,
                    low=low,
                )
            )
    return out
