import hashlib
import random

import numpy as np
import pytest

from cpshop.benchmarks import (
    DATASETS,
    LA_LIKE_SIZES,
    LCG_MODULUS,
    TA_LIKE_SIZES,
    dataset,
    lcg_instances,
    lcg_matrices,
    lcg_states,
    lcg_values,
)
from cpshop.instances import generate_instance

# sha256 over repr((name, n_ops, proc, machine)) of every instance, as lists
SUITES_DIGEST = "1203046aa1f7309c4890418c68ef7a0c8d7e878b915939dd89962bd7ce77e404"
GENERATED_DIGEST = "425d87d57b9a3ce0c0689221841263cff25c1ffddb561acf25141df1f87717c4"


def lcg_uniform(seed: int, low: int, high: int) -> tuple[int, int]:
    """One step of the portable LCG by Schrage's method, the reference the
    vector stream must equal: (next_seed, value in [low, high])."""
    a, b, c = 16807, 127773, 2836
    k = seed // b
    seed = a * (seed % b) - k * c
    if seed < 0:
        seed += LCG_MODULUS
    return seed, low + int(seed / LCG_MODULUS * (high - low + 1))


def reference_matrices(job_count, machine_count, time_seed, machine_seed, low=1, high=99):
    """lcg_matrices by one scalar step per entry and one swap per step."""
    times = [[0] * machine_count for _ in range(job_count)]
    for i in range(job_count):
        for j in range(machine_count):
            time_seed, times[i][j] = lcg_uniform(time_seed, low, high)
    machines = [[j + 1 for j in range(machine_count)] for _ in range(job_count)]
    for i in range(job_count):
        for j in range(machine_count):
            machine_seed, v = lcg_uniform(machine_seed, j, machine_count - 1)
            machines[i][j], machines[i][v] = machines[i][v], machines[i][j]
    return times, machines


def test_generator_reproduces_published_instance():
    # the published seed pair of a known 15x15 instance reproduces its
    # published first rows exactly, so the reconstructed suites differ
    # from the originals only in their seeds
    times, machines = lcg_matrices(15, 15, 840612802, 398197754)
    assert times[0].tolist() == [94, 66, 10, 53, 26, 15, 65, 82, 10, 27, 93, 92, 96, 70, 83]
    assert machines[0].tolist() == [7, 13, 5, 8, 4, 3, 11, 12, 9, 15, 10, 14, 6, 1, 2]


def test_lcg_step_values():
    # one hand-checked step: 16807 * 1 mod (2^31 - 1) = 16807
    seed, v = lcg_uniform(1, 0, 9)
    assert seed == 16807
    assert v == 0
    assert 0 < seed < LCG_MODULUS


def test_lcg_uniform_stays_in_range():
    seed = 12345
    for _ in range(1000):
        seed, v = lcg_uniform(seed, 5, 99)
        assert 5 <= v <= 99
        assert 0 < seed < LCG_MODULUS


@pytest.mark.parametrize(
    "seed", [1, 2, LCG_MODULUS - 2] + random.Random(28).sample(range(1, LCG_MODULUS), 5)
)
def test_vector_stream_equals_the_scalar_steps(seed):
    count = 2000
    states, values = [], []
    state = seed
    for _ in range(count):
        state, value = lcg_uniform(state, 1, 99)
        states.append(state)
        values.append(value)
    for n in (0, 1, 2, 3, 7, 64, 225, 1000, count):
        assert lcg_states(seed, n).tolist() == states[:n]
    assert lcg_values(lcg_states(seed, count), 1, 99).tolist() == values
    # the shuffle's draws: a low bound per column, one high bound
    low = np.arange(count) % 20
    state, expected = seed, []
    for lo in low.tolist():
        state, value = lcg_uniform(state, lo, 19)
        expected.append(value)
    assert lcg_values(lcg_states(seed, count), low, 19).tolist() == expected


@pytest.mark.parametrize("shape", [(1, 1), (6, 4), (15, 15), (100, 20), (7, 30)])
def test_matrices_equal_the_scalar_reference(shape):
    rng = random.Random(shape[0] * 31 + shape[1])
    for low in (1, 5):
        time_seed, machine_seed = rng.randrange(1, LCG_MODULUS), rng.randrange(1, LCG_MODULUS)
        times, machines = lcg_matrices(*shape, time_seed, machine_seed, low)
        expected = reference_matrices(*shape, time_seed, machine_seed, low)
        assert (times.tolist(), machines.tolist()) == expected


@pytest.mark.parametrize("seed", [0, -1, -16807, LCG_MODULUS, LCG_MODULUS + 1, 2 * LCG_MODULUS])
def test_seeds_outside_the_generator_range_are_rejected(seed):
    # seed 0 (or any multiple of the modulus) would give every time `low`
    # and every job the same machine order; a negative seed leaves the
    # domain of Schrage's step
    with pytest.raises(ValueError, match=f"LCG seed {seed} out of range"):
        lcg_matrices(3, 3, seed, 5)
    with pytest.raises(ValueError, match=f"LCG seed {seed} out of range"):
        lcg_matrices(3, 3, 5, seed)
    with pytest.raises(ValueError, match=f"LCG seed {seed} out of range"):
        lcg_instances([("x", 3, 3, seed, 5)])


def instance_rows(inst) -> tuple:
    return (inst.name, inst.n_ops.tolist(), inst.proc.tolist(), inst.machine.tolist())


def test_suites_and_generated_instances_match_the_recorded_digest():
    suites = hashlib.sha256()
    for name in DATASETS:
        for inst in dataset(name):
            suites.update(repr(instance_rows(inst)).encode())
    assert suites.hexdigest() == SUITES_DIGEST
    generated = hashlib.sha256()
    for seed in (0, 1, 7):
        for job_count, machine_count in ((1000, 10), (6, 6)):
            inst = generate_instance(job_count, machine_count, seed=seed)
            generated.update(repr(instance_rows(inst)).encode())
    assert generated.hexdigest() == GENERATED_DIGEST


def test_a_suite_shares_one_operation_per_distinct_pair():
    suite = dataset("ta-like")
    ops = [op for inst in suite for ops in inst.jobs for op in ops]
    assert len(ops) == 57250
    assert len({id(op) for op in ops}) == len(set(ops)) == 20 * 99


def test_instances_share_one_operation_per_distinct_pair():
    inst = generate_instance(200, 5, seed=3)
    ops = [op for ops in inst.jobs for op in ops]
    assert len({id(op) for op in ops}) == len(set(ops)) < len(ops)
    assert all(type(op.machine) is int and type(op.processing_time) is int for op in ops)
    # a fresh call shares nothing with an earlier one
    twin = generate_instance(200, 5, seed=3)
    assert twin.jobs == inst.jobs
    assert twin.jobs[0][0] is not inst.jobs[0][0]


def test_lcg_matrices_shapes_and_permutation():
    times, machines = lcg_matrices(6, 4, time_seed=1, machine_seed=2)
    assert len(times) == 6 and all(len(r) == 4 for r in times)
    for row in machines:
        assert sorted(row) == [1, 2, 3, 4]  # 1-based permutation per job
    for row in times:
        assert all(1 <= v <= 99 for v in row)


def test_lcg_instances_are_zero_based_and_follow_their_matrices():
    first, second = lcg_instances([("x", 4, 3, 7, 8), ("y", 2, 5, 9, 10)], low=5)
    assert (first.name, first.job_count, first.machine_count) == ("x", 4, 3)
    assert (second.name, second.job_count, second.machine_count) == ("y", 2, 5)
    machines = {op.machine for ops in first.jobs for op in ops}
    assert machines == {0, 1, 2}
    assert first.total_operations == 12
    for inst, seeds in ((first, (7, 8)), (second, (9, 10))):
        times, machines = lcg_matrices(inst.job_count, inst.machine_count, *seeds, low=5)
        assert inst.proc.tolist() == times.tolist()
        assert inst.machine.tolist() == (machines - 1).tolist()


def test_dataset_sizes_and_names():
    ta = dataset("ta-like")
    la = dataset("la-like")
    assert len(ta) == sum(c for _, _, c in TA_LIKE_SIZES) == 80
    assert len(la) == sum(c for _, _, c in LA_LIKE_SIZES) == 40
    assert ta[0].name == "ta-like-01"
    assert la[-1].name == "la-like-40"
    expected = [
        (j, m) for j, m, c in TA_LIKE_SIZES for _ in range(c)
    ]
    assert [(i.job_count, i.machine_count) for i in ta] == expected


def test_dataset_time_ranges():
    ta = dataset("ta-like")
    la = dataset("la-like")
    ta_times = [op.processing_time for inst in ta[:10] for ops in inst.jobs for op in ops]
    la_times = [op.processing_time for inst in la[:10] for ops in inst.jobs for op in ops]
    assert min(ta_times) >= 1 and max(ta_times) <= 99
    assert min(la_times) >= 5 and max(la_times) <= 99
    assert min(la_times) < 10  # the [5, 99] floor is actually reached


def test_dataset_deterministic():
    a = dataset("la-like")
    b = dataset("la-like")
    assert [i.jobs for i in a] == [i.jobs for i in b]


def test_dataset_unknown_name():
    with pytest.raises(ValueError, match="unknown dataset"):
        dataset("orlib")
    assert DATASETS == ("ta-like", "la-like")
