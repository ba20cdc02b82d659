import pytest

from cpshop.benchmarks import (
    DATASETS,
    LA_LIKE_SIZES,
    LCG_MODULUS,
    TA_LIKE_SIZES,
    dataset,
    lcg_instance,
    lcg_matrices,
    lcg_uniform,
)


def test_generator_reproduces_published_instance():
    # the published seed pair of a known 15x15 instance reproduces its
    # published first rows exactly, so the reconstructed suites differ
    # from the originals only in their seeds
    times, machines = lcg_matrices(15, 15, 840612802, 398197754)
    assert times[0] == [94, 66, 10, 53, 26, 15, 65, 82, 10, 27, 93, 92, 96, 70, 83]
    assert machines[0] == [7, 13, 5, 8, 4, 3, 11, 12, 9, 15, 10, 14, 6, 1, 2]


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


def test_lcg_matrices_shapes_and_permutation():
    times, machines = lcg_matrices(6, 4, time_seed=1, machine_seed=2)
    assert len(times) == 6 and all(len(r) == 4 for r in times)
    for row in machines:
        assert sorted(row) == [1, 2, 3, 4]  # 1-based permutation per job
    for row in times:
        assert all(1 <= v <= 99 for v in row)


def test_lcg_instance_is_zero_based():
    inst = lcg_instance("x", 4, 3, time_seed=7, machine_seed=8)
    machines = {op.machine for ops in inst.jobs for op in ops}
    assert machines == {0, 1, 2}
    assert inst.total_operations == 12


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
