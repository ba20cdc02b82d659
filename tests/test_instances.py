import numpy as np
import pytest

from cpshop.env import JobShopEnv
from cpshop.instances import (
    Instance,
    InstanceFormatError,
    Operation,
    generate_instance,
    parse_instance,
    parse_instance_text,
    read_solution,
    serialize_instance,
    write_instance,
    write_solution,
)
from cpshop.model import Solution
from test_env import uneven_instance

ORLIB_2X2 = """\
2 2
0 3 1 2
1 4 0 1
"""

TAILLARD_2X2 = """\
2 2
3 2
4 1
1 2
2 1
"""


def test_parse_orlib_basic():
    inst = parse_instance_text(ORLIB_2X2, "orlib", name="tiny")
    assert inst.job_count == 2 and inst.machine_count == 2
    assert inst.jobs[0] == (Operation(0, 3), Operation(1, 2))
    assert inst.jobs[1] == (Operation(1, 4), Operation(0, 1))
    assert inst.total_operations == 4
    assert int(inst.proc.sum()) == 10


def test_parse_taillard_matches_orlib():
    a = parse_instance_text(ORLIB_2X2, "orlib")
    b = parse_instance_text(TAILLARD_2X2, "taillard")
    assert a.jobs == b.jobs


def test_taillard_machines_are_one_indexed():
    inst = parse_instance_text(TAILLARD_2X2, "taillard")
    machines = {op.machine for ops in inst.jobs for op in ops}
    assert machines == {0, 1}


def test_parse_skips_comments_and_blank_lines():
    text = "# header comment\n\n2 2\n0 3 1 2\n\n1 4 0 1\n"
    inst = parse_instance_text(text, "orlib")
    assert inst.job_count == 2


def test_error_carries_line_number():
    with pytest.raises(InstanceFormatError, match="line 2"):
        parse_instance_text("2 2\n0 x 1 2\n1 4 0 1", "orlib")


def test_machine_out_of_range_rejected():
    with pytest.raises(InstanceFormatError, match="machine"):
        parse_instance_text("1 2\n0 3 5 2", "orlib")


def test_nonpositive_time_rejected():
    with pytest.raises(InstanceFormatError, match="processing time"):
        parse_instance_text("1 2\n0 0 1 2", "orlib")


def test_truncated_file_rejected():
    with pytest.raises(InstanceFormatError, match="truncated"):
        parse_instance_text("2 2\n0 3 1 2", "orlib")


def test_empty_file_rejected():
    with pytest.raises(InstanceFormatError):
        parse_instance_text("", "orlib")


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        parse_instance_text(ORLIB_2X2, "csv")


def test_repeated_machine_visit_warns_but_parses():
    with pytest.warns(UserWarning, match="more than once"):
        inst = parse_instance_text("1 2\n0 3 0 2", "orlib")
    assert inst.total_operations == 2


def test_roundtrip_both_formats(tmp_path):
    inst = generate_instance(4, 3, seed=5)
    for fmt in ("orlib", "taillard"):
        path = tmp_path / f"inst.{fmt}"
        write_instance(inst, path, fmt)
        back = parse_instance(path, fmt)
        assert back.jobs == inst.jobs


def test_serialize_parse_identity_text():
    inst = generate_instance(3, 4, seed=9)
    text = serialize_instance(inst, "orlib")
    assert parse_instance_text(text, "orlib").jobs == inst.jobs


def test_orlib_writer_refuses_a_job_with_no_operations():
    inst = Instance("e", 2, 2, ((), (Operation(0, 3), Operation(1, 2))))
    with pytest.raises(ValueError, match="job 0 has no operations"):
        serialize_instance(inst, "orlib")


def test_generate_deterministic():
    a = generate_instance(5, 4, seed=7)
    b = generate_instance(5, 4, seed=7)
    c = generate_instance(5, 4, seed=8)
    assert a.jobs == b.jobs
    assert a.jobs != c.jobs


def test_generate_each_machine_once_per_job():
    inst = generate_instance(6, 5, seed=1)
    for ops in inst.jobs:
        assert sorted(op.machine for op in ops) == list(range(5))
        assert all(1 <= op.processing_time <= 99 for op in ops)


def test_machine_load_bound():
    inst = parse_instance_text(ORLIB_2X2, "orlib")
    # machine 0 load: 3 + 1 = 4; machine 1 load: 2 + 4 = 6
    assert inst.machine_load_bound() == 6


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(name="bad", job_count=1, machine_count=1, jobs=())
    with pytest.raises(ValueError):
        Instance(
            name="bad",
            job_count=1,
            machine_count=1,
            jobs=((Operation(machine=2, processing_time=1),),),
        )
    with pytest.raises(ValueError, match="at least one operation"):
        Instance(name="empty", job_count=1, machine_count=1, jobs=((),))
    with pytest.raises(ValueError, match="at least one operation"):
        Instance(name="empty", job_count=2, machine_count=1, jobs=((), ()))
    # an empty job beside others is fine
    inst = Instance(name="gap", job_count=2, machine_count=1, jobs=((), (Operation(0, 2),)))
    assert inst.total_operations == 1


def test_solution_document_roundtrip(tmp_path):
    sol = Solution(instance_name="tiny", starts=((0, 3), (0, 5)), makespan=6)
    path = tmp_path / "sol.txt"
    write_solution(sol, path)
    back = read_solution(path)
    assert back == sol


def test_solution_document_rejects_garbage(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text("instance x\nmakespan 5\nwat 1 2\n")
    with pytest.raises(InstanceFormatError, match="unexpected record"):
        read_solution(path)


# -- operation tables ----------------------------------------------------


def uneven_instances():
    rng = np.random.default_rng(17)
    with_empty_job = Instance(
        "empty-job", 3, 3, ((Operation(2, 4), Operation(0, 1)), (), (Operation(1, 6),))
    )
    return [uneven_instance(7, 5, rng), uneven_instance(12, 6, rng), with_empty_job]


def reference_tables(inst):
    """The operation tables by one loop over the operations."""
    max_ops = max(len(ops) for ops in inst.jobs)
    n_ops = np.zeros(inst.job_count, dtype=np.int64)
    proc = np.zeros((inst.job_count, max_ops), dtype=np.int64)
    machine = np.zeros((inst.job_count, max_ops), dtype=np.int64)
    loads = np.zeros(inst.machine_count, dtype=np.int64)
    for j, ops in enumerate(inst.jobs):
        n_ops[j] = len(ops)
        for k, op in enumerate(ops):
            proc[j, k] = op.processing_time
            machine[j, k] = op.machine
            loads[op.machine] += op.processing_time
    return n_ops, proc, machine, loads


@pytest.mark.parametrize("inst", uneven_instances(), ids=lambda inst: inst.name)
def test_operation_tables_match_a_loop_over_the_operations(inst):
    tables = (inst.n_ops, inst.proc, inst.machine, inst.machine_loads)
    expected = reference_tables(inst)
    for table, reference in zip(tables, expected):
        assert table.dtype == np.int64
        np.testing.assert_array_equal(table, reference)
    assert inst.total_operations == sum(len(ops) for ops in inst.jobs)
    assert int(inst.proc.sum()) == sum(op.processing_time for ops in inst.jobs for op in ops)
    assert inst.machine_load_bound() == max(expected[3])


def test_operation_tables_are_read_only_and_shared():
    inst = uneven_instances()[0]
    for table in (inst.n_ops, inst.proc, inst.machine, inst.machine_loads):
        with pytest.raises(ValueError):
            table[0] = 1
    a, b = JobShopEnv(inst), JobShopEnv(inst)
    a.reset(), b.reset()
    for name in ("n_ops", "proc", "machine"):
        assert getattr(a.model, name) is getattr(inst, name)
        assert getattr(b.model, name) is getattr(inst, name)


def test_operation_tables_leave_equality_and_hashing_alone():
    inst = generate_instance(4, 3, seed=5)
    twin = generate_instance(4, 3, seed=5)
    inst.proc  # builds the tables of one of the two
    assert inst == twin and hash(inst) == hash(twin)
