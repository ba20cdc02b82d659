import numpy as np
import pytest

from cpshop.env import F_LENGTH, SLOT_REAL, SLOT_SINK, SLOT_SOURCE, JobShopEnv
from cpshop.instances import generate_instance, parse_instance_text
from cpshop.model import (
    NOT_FIXED,
    ModelState,
    OperationIndex,
    Solution,
    compress,
    earliest_starts,
    machine_sequences,
    validate,
)

ORLIB_2X2 = "2 2\n0 3 1 2\n1 4 0 1\n"


def tiny():
    return parse_instance_text(ORLIB_2X2, "orlib", name="tiny")


def random_feasible_solution(instance, rng, pad_max=8):
    """Dispatch in a random interleaving with random inserted idle time."""
    cursor = [0] * instance.job_count
    job_end = [0] * instance.job_count
    release = [0] * instance.machine_count
    starts = [[0] * len(ops) for ops in instance.jobs]
    makespan = 0
    order = []
    for j, ops in enumerate(instance.jobs):
        order += [j] * len(ops)
    rng.shuffle(order)
    for j in order:
        k = cursor[j]
        op = instance.jobs[j][k]
        s = max(job_end[j], release[op.machine]) + int(rng.integers(0, pad_max))
        starts[j][k] = s
        end = s + op.processing_time
        job_end[j] = end
        release[op.machine] = end
        cursor[j] = k + 1
        makespan = max(makespan, end)
    return Solution(
        instance_name=instance.name,
        starts=tuple(tuple(r) for r in starts),
        makespan=makespan,
    )


def machine_order(instance, solution):
    seqs = {}
    for j, (row, ops) in enumerate(zip(solution.starts, instance.jobs)):
        for k, (s, op) in enumerate(zip(row, ops)):
            seqs.setdefault(op.machine, []).append((s, j, k))
    return {m: [(j, k) for _, j, k in sorted(v)] for m, v in seqs.items()}


def longest_path_starts(instance, solution):
    """Independent oracle: earliest starts by longest path over the
    precedence graph induced by the solution's machine orders."""
    seqs = machine_order(instance, solution)
    preds = {}
    for j, ops in enumerate(instance.jobs):
        for k in range(len(ops)):
            preds[(j, k)] = []
            if k > 0:
                preds[(j, k)].append((j, k - 1))
    for m, seq in seqs.items():
        for a, b in zip(seq, seq[1:]):
            preds[b].append(a)
    starts = {}

    def start_of(node):
        if node not in starts:
            starts[node] = max(
                (
                    start_of(p) + instance.jobs[p[0]][p[1]].processing_time
                    for p in preds[node]
                ),
                default=0,
            )
        return starts[node]

    return {node: start_of(node) for node in preds}


def sweep_compress(instance, solution):
    """Reference compression: sweep the operations in input start order,
    a topological order of the job chains and machine sequences."""
    order = sorted((s, j, k) for j, row in enumerate(solution.starts) for k, s in enumerate(row))
    starts = [list(row) for row in solution.starts]
    job_end = [0] * instance.job_count
    release = [0] * instance.machine_count
    for _, j, k in order:
        op = instance.jobs[j][k]
        starts[j][k] = max(job_end[j], release[op.machine])
        job_end[j] = release[op.machine] = starts[j][k] + op.processing_time
    return Solution(solution.instance_name, tuple(map(tuple, starts)), max(job_end))


# -- model state -------------------------------------------------------


def test_fresh_model_bounds():
    model = ModelState(tiny())
    assert not model.complete
    assert list(model.proc[:, 0]) == [3, 4]
    assert list(model.cursor) == [0, 0]
    assert (model.starts == NOT_FIXED).all()


def test_fix_start_updates_release_and_chain():
    model = ModelState(tiny())
    assert model.fix_start(0) == 0  # job 0 op 0 on m0, [0, 3)
    assert model.fix_start(1) == 0  # job 1 op 0 on m1, [0, 4)
    assert list(model.release) == [3, 4] and list(model.prev_end) == [3, 4]
    # job 0 op 1 needs m1 (released at 4) and its predecessor end 3
    assert model.fix_start(0) == 4
    # job 1 op 1 needs m0 (released at 3) and predecessor end 4
    assert model.fix_start(1) == 4
    assert model.complete
    sol = model.solution()
    assert sol.makespan == 6
    assert validate(tiny(), sol)


def test_horizon_limits_loading():
    inst = generate_instance(2, 6, seed=0)
    env = JobShopEnv(inst, horizon=2, next_ops=3)
    obs = env.reset()
    # operations 0 and 1 are loaded, operation 2 is not
    assert obs.kinds.tolist() == [[SLOT_SOURCE, SLOT_REAL, SLOT_REAL, SLOT_SINK, SLOT_SINK]] * 2
    obs = env.step(0).observation
    # the window slides on fixing: job 0 now loads operations 1 and 2
    assert obs.kinds[0].tolist() == [SLOT_REAL, SLOT_REAL, SLOT_REAL, SLOT_SINK, SLOT_SINK]
    lengths = [op.processing_time for op in inst.jobs[0][:3]]
    assert obs.features[0, :3, F_LENGTH].tolist() == lengths
    assert obs.kinds[1].tolist() == [SLOT_SOURCE, SLOT_REAL, SLOT_REAL, SLOT_SINK, SLOT_SINK]


def test_fix_start_exhausted_job_rejected():
    model = ModelState(tiny())
    model.fix_start(0)
    model.fix_start(0)
    assert list(model.alive()) == [False, True]
    with pytest.raises(ValueError, match="job 0"):
        model.fix_start(0)


def test_solution_requires_completion():
    model = ModelState(tiny())
    with pytest.raises(ValueError, match="not complete"):
        model.solution()


# -- validation --------------------------------------------------------


def test_validate_accepts_known_good():
    sol = Solution(instance_name="tiny", starts=((0, 4), (0, 4)), makespan=6)
    assert validate(tiny(), sol)


def test_validate_catches_overlap():
    sol = Solution(instance_name="tiny", starts=((0, 3), (2, 6)), makespan=7)
    report = validate(tiny(), sol)
    assert not report
    assert "overlap" in report.violation


def test_validate_catches_precedence():
    sol = Solution(instance_name="tiny", starts=((4, 0), (0, 4)), makespan=7)
    report = validate(tiny(), sol)
    assert not report and "precedence" in report.violation


def test_validate_catches_wrong_makespan():
    sol = Solution(instance_name="tiny", starts=((0, 4), (0, 4)), makespan=99)
    report = validate(tiny(), sol)
    assert not report and "makespan" in report.violation


def test_validate_catches_wrong_makespan_low():
    sol = Solution(instance_name="tiny", starts=((0, 4), (0, 4)), makespan=5)
    report = validate(tiny(), sol)
    assert not report and "makespan" in report.violation


def test_validate_catches_dimension_mismatch():
    sol = Solution(instance_name="tiny", starts=((0,), (0, 4)), makespan=7)
    assert not validate(tiny(), sol)


def test_validate_catches_negative_start():
    sol = Solution(instance_name="tiny", starts=((-1, 4), (0, 4)), makespan=7)
    assert not validate(tiny(), sol)


# -- compression -------------------------------------------------------


def test_compress_rejects_infeasible():
    sol = Solution(instance_name="tiny", starts=((0, 3), (2, 6)), makespan=7)
    with pytest.raises(ValueError, match="infeasible"):
        compress(tiny(), sol)


def test_compress_matches_longest_path_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        inst = generate_instance(5, 5, seed=int(rng.integers(1 << 30)))
        sol = random_feasible_solution(inst, rng)
        out = compress(inst, sol)
        oracle = longest_path_starts(inst, sol)
        for j, row in enumerate(out.starts):
            for k, s in enumerate(row):
                assert s == oracle[(j, k)]


def test_compress_properties():
    rng = np.random.default_rng(7)
    for _ in range(40):
        inst = generate_instance(6, 4, seed=int(rng.integers(1 << 30)))
        sol = random_feasible_solution(inst, rng)
        out = compress(inst, sol)
        assert validate(inst, out)
        assert out.makespan <= sol.makespan
        for a, b in zip(out.starts, sol.starts):
            assert all(x <= y for x, y in zip(a, b))  # starts never increase
        assert machine_order(inst, out) == machine_order(inst, sol)
        assert compress(inst, out) == out  # idempotent


def test_is_compressed_detects_slack():
    sol = Solution(instance_name="tiny", starts=((1, 4), (0, 4)), makespan=6)
    assert validate(tiny(), sol)
    assert compress(tiny(), sol).starts == ((0, 4), (0, 4))


def test_compress_matches_sort_and_sweep_reference():
    rng = np.random.default_rng(11)
    for jobs, machines in [(2, 2), (5, 5), (6, 4), (10, 3), (15, 5)]:
        for _ in range(10):
            inst = generate_instance(jobs, machines, seed=int(rng.integers(1 << 30)))
            sol = random_feasible_solution(inst, rng, pad_max=12)
            assert compress(inst, sol) == sweep_compress(inst, sol)


# -- earliest-start evaluator ------------------------------------------


def test_operation_index_numbers_jobs_in_turn():
    inst = parse_instance_text("3 2\n0 1 1 2\n1 3\n1 4 0 5\n", "orlib")
    index = OperationIndex.of(inst)
    assert index.first == [0, 2, 3, 5]
    assert index.proc == [1, 2, 3, 4, 5]
    assert index.job_next == [1, -1, -1, 4, -1]


def test_earliest_starts_heads_order_and_machine_successors():
    inst = tiny()
    index = OperationIndex.of(inst)
    # machine 0 runs ops 0 then 3, machine 1 runs ops 2 then 1
    sol = Solution("tiny", ((0, 4), (0, 4)), 6)
    seqs = machine_sequences(inst, sol)
    assert seqs == [[0, 3], [2, 1]]
    heads, order, machine_next = earliest_starts(index, seqs)
    assert heads == [0, 4, 0, 4]
    assert sorted(order) == [0, 1, 2, 3]
    assert order.index(2) < order.index(1) and order.index(0) < order.index(3)
    assert machine_next == [3, -1, 1, -1]
    assert index.solution("tiny", heads) == sol


def test_earliest_starts_detects_crossing_machine_orders():
    # machine 0 runs job 1's second op before job 0's first, machine 1 runs
    # job 0's second op before job 1's first: 0 -> 1 -> 2 -> 3 -> 0
    index = OperationIndex.of(tiny())
    assert earliest_starts(index, [[3, 0], [1, 2]]) is None
    assert earliest_starts(index, [[0, 3], [1, 2]]) is not None
