"""The checker accepts real schedules and rejects broken ones."""

import pytest

from check import CheckError, check_partial, check_schedule
from cpshop.expert import improve
from cpshop.instances import Instance, Operation, generate_instance
from cpshop.rules import RulePolicy, greedy_rollout

# job 0: m0 for 3, then m1 for 2; job 1: m0 for 2, then m1 for 4
TINY = Instance(
    name="tiny", job_count=2, machine_count=2,
    jobs=((Operation(0, 3), Operation(1, 2)), (Operation(0, 2), Operation(1, 4))),
)
GOOD = ((0, 3), (3, 5))  # left-justified, makespan 9


def test_accepts_left_justified_schedule():
    check_schedule(TINY, GOOD, 9, left_justified=True)


def test_accepts_cpshop_schedules():
    inst = generate_instance(8, 5, seed=3)
    start = greedy_rollout(inst, RulePolicy("mtwr"))
    check_schedule(inst, start.starts, start.makespan, left_justified=True)
    best = improve(inst, start, evals=200)
    check_schedule(inst, best.starts, best.makespan, left_justified=True)


@pytest.mark.parametrize("starts, makespan, message", [
    (((0, 3), (2, 5)), 9, "overlap"),  # job 1 takes m0 while job 0 holds it
    (((0, 2), (3, 5)), 9, "precedence"),  # job 0's second op starts before its first ends
    (GOOD, 10, "reported makespan"),
    (((0, 3), (3, -1)), 9, "no start"),
])
def test_rejects_broken_schedule(starts, makespan, message):
    with pytest.raises(CheckError, match=message):
        check_schedule(TINY, starts, makespan)


def test_rejects_start_pulled_too_late():
    late = ((0, 3), (3, 6))  # job 1's last op could start at 5
    check_schedule(TINY, late, 10)  # feasible
    with pytest.raises(CheckError, match="let it start at 5"):
        check_schedule(TINY, late, 10, left_justified=True)


def test_rejects_makespan_below_machine_load():
    inst = Instance(name="one", job_count=1, machine_count=1, jobs=((Operation(0, 4),),))
    with pytest.raises(CheckError):
        check_schedule(inst, ((0,),), 3)


def test_partial_schedule():
    assert check_partial(TINY, ((0, -1), (3, -1))) == 2
    with pytest.raises(CheckError, match="after an unscheduled"):
        check_partial(TINY, ((-1, 3), (-1, -1)))
    with pytest.raises(CheckError, match="let it start at 3"):
        check_partial(TINY, ((0, -1), (4, -1)))
