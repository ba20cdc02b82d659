"""Pins the package's schedules across refactors: one digest over greedy
rule schedules, a budgeted local search and the exact solver.

Every input here is built and dispatched with integer arithmetic and
PCG64 draws only, so the digest does not depend on the platform. A change
to the digest means some schedule changed; if that is intended, record
the new digest with the change that explains it.
"""

import hashlib

from cpshop.benchmarks import TA_LIKE_SIZES, dataset
from cpshop.expert import improve, solve_exact
from cpshop.instances import generate_instance
from cpshop.rules import RULES, RulePolicy, greedy_rollout

EXPECTED_DIGEST = "30d78fa8dcdba0bc01601461be375eced0e563a5bf806d43ddf078f1b53d1c1b"


def schedules() -> list:
    ta = dataset("ta-like")
    # the first instance of each of the three smallest sizes
    firsts, index = [], 0
    for _, _, count in TA_LIKE_SIZES[:3]:
        firsts.append(ta[index])
        index += count
    out = [
        greedy_rollout(inst, RulePolicy(rule), use_vector=vector)
        for inst in firsts
        for rule in RULES
        for vector in (False, True)
    ]
    start = greedy_rollout(firsts[0], RulePolicy("mtwr"))
    out.append(improve(firsts[0], start, evals=500, seed=1))
    out.append(solve_exact(generate_instance(6, 6, seed=2)))
    return out


def test_schedules_match_the_recorded_digest():
    digest = hashlib.sha256(repr(schedules()).encode()).hexdigest()
    assert digest == EXPECTED_DIGEST
