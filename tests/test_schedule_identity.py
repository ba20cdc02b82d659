"""Pins the package's schedules across refactors: one digest over greedy
rule schedules, a budgeted local search and the exact solver, one over
the local search at every ta-like size and a warm-started prefix completion,
one over node-limited exact searches, and one over a short training run.

Every schedule input here is built and dispatched with integer arithmetic
and PCG64 draws only, so those digests do not depend on the platform. The
training digest also covers floating-point parameters, so it holds for the
numpy version CI installs. A change to a digest means some schedule or
trained value changed; if that is intended, record the new digest with the
change that explains it.
"""

import hashlib

from cpshop.benchmarks import LA_LIKE_SIZES, TA_LIKE_SIZES, dataset
from cpshop.env import JobShopEnv
from cpshop.expert import complete_prefix, improve, solve_exact
from cpshop.instances import generate_instance, parse_instance_text
from cpshop.rules import RULES, RulePolicy, greedy_rollout, masked_argmax
from cpshop.train import TrainConfig, train_loop

EXPECTED_DIGEST = "30d78fa8dcdba0bc01601461be375eced0e563a5bf806d43ddf078f1b53d1c1b"
LOCAL_SEARCH_DIGEST = "461e45df0eb9bc83cc336045f20f2f84dcafc84d4ad1632bd6241a1d7e5d87c8"
EXACT_DIGEST = "5262f78803b0cf248445653b64cb200ae33df23fd45318bd49f5f07e3e14738e"
TRAIN_DIGEST = "d7c6e88ed3a08f89d20cf1d56dffbfac650975ca3962900e0acfda42b1c1da6d"


def firsts_of(name: str, sizes) -> list:
    """The first instance of each of ``sizes`` in dataset ``name``."""
    instances = dataset(name)
    firsts, index = [], 0
    for _, _, count in sizes:
        firsts.append(instances[index])
        index += count
    return firsts


def schedules() -> list:
    # the first instance of each of the three smallest sizes
    firsts = firsts_of("ta-like", TA_LIKE_SIZES[:3])
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


def local_search_schedules() -> list:
    """``improve`` under an evals budget from ``mtwr`` at every ta-like
    size, then ``complete_prefix`` of a 30-step ``spt`` prefix on 15x15,
    pinned and warm-started by the whole ``spt`` episode (shorter than the
    ``mtwr`` completion of that prefix, so the warm start is taken)."""
    firsts = firsts_of("ta-like", TA_LIKE_SIZES)
    out = [
        improve(inst, greedy_rollout(inst, RulePolicy("mtwr")), evals=500, seed=1)
        for inst in firsts
    ]
    inst, policy = firsts[0], RulePolicy("spt")
    env = JobShopEnv(inst)
    obs = env.reset()
    actions = []
    while not env.done:
        actions.append(masked_argmax(policy.logits(obs), obs.mask))
        obs = env.step(actions[-1]).observation
    cut = JobShopEnv(inst)
    cut.reset()
    for action in actions[:30]:
        cut.step(action)
    out.append(complete_prefix(inst, cut, evals=500, seed=3, warm=env.solution()))
    return out


def test_local_search_matches_the_recorded_digest():
    digest = hashlib.sha256(repr(local_search_schedules()).encode()).hexdigest()
    assert digest == LOCAL_SEARCH_DIGEST


def exact_results() -> list:
    """``solve_exact`` under a node limit on the first la-like instance of
    each size, then on a ragged instance of 1, 3 and 2 operations. Each
    result holds its node count, so this pins the search order too."""
    ragged = parse_instance_text("3 3\n0 5\n1 3 0 2 2 4\n2 6 1 1\n", "orlib", "ragged")
    return [
        *(solve_exact(inst, node_limit=20_000) for inst in firsts_of("la-like", LA_LIKE_SIZES)),
        solve_exact(ragged),
    ]


def test_exact_search_matches_the_recorded_digest():
    digest = hashlib.sha256(repr(exact_results()).encode()).hexdigest()
    assert digest == EXACT_DIGEST


def training_digest() -> str:
    """Two epochs on two 5x4 instances with four actors, in which both
    waves apply updates: the trained and best parameters, the best epoch
    and greedy mean, and every metric but ``wall_s``."""
    result = train_loop(
        [generate_instance(5, 4, seed=s) for s in (1, 2)],
        TrainConfig(epochs=2, actor_count=4, seed=0),
    )
    digest = hashlib.sha256()
    for params in (result.params, result.best_params):
        for name in sorted(params):
            digest.update(name.encode())
            digest.update(params[name].data.tobytes())
    rows = [{k: v for k, v in row.items() if k != "wall_s"} for row in result.metrics]
    digest.update(repr((result.best_epoch, result.best_greedy_mean, rows)).encode())
    return digest.hexdigest()


def test_training_matches_the_recorded_digest():
    assert training_digest() == TRAIN_DIGEST
