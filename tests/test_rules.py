import numpy as np
import pytest

from cpshop.env import F_LB, F_LENGTH, JobShopEnv, Observation, SLOT_REAL, SLOT_SINK
from cpshop.instances import generate_instance, parse_instance_text
from cpshop.model import validate
from cpshop.net import NetPolicy, init_params
from cpshop.rules import (
    RULES,
    Rollout,
    RulePolicy,
    actor_temperature,
    ensemble_solve,
    greedy_rollout,
    masked_argmax,
    masked_softmax,
    pdr_logits,
    rollout,
    sample_lockstep,
)

from test_env import uneven_instance


def crafted_observation():
    """Three jobs, two visible slots each, with distinct rule orderings.

    job 0: current (lb 2, l 5), next (l 1)  -> remaining work 6
    job 1: current (lb 0, l 9), next (l 0*) -> remaining work 9 (* sink)
    job 2: current (lb 1, l 3), next (l 4)  -> remaining work 7
    """
    feats = np.zeros((3, 3, 4))
    kinds = np.full((3, 3), SLOT_SINK, dtype=np.int8)
    kinds[:, 1] = SLOT_REAL
    feats[0, 1, F_LB], feats[0, 1, F_LENGTH] = 2, 5
    feats[1, 1, F_LB], feats[1, 1, F_LENGTH] = 0, 9
    feats[2, 1, F_LB], feats[2, 1, F_LENGTH] = 1, 3
    kinds[0, 2] = SLOT_REAL
    feats[0, 2, F_LENGTH] = 1
    kinds[2, 2] = SLOT_REAL
    feats[2, 2, F_LENGTH] = 4
    mask = np.array([True, True, True, False])
    return Observation(features=feats, kinds=kinds, mask=mask, t=2, time_scale=22)


def test_fifo_prefers_earliest_start_bound():
    logits = pdr_logits(crafted_observation(), "fifo")
    assert np.argmax(logits[:-1]) == 1  # lb 0 wins
    assert logits[-1] == -np.inf


def test_spt_prefers_shortest_current_op():
    logits = pdr_logits(crafted_observation(), "spt")
    assert np.argmax(logits[:-1]) == 2  # length 3 wins


def test_mtwr_sums_only_visible_real_slots():
    logits = pdr_logits(crafted_observation(), "mtwr")
    assert logits[:-1].tolist() == [6.0, 9.0, 7.0]
    assert np.argmax(logits[:-1]) == 1


def kind_masked_pdr_logits(observation, rule):
    """The rules as written when mtwr also masked the lengths by slot kind."""
    feats = observation.features
    real = observation.kinds == SLOT_REAL
    if rule == "fifo":
        prio = -feats[:, 1, F_LB]
    elif rule == "spt":
        prio = -feats[:, 1, F_LENGTH]
    else:
        prio = (feats[:, 1:, F_LENGTH] * real[:, 1:]).sum(axis=1)
    logits = np.empty(observation.job_count + 1, dtype=np.float64)
    logits[:-1] = prio
    logits[-1] = -np.inf
    return logits


@pytest.mark.parametrize("horizon,next_ops", [(10, 3), (2, 2)])
def test_rule_logits_equal_the_kind_masked_formula(horizon, next_ops):
    rng = np.random.default_rng(horizon + next_ops)
    for trial in range(6):
        if trial % 2:
            inst = uneven_instance(12, 6, rng)
        else:
            inst = generate_instance(8, 5, seed=600 + trial)
        env = JobShopEnv(inst, horizon=horizon, next_ops=next_ops)
        obs = env.reset()
        while True:
            for rule in RULES:
                expected = kind_masked_pdr_logits(obs, rule)
                assert pdr_logits(obs, rule).tobytes() == expected.tobytes()
            if env.done:
                break
            obs = env.step(int(rng.choice(np.flatnonzero(obs.mask[:-1])))).observation


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        pdr_logits(crafted_observation(), "edd")
    assert set(RULES) == {"fifo", "spt", "mtwr"}


def test_rule_policy_wraps_pdr_logits():
    obs = crafted_observation()
    for rule in RULES:
        assert (RulePolicy(rule).logits(obs) == pdr_logits(obs, rule)).all()


# -- selection helpers -------------------------------------------------


def test_masked_argmax_ties_to_lowest_index():
    logits = np.array([1.0, 3.0, 3.0, 0.0])
    mask = np.ones(4, dtype=bool)
    assert masked_argmax(logits, mask) == 1
    mask[1] = False
    assert masked_argmax(logits, mask) == 2


def test_masked_argmax_respects_mask():
    logits = np.array([9.0, 1.0])
    assert masked_argmax(logits, np.array([False, True])) == 1
    with pytest.raises(ValueError, match="empty"):
        masked_argmax(logits, np.zeros(2, dtype=bool))


def test_masked_argmax_invariant_to_positive_scaling():
    rng = np.random.default_rng(0)
    for _ in range(50):
        logits = rng.normal(size=6)
        mask = rng.random(6) < 0.7
        if not mask.any():
            continue
        assert masked_argmax(logits, mask) == masked_argmax(logits * 3.5, mask)


def test_masked_softmax_normalizes_and_masks():
    logits = np.array([0.0, 1.0, 2.0])
    mask = np.array([True, False, True])
    p = masked_softmax(logits, mask)
    assert p[1] == 0.0
    assert p.sum() == pytest.approx(1.0)
    assert p[2] > p[0]
    # a batch is normalised row by row, byte-equal to one row at a time
    rng = np.random.default_rng(0)
    batch = rng.normal(scale=5.0, size=(7, 9))
    masks = rng.random((7, 9)) < 0.6
    masks[:, 0] = True
    for t in (1.0, 1.5):
        rows = np.stack([masked_softmax(row, m, t) for row, m in zip(batch, masks)])
        assert masked_softmax(batch, masks, t).tobytes() == rows.tobytes()
    # a column of per-row temperatures, as one row at a time at each
    temps = rng.uniform(0.5, 2.0, size=(7, 1))
    rows = np.stack([masked_softmax(row, m, t) for row, m, t in zip(batch, masks, temps[:, 0])])
    assert masked_softmax(batch, masks, temps).tobytes() == rows.tobytes()
    temps[2] = 0.0
    with pytest.raises(ValueError, match="temperature"):
        masked_softmax(batch, masks, temps)
    masks[3] = False
    with pytest.raises(ValueError, match="empty"):
        masked_softmax(batch, masks)


def test_masked_softmax_temperature_flattens():
    logits = np.array([0.0, 2.0])
    mask = np.ones(2, dtype=bool)

    def entropy(t):
        p = masked_softmax(logits, mask, temperature=t)
        return -(p * np.log(p)).sum()

    temps = [0.25, 0.5, 1.0, 2.0, 4.0]
    values = [entropy(t) for t in temps]
    assert values == sorted(values)  # hotter means flatter
    cold = masked_softmax(logits, mask, temperature=1e-3)
    assert cold[1] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="temperature"):
        masked_softmax(logits, mask, temperature=0.0)


def test_masked_softmax_all_minus_inf_falls_back_uniform():
    logits = np.array([-np.inf, -np.inf, -np.inf])
    mask = np.array([True, True, False])
    p = masked_softmax(logits, mask)
    assert p.tolist() == [0.5, 0.5, 0.0]
    # only the all -inf row of a batch falls back
    batch = np.stack([logits, [0.0, 1.0, 2.0]])
    masks = np.stack([mask, [True, False, True]])
    p = masked_softmax(batch, masks)
    assert p[0].tolist() == [0.5, 0.5, 0.0]
    assert p[1].tobytes() == masked_softmax(batch[1], masks[1]).tobytes()


# -- rollouts ----------------------------------------------------------


def test_greedy_rollout_is_feasible_and_deterministic():
    inst = generate_instance(6, 6, seed=3)
    for rule in RULES:
        a = greedy_rollout(inst, RulePolicy(rule))
        b = greedy_rollout(inst, RulePolicy(rule))
        assert a == b
        assert validate(inst, a)


def rule_logits(rule):
    """``logits_of`` for ``sample_lockstep``: one rule row per observation."""
    return lambda observations: np.stack([pdr_logits(obs, rule) for obs in observations])


def test_rollout_records_trace():
    inst = generate_instance(4, 4, seed=5)
    (run,) = sample_lockstep(
        [JobShopEnv(inst)], rule_logits("spt"), [np.random.default_rng(0)], [1.0], record=True
    )
    assert len(run.actions) == len(run.observations)
    assert len(run.actions) >= inst.total_operations
    # the makespan is the latest end, read off the instance's own tables
    assert run.makespan == max(
        s + p for row, procs in zip(run.solution.starts, inst.proc.tolist())
        for s, p in zip(row, procs)
    )
    # replaying the recorded actions reproduces the schedule
    env = JobShopEnv(inst)
    for action in run.actions:
        env.step(action)
    assert env.solution() == run.solution
    # without record only the schedule is kept
    (bare,) = sample_lockstep(
        [JobShopEnv(inst)], rule_logits("spt"), [np.random.default_rng(0)], [1.0]
    )
    assert bare.solution == run.solution and bare.actions == bare.observations == []


def test_rollout_continues_partial_episode():
    inst = generate_instance(4, 4, seed=6)
    env = JobShopEnv(inst)
    obs = env.reset()
    obs = env.step(int(np.flatnonzero(obs.mask[:-1])[0])).observation
    run = rollout(inst, RulePolicy("fifo"), env=env)
    assert validate(inst, run.solution)


def test_sampled_rollout_reproducible_by_seed():
    inst = generate_instance(5, 5, seed=7)
    a, b = (
        sample_lockstep(
            [JobShopEnv(inst)], rule_logits("mtwr"), [np.random.default_rng(1)], [1.5]
        )[0]
        for _ in range(2)
    )
    assert a.solution == b.solution


def test_vector_mode_matches_single_for_static_priority():
    # with a priority that never changes mid-episode the sweep and the
    # one-at-a-time path agree; fifo recomputes bounds, so compare using a
    # fixed arbitrary priority via mtwr on a small case instead
    inst = parse_instance_text("2 2\n0 3 1 2\n1 4 0 1\n", "orlib")
    sol_vec = greedy_rollout(inst, RulePolicy("mtwr"), use_vector=True)
    assert validate(inst, sol_vec)


# -- ensembles ---------------------------------------------------------


def test_actor_temperature_spread():
    temps = [actor_temperature(a, 4) for a in range(1, 5)]
    assert temps == [0.875, 1.25, 1.625, 2.0]
    assert actor_temperature(8, 8) == 2.0
    with pytest.raises(ValueError):
        actor_temperature(0, 4)
    with pytest.raises(ValueError):
        actor_temperature(5, 4)


def test_ensemble_keeps_minimum_and_is_reproducible():
    inst = generate_instance(6, 6, seed=9)
    a = ensemble_solve(inst, RulePolicy("spt"), actor_count=6, seed=42)
    b = ensemble_solve(inst, RulePolicy("spt"), actor_count=6, seed=42)
    assert a.makespans == b.makespans
    assert a.solution == b.solution
    assert len(a.makespans) == 6
    assert a.best_makespan == min(a.makespans)
    assert a.solution.makespan == a.best_makespan
    assert validate(inst, a.solution)


class FlatPolicy:
    """Indifferent policy: equal logits over jobs, No-Op excluded."""

    def logits(self, observation):
        out = np.zeros(observation.job_count + 1)
        out[-1] = -np.inf
        return out


def test_ensemble_differs_across_seeds():
    # rule logits are so spread out that sampling is near-greedy, so use
    # an indifferent policy to surface the seed dependence
    inst = generate_instance(6, 6, seed=10)
    a = ensemble_solve(inst, FlatPolicy(), actor_count=4, seed=0)
    b = ensemble_solve(inst, FlatPolicy(), actor_count=4, seed=1)
    assert a.makespans != b.makespans


def test_ensemble_rejects_empty():
    inst = generate_instance(3, 3, seed=1)
    with pytest.raises(ValueError):
        ensemble_solve(inst, RulePolicy("fifo"), actor_count=0)


def sample_one_actor(instance, policy, rng, temperature):
    """Reference: one actor's episode sampled alone, one observation at a
    time, as ensembles did before their actors were stepped in lockstep."""
    env = JobShopEnv(instance)
    obs = env.reset()
    observations, actions = [], []
    while not env.done:
        probs = masked_softmax(policy.logits(obs), obs.mask, temperature)
        action = int(rng.choice(len(probs), p=probs))
        observations.append(obs)
        actions.append(action)
        obs = env.step(action).observation
    return Rollout(env.solution(), observations, actions)


def ensemble_one_actor_at_a_time(instance, policy, actor_count, seed):
    streams = np.random.SeedSequence(seed).spawn(actor_count)
    runs = [
        sample_one_actor(
            instance, policy, np.random.default_rng(stream), actor_temperature(a, actor_count)
        )
        for a, stream in enumerate(streams, start=1)
    ]
    best = None
    for run in runs:
        if best is None or run.makespan < best.makespan:
            best = run
    return best.solution, tuple(run.makespan for run in runs), runs


@pytest.mark.parametrize(
    "policy",
    [NetPolicy(init_params(seed=0)), RulePolicy("mtwr"), FlatPolicy()],
    ids=["net", "mtwr", "flat"],
)
def test_ensemble_equals_one_actor_at_a_time(policy):
    for trial, (jobs, machines) in enumerate([(4, 3), (6, 6), (10, 5)]):
        inst = generate_instance(jobs, machines, seed=950 + trial)
        result = ensemble_solve(inst, policy, actor_count=5, seed=trial)
        solution, makespans, _ = ensemble_one_actor_at_a_time(inst, policy, 5, trial)
        assert result.makespans == makespans
        assert result.solution == solution


class RecordingPolicy:
    def __init__(self, policy):
        self.policy = policy
        self.seen = []

    def logits(self, observation):
        self.seen.append(observation)
        return self.policy.logits(observation)


def test_ensemble_steps_its_actors_in_lockstep():
    inst = generate_instance(6, 6, seed=12)
    policy = RecordingPolicy(NetPolicy(init_params(seed=0)))
    ensemble_solve(inst, policy, actor_count=4, seed=3)
    _, _, runs = ensemble_one_actor_at_a_time(inst, policy.policy, 4, 3)
    assert len({len(run.actions) for run in runs}) > 1  # actors finish in different rounds
    # round r shows the r-th observation of every actor still running
    expected = [
        run.observations[r]
        for r in range(max(len(run.observations) for run in runs))
        for run in runs
        if r < len(run.observations)
    ]
    assert len(policy.seen) == len(expected)
    for got, want in zip(policy.seen, expected):
        assert got.t == want.t
        assert got.features.tobytes() == want.features.tobytes()
        assert got.mask.tobytes() == want.mask.tobytes()
