import numpy as np
import pytest

from cpshop.env import (
    ActionError,
    F_ASSIGNED,
    F_AT_T,
    F_LB,
    F_LENGTH,
    JobShopEnv,
    SLOT_REAL,
    SLOT_SINK,
    SLOT_SOURCE,
)
from cpshop.instances import Instance, Operation, generate_instance, parse_instance_text
from cpshop.model import compress, validate

ORLIB_2X2 = "2 2\n0 3 1 2\n1 4 0 1\n"


def tiny_env(**kwargs):
    inst = parse_instance_text(ORLIB_2X2, "orlib", name="tiny")
    return JobShopEnv(inst, **kwargs)


def random_episode(env, rng, noop_prob=0.2):
    """Walk one episode with random legal actions, returning the visited
    (t, mask, action, new_t) tuples."""
    obs = env.reset()
    trace = []
    while not env.done:
        mask = obs.mask
        jobs = np.flatnonzero(mask[:-1])
        if mask[-1] and (jobs.size == 0 or rng.random() < noop_prob):
            action = env.noop_action
        else:
            action = int(rng.choice(jobs))
        t_before = obs.t
        obs = env.step(action).observation
        trace.append((t_before, mask, action, obs.t))
    return trace


# -- hand-derived 2x2 walkthrough --------------------------------------


def test_reset_clock_is_min_current_end_bound():
    env = tiny_env()
    obs = env.reset()
    # current end bounds are 0+3 and 0+4; the clock opens at their minimum
    assert obs.t == 3
    assert env.t == 3
    assert list(obs.mask) == [True, True, True]


def test_reset_observation_layout():
    env = tiny_env(next_ops=3)
    obs = env.reset()
    assert obs.features.shape == (2, 5, 4)
    # no operation fixed yet: slot 0 is a source slot for both jobs
    assert list(obs.kinds[:, 0]) == [SLOT_SOURCE, SLOT_SOURCE]
    assert list(obs.kinds[:, 1]) == [SLOT_REAL, SLOT_REAL]
    assert list(obs.kinds[:, 2]) == [SLOT_REAL, SLOT_REAL]
    assert list(obs.kinds[:, 3]) == [SLOT_SINK, SLOT_SINK]
    # current ops: both start bound 0, lengths 3 and 4, neither starts at t=3
    assert obs.features[0, 1].tolist() == [0.0, 0.0, 3.0, 0.0]
    assert obs.features[1, 1].tolist() == [0.0, 0.0, 4.0, 0.0]
    # upcoming ops carry chained start bounds: 0+3 and 0+4
    assert obs.features[0, 2].tolist() == [0.0, 3.0, 2.0, 1.0]
    assert obs.features[1, 2].tolist() == [0.0, 4.0, 1.0, 0.0]
    assert obs.time_scale == env.instance.machine_load_bound()


def test_a_new_env_observes_and_steps_without_a_reset():
    inst = generate_instance(6, 5, seed=3)
    env, restarted = JobShopEnv(inst), JobShopEnv(inst)
    obs = env.observe()
    assert obs_bytes(obs) == obs_bytes(restarted.reset())
    rng = np.random.default_rng(0)
    while not env.done:
        action = int(rng.choice(np.flatnonzero(obs.mask)))
        obs = env.step(action).observation
        assert obs_bytes(obs) == obs_bytes(restarted.step(action).observation)
    assert validate(inst, env.solution()) and env.solution() == restarted.solution()


def test_reset_after_steps_restarts_the_episode():
    env = JobShopEnv(generate_instance(6, 5, seed=4))
    first = obs_bytes(env.observe())
    for _ in range(7):
        env.step(int(np.flatnonzero(env.observe().mask)[0]))
    assert obs_bytes(env.observe()) != first
    assert obs_bytes(env.reset()) == first
    assert env.model.fixed_count == 0 and obs_bytes(env.observe()) == first


def test_full_episode_walkthrough():
    env = tiny_env()
    env.reset()
    r = env.step(0)  # job 0 op 0 fixed at its bound 0
    assert not env.done
    assert r.applied_actions == (0,)
    assert r.observation.t == 3  # job 1 still dispatchable, no refresh

    r = env.step(1)  # job 1 op 0 fixed at 0, machine 1 busy until 4
    # both second ops now have start bound 4 > 3: the clock refreshes to
    # the minimum current end bound, min(4+2, 4+1) = 5
    assert r.observation.t == 5
    # end bound 6 is still a later event, so No-Op remains on offer
    assert list(r.observation.mask) == [True, True, True]
    # previous-op slots now describe the fixed first operations
    assert r.observation.features[0, 0].tolist() == [1.0, 0.0, 3.0, 0.0]
    assert r.observation.kinds[0, 0] == SLOT_REAL

    env.step(0)
    r = env.step(1)
    assert env.done
    assert not r.observation.mask.any()
    sol = env.solution()
    assert sol.makespan == 6
    assert sol.starts == ((0, 4), (0, 4))
    assert validate(env.instance, sol)
    assert compress(env.instance, sol) == sol


def test_noop_advances_to_next_event():
    env = tiny_env()
    env.reset()
    r = env.step(env.noop_action)
    # events later than t=3 are the end bound 4; releases are still 0
    assert r.observation.t == 4


def test_noop_unavailable_when_no_later_event():
    inst = parse_instance_text("1 1\n0 5\n", "orlib")
    env = JobShopEnv(inst)
    obs = env.reset()
    assert obs.t == 5
    assert list(obs.mask) == [True, False]
    with pytest.raises(ActionError, match="No-Op"):
        env.step(env.noop_action)


# -- errors ------------------------------------------------------------


def test_finished_job_is_rejected_as_finished():
    # job 1 has one operation; once it is dispatched no bound applies to it
    env = JobShopEnv(parse_instance_text("2 2\n0 3 1 2\n1 4\n", "orlib"))
    env.step(1)
    with pytest.raises(ActionError, match="job 1 has no operation left"):
        env.step(1)


def test_action_out_of_range():
    env = tiny_env()
    env.reset()
    with pytest.raises(ActionError, match="out of range"):
        env.step(7)
    with pytest.raises(ActionError, match="out of range"):
        env.step(-1)


def test_masked_job_rejected():
    # three jobs: fixing the long job 0 blocks job 1 behind machine 0
    text = "3 2\n0 10\n0 1\n1 5\n"
    inst = parse_instance_text(text, "orlib")
    env = JobShopEnv(inst)
    obs = env.reset()
    assert obs.t == 1
    mask = env.step(0).observation.mask
    assert not mask[1] and mask[2]
    message = r"job 1 is not dispatchable at t=1 \(start lower bound 10\)"
    with pytest.raises(ActionError, match=message):
        env.step(1)


def test_terminal_state_rejects_everything():
    inst = parse_instance_text("1 1\n0 5\n", "orlib")
    env = JobShopEnv(inst)
    env.reset()
    env.step(0)
    assert env.done
    with pytest.raises(ActionError, match="over"):
        env.step(0)
    assert not env.observe().mask.any()


def test_next_ops_zero_keeps_two_slots():
    env = tiny_env(next_ops=0)
    obs = env.reset()
    assert obs.features.shape == (2, 2, 4)
    with pytest.raises(ValueError):
        tiny_env(next_ops=-1)


def test_horizon_checked_at_construction():
    with pytest.raises(ValueError, match="horizon"):
        tiny_env(horizon=0)


# -- fuzzed invariants -------------------------------------------------


def test_mask_always_offers_a_job_action():
    rng = np.random.default_rng(0)
    for trial in range(30):
        inst = generate_instance(5, 4, seed=trial)
        env = JobShopEnv(inst)
        for t_before, mask, action, _ in random_episode(env, rng):
            assert mask[:-1].any()  # No-Op is never forced


def test_clock_is_monotone_and_advances_only_when_blocked():
    rng = np.random.default_rng(1)
    for trial in range(20):
        inst = generate_instance(4, 4, seed=100 + trial)
        env = JobShopEnv(inst)
        obs = env.reset()
        while not env.done:
            jobs = np.flatnonzero(obs.mask[:-1])
            action = int(rng.choice(jobs))  # job actions only
            t_before = obs.t
            obs = env.step(action).observation
            t_after = obs.t
            assert t_after >= t_before
            if t_after > t_before and not env.done:
                # a refresh only fires when every waiting job is blocked:
                # all current start bounds exceed the old clock, and the
                # new clock is the minimum current end bound
                alive = obs.kinds[:, 1] == SLOT_REAL
                lbs = obs.features[alive, 1, F_LB]
                ends = lbs + obs.features[alive, 1, F_LENGTH]
                assert (lbs > t_before).all()
                assert t_after == ends.min()


def test_terminal_schedules_feasible_and_compressed():
    rng = np.random.default_rng(2)
    for trial in range(30):
        inst = generate_instance(5, 5, seed=200 + trial)
        env = JobShopEnv(inst)
        random_episode(env, rng)
        sol = env.solution()
        assert validate(inst, sol)
        assert compress(inst, sol) == sol


def test_at_t_flag_matches_clock():
    rng = np.random.default_rng(3)
    inst = generate_instance(4, 4, seed=9)
    env = JobShopEnv(inst)
    obs = env.reset()
    while not env.done:
        real = obs.kinds == SLOT_REAL
        at_t = obs.features[..., F_AT_T][real]
        lbs = obs.features[..., F_LB][real]
        assert ((lbs == obs.t) == at_t.astype(bool)).all()
        jobs = np.flatnonzero(obs.mask[:-1])
        obs = env.step(int(rng.choice(jobs))).observation


def test_assigned_flag_only_on_previous_slot():
    rng = np.random.default_rng(4)
    inst = generate_instance(4, 3, seed=11)
    env = JobShopEnv(inst)
    obs = env.reset()
    while not env.done:
        assert (obs.features[:, 1:, F_ASSIGNED] == 0).all()
        jobs = np.flatnonzero(obs.mask[:-1])
        obs = env.step(int(rng.choice(jobs))).observation


# -- vector mode -------------------------------------------------------


def test_step_vector_validates_priority():
    env = tiny_env()
    env.reset()
    with pytest.raises(ActionError, match="permutation"):
        env.step_vector([0, 0])
    with pytest.raises(ActionError, match="permutation"):
        env.step_vector([0])


def test_step_vector_replay_bisimulation():
    rng = np.random.default_rng(5)
    repeated = 0
    for jobs, machines in ((6, 6), (30, 5)):
        for trial in range(20):
            inst = generate_instance(jobs, machines, seed=300 + trial)
            vec_env = JobShopEnv(inst)
            seq_env = JobShopEnv(inst)
            vec_obs = vec_env.reset()
            seq_obs = seq_env.reset()
            while not vec_env.done:
                order = rng.permutation(inst.job_count)
                result = vec_env.step_vector(order)
                assert result.applied_actions  # a sweep always makes progress
                applied = result.applied_actions
                repeated += len(set(applied)) < len(applied)
                for action in applied:
                    seq_obs = seq_env.step(action).observation
                vec_obs = result.observation
                assert vec_obs.t == seq_obs.t
                assert (vec_obs.mask == seq_obs.mask).all()
                assert (vec_obs.features == seq_obs.features).all()
                assert (vec_obs.kinds == seq_obs.kinds).all()
            assert seq_env.done
            assert vec_env.solution() == seq_env.solution()
    # some calls dispatch one job twice: a job whose next operation is
    # ready again at the same clock value is picked up by a later sweep
    assert repeated > 0


def model_arrays(env):
    model = env.model
    return [model.cursor, model.prev_end, model.release, model.starts]


def obs_bytes(obs):
    return (obs.features.tobytes(), obs.kinds.tobytes(), obs.mask.tobytes(), obs.t)


@pytest.mark.parametrize("jobs,machines,prefix", [(6, 6, 0), (6, 6, 11), (10, 4, 17)])
def test_copy_steps_independently_of_its_original(jobs, machines, prefix):
    inst = generate_instance(jobs, machines, seed=40 + prefix)
    rng = np.random.default_rng(prefix)
    env = JobShopEnv(inst, horizon=3, next_ops=2)
    obs = env.reset()

    def pick(obs):
        ready = np.flatnonzero(obs.mask[:-1])
        return env.noop_action if obs.mask[-1] and rng.random() < 0.2 else int(rng.choice(ready))

    for _ in range(prefix):
        obs = env.step(pick(obs)).observation
    before = obs_bytes(obs)
    arrays = [a.copy() for a in model_arrays(env)]
    state = (env.t, env.model.fixed_count)
    twin = env.copy()
    assert twin.observe() is obs  # the cached observation is shared
    actions, seen = [], []
    while not twin.done:
        actions.append(pick(twin.observe()))
        seen.append(obs_bytes(twin.step(actions[-1]).observation))
    # stepping the copy left the original untouched
    assert env.observe() is obs and obs_bytes(obs) == before
    assert (env.t, env.model.fixed_count) == state
    for a, b in zip(arrays, model_arrays(env)):
        assert a.tobytes() == b.tobytes()
    # the same actions take the original through byte-equal observations
    for action, expected in zip(actions, seen):
        assert obs_bytes(env.step(action).observation) == expected
    assert env.solution() == twin.solution()


def test_step_vector_dispatches_everything_ready():
    env = tiny_env()
    env.reset()
    result = env.step_vector([1, 0])
    # both first ops have bound 0 <= t=3; the sweep fixes both and then
    # refreshes the clock just like the single-action path
    assert set(result.applied_actions) == {0, 1}
    assert result.observation.t == 5


def test_step_vector_redispatches_a_job_within_one_call():
    # a job dispatched at a bound below t whose operation ends at or before
    # t is ready again, and a later sweep of the same call dispatches it
    inst = generate_instance(5, 4, seed=2)
    rng = np.random.default_rng(0)
    env, replay = JobShopEnv(inst), JobShopEnv(inst)
    env.reset()
    replay.reset()
    redispatched = 0
    while not env.done:
        t, cursor = env.t, env.model.cursor.copy()
        result = env.step_vector(rng.permutation(inst.job_count))
        applied = result.applied_actions
        for job in set(applied):
            if applied.count(job) > 1:
                start = env.model.starts[job, cursor[job]]
                assert start < t and start + env.model.proc[job, cursor[job]] <= t
                redispatched += 1
        for job in applied:
            obs = replay.step(job).observation
        assert obs_bytes(obs) == obs_bytes(result.observation)
    assert redispatched > 0
    assert env.solution() == replay.solution()


def test_step_vector_finishes_a_job_at_the_clock_equal_to_the_sentinel():
    # one machine: the clock reaches the total processing time, and the
    # sweep that finishes job 1 at that clock must not revisit it
    inst = Instance("one-machine", 2, 1, ((Operation(0, 2),), (Operation(0, 3),)))
    env = JobShopEnv(inst)
    env.reset()
    env.step(0)
    obs = env.step(env.noop_action).observation
    assert obs.t == 5
    assert env.step_vector([1, 0]).applied_actions == (1,)
    assert env.done and env.solution().starts == ((0,), (2,))


# -- window rows -------------------------------------------------------


def two_block_window(model, t, horizon, next_ops):
    """Features, kinds and mask as built before the window became one grid:
    the previous slot and the upcoming slots in two separate blocks, with
    the loaded part bounded per job by ``min(n_ops, cursor + horizon)``."""
    jc = model.instance.job_count
    idx = np.arange(jc)
    alive = model.alive()
    # current start lower bounds; a finished job's entry is masked out
    current = np.minimum(model.cursor, model.proc.shape[1] - 1)
    lbs = np.maximum(model.prev_end, model.release[model.machine[idx, current]])
    loaded_until = np.minimum(model.n_ops, model.cursor + horizon)
    slots = 2 + next_ops
    k = model.cursor[:, None] + np.arange(slots - 1)
    loaded = alive[:, None] & (k < loaded_until[:, None])
    k = np.minimum(k, model.proc.shape[1] - 1)
    proc = model.proc[idx[:, None], k]
    ends = (lbs + proc[:, 0])[alive]
    mask = np.zeros(jc + 1, dtype=bool)
    mask[:jc] = alive & (lbs <= t)
    mask[jc] = alive.any() and bool((ends > t).any() or (model.release > t).any())

    feats = np.zeros((jc, slots, 4), dtype=np.float64)
    kinds = np.empty((jc, slots), dtype=np.int8)
    has_prev = model.cursor > 0
    pk = np.maximum(model.cursor - 1, 0)
    starts = model.starts[idx, pk]
    kinds[:, 0] = np.where(has_prev, SLOT_REAL, SLOT_SOURCE)
    feats[:, 0, F_ASSIGNED] = has_prev
    feats[:, 0, F_LB] = np.where(has_prev, starts, 0)
    feats[:, 0, F_LENGTH] = np.where(has_prev, model.proc[idx, pk], 0)
    feats[:, 0, F_AT_T] = has_prev & (starts == t)

    release = model.release[model.machine[idx[:, None], k]]
    lb = np.empty_like(proc)
    lb[:, 0] = lbs
    for s in range(1, slots - 1):
        lb[:, s] = np.maximum(lb[:, s - 1] + proc[:, s - 1], release[:, s])
    kinds[:, 1:] = np.where(loaded, SLOT_REAL, SLOT_SINK)
    feats[:, 1:, F_LB] = np.where(loaded, lb, 0)
    feats[:, 1:, F_LENGTH] = np.where(loaded, proc, 0)
    feats[:, 1:, F_AT_T] = loaded & (lb == t)
    return feats, kinds, mask


def uneven_instance(jobs, machines, rng):
    """Jobs of 1..machines operations on distinct machines each."""
    ops = []
    for _ in range(jobs):
        order = rng.permutation(machines)[: rng.integers(1, machines + 1)]
        ops.append(tuple(Operation(int(m), int(rng.integers(1, 20))) for m in order))
    return Instance("uneven", jobs, machines, tuple(ops))


def assert_windows_match_two_block_builder(inst, horizon, next_ops, rng):
    """Walk one episode of random steps, vector steps and No-Ops, comparing
    every observation with the two-block builder's."""
    env = JobShopEnv(inst, horizon=horizon, next_ops=next_ops)
    obs = env.reset()
    while True:
        feats, kinds, mask = two_block_window(env.model, obs.t, horizon, next_ops)
        assert obs.t == env.t
        assert obs.features.dtype == feats.dtype and obs.features.shape == feats.shape
        assert obs.features.tobytes() == feats.tobytes()
        assert obs.kinds.dtype == kinds.dtype and obs.kinds.tobytes() == kinds.tobytes()
        assert obs.mask.tobytes() == mask.tobytes()
        if env.done:
            break
        u = rng.random()
        if u < 0.3:
            obs = env.step_vector(rng.permutation(inst.job_count)).observation
        elif u < 0.45 and obs.mask[-1]:
            obs = env.step(env.noop_action).observation
        else:
            obs = env.step(int(rng.choice(np.flatnonzero(obs.mask[:-1])))).observation
    assert validate(inst, env.solution())


@pytest.mark.parametrize("horizon,next_ops", [(10, 3), (1, 3), (2, 0), (3, 5), (2, 2)])
def test_window_equals_two_block_builder(horizon, next_ops):
    rng = np.random.default_rng(10 * horizon + next_ops)
    for trial in range(16):
        if trial % 2:
            inst = uneven_instance(6, 5, rng)
        else:
            inst = generate_instance(5, 4, seed=500 + trial)
        assert_windows_match_two_block_builder(inst, horizon, next_ops, rng)
    if (horizon, next_ops) == (10, 3):
        # at size, with jobs shorter than the longest one and cursors at
        # the end of their job
        assert_windows_match_two_block_builder(generate_instance(200, 10, seed=516), 10, 3, rng)
        assert_windows_match_two_block_builder(uneven_instance(60, 10, rng), 10, 3, rng)


@pytest.mark.parametrize("next_ops", [0, 3])
def test_every_horizon_above_next_ops_gives_the_same_observations(next_ops):
    # why TrainConfig requires horizon > next_ops: a checkpoint records
    # next_ops only, and is evaluated at some larger horizon
    inst = generate_instance(8, 6, seed=77)
    rng = np.random.default_rng(next_ops)
    envs = [JobShopEnv(inst, horizon=h, next_ops=next_ops) for h in (next_ops + 1, 10, 50)]
    observations = [env.reset() for env in envs]
    while True:
        for obs in observations[1:]:
            assert obs.t == observations[0].t
            assert obs.features.tobytes() == observations[0].features.tobytes()
            assert obs.kinds.tobytes() == observations[0].kinds.tobytes()
            assert obs.mask.tobytes() == observations[0].mask.tobytes()
        if envs[0].done:
            break
        mask = observations[0].mask
        if mask[-1] and rng.random() < 0.2:
            action = envs[0].noop_action
        else:
            action = int(rng.choice(np.flatnonzero(mask[:-1])))
        observations = [env.step(action).observation for env in envs]
    assert all(env.done for env in envs)


# -- schedule-level idle behavior --------------------------------------


def classical_nondelay_violations(instance, solution):
    """Count idle gaps on a machine while some later operation of that
    machine was already available (its job predecessor had finished)."""
    per_machine = {}
    for j, (row, ops) in enumerate(zip(solution.starts, instance.jobs)):
        for k, (s, op) in enumerate(zip(row, ops)):
            ready = 0 if k == 0 else row[k - 1] + ops[k - 1].processing_time
            per_machine.setdefault(op.machine, []).append(
                (s, s + op.processing_time, ready)
            )
    count = 0
    for entries in per_machine.values():
        entries.sort()
        free = 0
        for start, end, _ in entries:
            if start > free:
                for s2, _, ready in entries:
                    if s2 >= start and max(ready, free) < start:
                        count += 1
                        break
            free = max(free, end)
    return count


def test_fifo_rollouts_never_idle_past_ready_work():
    from cpshop.rules import RulePolicy, greedy_rollout

    for trial in range(20):
        inst = generate_instance(6, 6, seed=400 + trial)
        sol = greedy_rollout(inst, RulePolicy("fifo"))
        assert classical_nondelay_violations(inst, sol) == 0
