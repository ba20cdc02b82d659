import numpy as np
import pytest

import cpshop.net
from cpshop.env import SLOT_SINK, SLOT_SOURCE, JobShopEnv, Observation
from cpshop.instances import generate_instance
from cpshop.model import validate
from cpshop.net import (
    Adam,
    NetPolicy,
    ObservationBatch,
    PolicyConfig,
    action_log_probs,
    forward_logits,
    init_params,
    load_params,
    positional_encoding,
    save_params,
)
from cpshop.rules import ensemble_solve, greedy_rollout, rollout
from cpshop.train import TrainConfig, generate_demos, sample_episodes


def observations_for(seed, count=3, jobs=4, machines=4):
    inst = generate_instance(jobs, machines, seed=seed)
    env = JobShopEnv(inst)
    obs = env.reset()
    out = [obs]
    rng = np.random.default_rng(seed)
    while len(out) < count:
        choices = np.flatnonzero(obs.mask[:-1])
        obs = env.step(int(rng.choice(choices))).observation
        out.append(obs)
    return out


def test_init_params_deterministic_and_shaped():
    a = init_params(seed=1)
    b = init_params(seed=1)
    c = init_params(seed=2)
    assert set(a) == set(b) == set(c)
    assert all((a[k].data == b[k].data).all() for k in a)
    assert any((a[k].data != c[k].data).any() for k in a)
    assert a["proj.w"].shape == (4, 8)
    assert a["tok.source"].shape == (8,)
    assert a["job.h2.w"].shape == (32, 1)


def test_positional_encoding_values():
    enc = positional_encoding(3, 4)
    assert enc.shape == (3, 4)
    assert enc[0].tolist() == [0.0, 1.0, 0.0, 1.0]
    assert enc[1, 0] == pytest.approx(np.sin(1.0))
    assert enc[1, 1] == pytest.approx(np.cos(1.0))
    assert enc[2, 2] == pytest.approx(np.sin(2.0 / 100.0))


def test_forward_shape_and_masking():
    params = init_params(seed=0)
    obs = observations_for(3, count=1)[0]
    logits = NetPolicy(params).logits(obs)
    assert logits.shape == (obs.job_count + 1,)
    assert np.isfinite(logits[obs.mask]).all()
    assert (logits[~obs.mask] == -np.inf).all()


def test_batch_requires_equal_job_count():
    a = observations_for(1, count=1, jobs=3)[0]
    b = observations_for(1, count=1, jobs=4)[0]
    with pytest.raises(ValueError, match="job count"):
        ObservationBatch.from_observations([a, b])


def test_batch_matches_single_forward():
    params = init_params(seed=0)
    observations = observations_for(5, count=4)
    batch = ObservationBatch.from_observations(observations)
    batched = forward_logits(params, batch).data
    policy = NetPolicy(params)
    for row, obs in zip(batched, observations):
        np.testing.assert_allclose(row, policy.logits(obs), rtol=1e-12, atol=1e-12)
    # the policy's batch is the array pass over the same stacked batch
    without = forward_logits(arrays_of(params), batch)
    assert policy.batch_logits(observations).tobytes() == without.tobytes()


def arrays_of(params):
    return {k: p.data for k, p in params.items()}


def test_forward_logits_bitwise_equal_without_graph():
    params = init_params(seed=3)
    observations = observations_for(seed=8, count=5)
    batch = ObservationBatch.from_observations(observations)
    with_graph = forward_logits(params, batch)
    without = forward_logits(arrays_of(params), batch)
    assert with_graph.requires_grad and type(without) is np.ndarray
    assert without.tobytes() == with_graph.data.tobytes()
    single = ObservationBatch.from_observations(observations[:1])
    logits = NetPolicy(params).logits(observations[0])
    assert logits.tobytes() == forward_logits(params, single).data[0].tobytes()


@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("size", [(3, 3), (15, 15), (50, 20), (100, 20)])
def test_array_weights_give_the_tensor_pass_bytes(size, batch_size):
    observations = observations_for(seed=size[0], count=batch_size, jobs=size[0], machines=size[1])
    batch = ObservationBatch.from_observations(observations)
    params = init_params(seed=6)
    logits = forward_logits(arrays_of(params), batch)
    assert type(logits) is np.ndarray and logits.shape == (batch_size, size[0] + 1)
    assert logits.tobytes() == forward_logits(params, batch).data.tobytes()


def wave_batch():
    """Actor and expert observations of one demo wave, as training stacks them."""
    instances = [generate_instance(5, 5, seed=s) for s in (41, 42)]
    config = TrainConfig(actor_count=4, expert_patience=10)
    batches = generate_demos(instances, NetPolicy(init_params(seed=0)), config, seed=0, evals=150)
    observations = [
        obs
        for b in batches
        for d in b.demos
        for obs in d.actor.observations + d.expert.observations
    ]
    return ObservationBatch.from_observations(observations)


def repeated_batch(copies=50):
    obs = JobShopEnv(generate_instance(6, 6, seed=1)).reset()
    return ObservationBatch.from_observations([obs] * copies)


def mixed_scale_batch():
    """Observations of two instances whose load bounds differ."""
    small = observations_for(12, count=3, jobs=4, machines=4)
    large = observations_for(13, count=3, jobs=4, machines=6)
    assert small[0].time_scale != large[0].time_scale
    return ObservationBatch.from_observations(small + large + small)


@pytest.mark.parametrize("make_batch", [wave_batch, repeated_batch, mixed_scale_batch])
def test_distinct_window_forward_is_byte_equal(make_batch):
    params = init_params(seed=5)
    batch = make_batch()
    b, j = batch.features.shape[:2]
    first, inverse = batch.distinct_windows
    windows = batch.features.reshape(b * j, -1)
    assert windows[first][inverse].tobytes() == windows.tobytes()
    assert len(first) < b * j  # windows repeat, so the index saves work
    without = forward_logits(arrays_of(params), batch)
    assert without.tobytes() == forward_logits(params, batch).data.tobytes()
    if make_batch is repeated_batch:
        assert len(first) == j


def test_sub_batch_builds_its_own_window_index():
    batch = repeated_batch(copies=10)
    first, _ = batch.distinct_windows
    sub = batch.take(np.array([0, 3]))
    assert "distinct_windows" not in sub.__dict__
    sub_first, sub_inverse = sub.distinct_windows
    assert len(sub_inverse) == 2 * batch.features.shape[1]
    assert len(sub_first) == len(first)


def test_stage_one_encodes_distinct_windows_only_without_graph(monkeypatch):
    seen = []
    original = cpshop.net._encoder_layer

    def recording(params, prefix, x):
        if prefix == "enc1":
            seen.append(x.shape[0])
        return original(params, prefix, x)

    monkeypatch.setattr(cpshop.net, "_encoder_layer", recording)
    params = init_params(seed=0)
    batch = repeated_batch(copies=50)
    b, j = batch.features.shape[:2]
    forward_logits(arrays_of(params), batch)
    forward_logits(params, batch)
    assert seen == [j, b * j]


class CheckedPolicy:
    """A ``NetPolicy`` whose every logit row is checked, byte for byte,
    against an uncached ``forward_logits`` of the same observations."""

    def __init__(self, policy):
        self.policy, self.config = policy, policy.config
        self.batch_sizes = []

    def logits(self, observation):
        return self.batch_logits([observation])[0]

    def batch_logits(self, observations):
        got = self.policy.batch_logits(observations)
        batch = ObservationBatch.from_observations(observations)
        assert got.tobytes() == forward_logits(arrays_of(self.policy.params), batch).tobytes()
        self.batch_sizes.append(len(observations))
        return got


def test_kept_windows_give_uncached_logits_over_a_greedy_rollout():
    inst = generate_instance(50, 20, seed=4)
    policy = CheckedPolicy(NetPolicy(init_params(seed=2)))
    assert validate(inst, rollout(inst, policy).solution)
    assert len(policy.batch_sizes) >= inst.total_operations


def test_kept_windows_give_uncached_logits_over_interleaved_actors():
    # ensemble_solve asks for one actor's logits after another's
    inst = generate_instance(15, 15, seed=5)
    policy = CheckedPolicy(NetPolicy(init_params(seed=0)))
    result = ensemble_solve(inst, policy, actor_count=4, seed=3)
    assert len(result.makespans) == 4 and set(policy.batch_sizes) == {1}


def test_kept_windows_give_uncached_logits_as_the_batch_shrinks():
    inst = generate_instance(6, 6, seed=8)
    policy = CheckedPolicy(NetPolicy(init_params(seed=0)))
    rngs = [np.random.default_rng(s) for s in range(6)]
    episodes = sample_episodes(inst, policy, rngs, horizon=10)
    assert len({len(ep.actions) for ep in episodes}) > 1  # actors finish apart
    sizes = policy.batch_sizes
    assert sizes[0] == 6 and sizes[-1] < 6
    assert any(a == b for a, b in zip(sizes, sizes[1:]))  # rounds that reuse windows


def test_kept_windows_are_dropped_when_the_parameters_are_replaced():
    params = init_params(seed=0)
    policy = NetPolicy(params)
    observations = observations_for(9, count=2, jobs=6, machines=5)
    before = policy.logits(observations[0])
    optimizer = Adam(params, lr=1e-2)
    batch = ObservationBatch.from_observations(observations[:1])
    action = int(np.flatnonzero(observations[0].mask)[0])
    action_log_probs(params, batch, [action]).sum().backward()
    optimizer.step()
    for obs in (observations[0], observations[1]):
        assert policy.logits(obs).tobytes() == NetPolicy(params).logits(obs).tobytes()
    assert policy.logits(observations[0]).tobytes() != before.tobytes()


def test_stage_one_encodes_only_the_changed_windows_of_consecutive_calls(monkeypatch):
    seen = []
    original = cpshop.net._encoder_layer

    def recording(params, prefix, x):
        if prefix == "enc1":
            seen.append(x.shape[0])
        return original(params, prefix, x)

    monkeypatch.setattr(cpshop.net, "_encoder_layer", recording)
    inst = generate_instance(15, 10, seed=6)
    policy = NetPolicy(init_params(seed=0))
    env = JobShopEnv(inst)
    obs, previous, expected = env.observe(), None, []
    while not env.done:
        batch = ObservationBatch.from_observations([obs])
        rows = np.concatenate([
            batch.features.reshape(inst.job_count, -1).view(np.uint8),
            batch.kinds.reshape(inst.job_count, -1).view(np.uint8),
        ], axis=1)
        changed = inst.job_count if previous is None else int((rows != previous).any(axis=1).sum())
        expected += [changed] if changed else []
        previous = rows
        obs = env.step(int(np.argmax(policy.logits(obs)))).observation
    assert seen == expected
    assert sum(seen) < inst.job_count * len(expected) / 2  # most windows are reused


def test_a_window_whose_slot_kinds_alone_change_is_encoded_again():
    obs = JobShopEnv(generate_instance(5, 5, seed=3)).observe()
    kinds = obs.kinds.copy()
    kinds[2, -1] = SLOT_SOURCE if kinds[2, -1] != SLOT_SOURCE else SLOT_SINK
    other = Observation(
        features=obs.features, kinds=kinds, mask=obs.mask, t=obs.t, time_scale=obs.time_scale
    )
    policy = CheckedPolicy(NetPolicy(init_params(seed=0)))
    first, second = policy.logits(obs), policy.logits(other)
    assert first.tobytes() != second.tobytes()


def test_job_permutation_equivariance():
    # no positional encoding on the job axis: permuting jobs permutes logits
    params = init_params(seed=0)
    obs = observations_for(7, count=1, jobs=5)[0]
    perm = np.array([3, 0, 4, 1, 2])
    permuted = Observation(
        features=obs.features[perm],
        kinds=obs.kinds[perm],
        mask=np.concatenate([obs.mask[:-1][perm], obs.mask[-1:]]),
        t=obs.t,
        time_scale=obs.time_scale,
    )
    policy = NetPolicy(params)
    base = policy.logits(obs)
    out = policy.logits(permuted)
    np.testing.assert_allclose(out[:-1], base[:-1][perm], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(out[-1], base[-1], rtol=1e-10)


def test_time_scale_invariance():
    # doubling all times and the load bound leaves the logits unchanged
    params = init_params(seed=0)
    obs = observations_for(9, count=1)[0]
    from cpshop.env import F_AT_T, F_LB, F_LENGTH, Observation

    feats = obs.features.copy()
    feats[..., F_LB] *= 2
    feats[..., F_LENGTH] *= 2
    doubled = Observation(
        features=feats,
        kinds=obs.kinds,
        mask=obs.mask,
        t=obs.t * 2,
        time_scale=obs.time_scale * 2,
    )
    policy = NetPolicy(params)
    np.testing.assert_allclose(policy.logits(doubled), policy.logits(obs), rtol=1e-12)


def test_action_log_probs_are_log_softmax_rows():
    params = init_params(seed=0)
    observations = observations_for(11, count=3)
    batch = ObservationBatch.from_observations(observations)
    logits = forward_logits(params, batch).data
    actions = [int(np.flatnonzero(o.mask)[0]) for o in observations]
    logp = action_log_probs(params, batch, actions).data
    for i, a in enumerate(actions):
        finite = logits[i][np.isfinite(logits[i])]
        expected = logits[i, a] - (np.log(np.exp(finite - finite.max()).sum()) + finite.max())
        assert logp[i] == pytest.approx(expected, rel=1e-12)


def policy_grad(params, observation, action, coefficient):
    """Gradient of ``coefficient * log pi(action | observation)`` w.r.t.
    every parameter, keyed like the parameter dictionary."""
    for p in params.values():
        p.grad = None
    batch = ObservationBatch.from_observations([observation])
    (action_log_probs(params, batch, [action]) * coefficient).sum().backward()
    return {
        k: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for k, p in params.items()
    }


def test_grad_matches_finite_differences():
    params = init_params(seed=0)
    obs = observations_for(13, count=1)[0]
    action = int(np.flatnonzero(obs.mask)[0])
    coeff = 0.7
    grads = policy_grad(params, obs, action, coeff)
    rng = np.random.default_rng(0)
    batch = ObservationBatch.from_observations([obs])

    def objective():
        return float(action_log_probs(params, batch, [action]).data[0]) * coeff

    eps = 1e-5
    for name in ("proj.w", "enc1.wq.w", "enc2.ff2.w", "job.h1.w", "noop.h2.w"):
        flat = params[name].data.reshape(-1)
        for i in rng.choice(flat.size, size=3, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            hi = objective()
            flat[i] = orig - eps
            lo = objective()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            got = grads[name].reshape(-1)[i]
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_net_policy_rolls_out_feasibly():
    params = init_params(seed=0)
    inst = generate_instance(5, 5, seed=21)
    sol = greedy_rollout(inst, NetPolicy(params))
    assert validate(inst, sol)


def test_net_policy_rejects_a_window_of_another_next_ops():
    # the parameter shapes do not depend on next_ops, so without the check
    # this policy dispatches from 5-slot windows it was not built for
    config = PolicyConfig(next_ops=12)
    policy = NetPolicy(init_params(config, seed=0), config)
    inst = generate_instance(6, 12, seed=2)
    with pytest.raises(ValueError, match="5 slots per job.*next_ops=12"):
        rollout(inst, policy)
    with pytest.raises(ValueError, match="5 slots per job.*next_ops=12"):
        policy.batch_logits([JobShopEnv(inst).observe()])
    assert validate(inst, rollout(inst, policy, horizon=13, next_ops=12).solution)


def test_adam_moves_toward_lower_loss():
    params = init_params(seed=0)
    obs = observations_for(17, count=1)[0]
    action = int(np.flatnonzero(obs.mask)[0])
    opt = Adam(params, lr=1e-2)
    batch = ObservationBatch.from_observations([obs])

    def nll():
        return -float(action_log_probs(params, batch, [action]).data[0])

    before = nll()
    for _ in range(20):
        opt.zero_grad()
        (-action_log_probs(params, batch, [action]).sum()).backward()
        opt.step()
    assert nll() < before


def test_adam_state_roundtrip():
    params = init_params(seed=0)
    opt = Adam(params, lr=1e-3)
    obs = observations_for(19, count=1)[0]
    batch = ObservationBatch.from_observations([obs])
    opt.zero_grad()
    (-action_log_probs(params, batch, [0 if obs.mask[0] else int(np.flatnonzero(obs.mask)[0])]).sum()).backward()
    opt.step()
    state = opt.state()
    fresh = Adam(init_params(seed=0), lr=1e-3)
    fresh.load_state(state)
    assert fresh.t == opt.t
    for k in opt.m:
        assert (fresh.m[k] == opt.m[k]).all()
        assert (fresh.v[k] == opt.v[k]).all()


# -- persistence -------------------------------------------------------


def test_checkpoint_roundtrip_exact(tmp_path):
    config = PolicyConfig(d_model=8, d_ff=32, next_ops=2)
    params = init_params(config, seed=4)
    path = tmp_path / "policy.ckpt"
    save_params(params, path, config)
    back, back_config = load_params(path)
    assert back_config == config
    assert list(back) == list(params)
    for k in params:
        assert back[k].data.dtype == np.float64
        assert (back[k].data == params[k].data).all()
        assert back[k].requires_grad


def test_checkpoint_header_is_text(tmp_path):
    params = init_params(seed=0)
    path = tmp_path / "policy.ckpt"
    save_params(params, path)
    head = path.read_bytes().split(b"end\n")[0].decode()
    assert head.startswith("cpshop-policy-checkpoint v1\n")
    assert "config {" in head
    assert "param proj.w 4 8" in head


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\nend\n")
    with pytest.raises(ValueError, match="not a policy checkpoint"):
        load_params(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    params = init_params(seed=0)
    path = tmp_path / "policy.ckpt"
    save_params(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="payload"):
        load_params(path)

