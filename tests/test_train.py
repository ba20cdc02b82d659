from dataclasses import replace

import numpy as np
import pytest

import cpshop.net
import cpshop.train
from cpshop.env import JobShopEnv
from cpshop.instances import generate_instance
from cpshop.model import compress, validate
from cpshop.net import (
    Adam,
    NetPolicy,
    ObservationBatch,
    PolicyConfig,
    Tensor,
    action_log_probs,
    init_params,
)
from cpshop.rules import Rollout, RulePolicy, greedy_rollout, masked_softmax, rollout
from cpshop.train import (
    ActorDemo,
    DemoBatch,
    TrainConfig,
    _surrogate_update_loop,
    generate_demos,
    minmax_scale,
    read_metrics,
    realize_solution,
    sample_episodes,
    train_feedback,
    train_initial,
    train_loop,
    write_metrics,
)


def clone(params):
    return {k: v.data.copy() for k, v in params.items()}


def params_equal(params, snapshot):
    return all((params[k].data == snapshot[k]).all() for k in params)


def sample_episode(instance, policy, rng):
    return sample_episodes(instance, policy, [rng], 10)[0]


def run_wave(wave, params, demo_batches, config):
    """One ``train_feedback`` or ``train_initial`` wave with a fresh
    optimizer and a generator seeded from the config."""
    optimizer = Adam(params, lr=config.lr)
    return wave(params, demo_batches, config, optimizer, np.random.default_rng(config.seed))


# -- scaling -----------------------------------------------------------


def test_minmax_scale_basic():
    assert minmax_scale([2.0, 4.0, 6.0]).tolist() == [0.0, 0.5, 1.0]


def test_minmax_scale_degenerate_goes_to_zero():
    assert minmax_scale([5.0, 5.0, 5.0]).tolist() == [0.0, 0.0, 0.0]


def test_minmax_scale_empty_rejected():
    with pytest.raises(ValueError):
        minmax_scale([])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(clip_eps=0.0)
    # final_kl > nan is never true, so a NaN limit would turn the KL stop
    # off without a word; an infinite limit turns it off on purpose
    for kl_limit in (0.0, float("nan")):
        with pytest.raises(ValueError, match="kl_limit"):
            TrainConfig(kl_limit=kl_limit)
    assert TrainConfig(kl_limit=float("inf")).kl_limit == float("inf")
    with pytest.raises(ValueError):
        TrainConfig(max_updates=0)
    with pytest.raises(ValueError, match="actor_count"):
        TrainConfig(actor_count=0)
    with pytest.raises(ValueError, match="minibatch_size"):
        TrainConfig(minibatch_size=0)
    assert TrainConfig(minibatch_size=None).minibatch_size is None
    for lr in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)
    for name in ("expert_evals_start", "expert_evals_step", "expert_patience"):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: -1})
        assert getattr(TrainConfig(**{name: 0}), name) == 0


# -- replaying solutions -----------------------------------------------


def solution_actions(inst, solution):
    """Action sequence that reproduces a compressed solution from reset."""
    env = JobShopEnv(inst)
    env.reset()
    observations, actions = realize_solution(env, compress(inst, solution))
    assert len(observations) == len(actions)
    return actions


def test_solution_actions_replay_identity():
    rng = np.random.default_rng(0)
    for trial in range(10):
        inst = generate_instance(5, 5, seed=700 + trial)
        target = greedy_rollout(inst, RulePolicy(("fifo", "spt", "mtwr")[trial % 3]))
        actions = solution_actions(inst, target)
        env = JobShopEnv(inst)
        env.reset()
        for action in actions:
            env.step(action)
        assert env.solution() == target


def test_solution_actions_handles_delays():
    # a compressed but delaying schedule still replays exactly, using No-Op
    from cpshop.expert import improve

    inst = generate_instance(5, 5, seed=13)
    target = improve(inst, greedy_rollout(inst, RulePolicy("spt")), evals=800, seed=1)
    actions = solution_actions(inst, target)
    env = JobShopEnv(inst)
    env.reset()
    for action in actions:
        env.step(action)
    assert env.solution() == target


# -- demo generation ---------------------------------------------------


def small_demo_wave(seed=0, actor_count=3):
    inst = generate_instance(4, 4, seed=31)
    params = init_params(seed=seed)
    config = TrainConfig(actor_count=actor_count, expert_patience=10)
    return inst, params, generate_demos([inst], NetPolicy(params), config, seed=seed, evals=150)


def test_generate_demos_shapes_and_ratios():
    inst, _, batches = small_demo_wave()
    assert len(batches) == 1
    batch = batches[0]
    assert len(batch.demos) == 3
    min_len = min(len(d.actor.actions) for d in batch.demos)
    assert 0 <= batch.slice_index <= min_len
    for demo in batch.demos:
        assert demo.expert.actions[: batch.slice_index] == demo.actor.actions[: batch.slice_index]
        assert 0 < demo.ratio <= 1.0
        assert demo.expert.makespan <= demo.actor.makespan
        assert len(demo.actor.observations) == len(demo.actor.actions)
        assert len(demo.expert.observations) == len(demo.expert.actions)


def test_generate_demos_deterministic_in_seed():
    _, _, a = small_demo_wave(seed=5)
    _, _, b = small_demo_wave(seed=5)
    _, _, c = small_demo_wave(seed=6)
    assert a[0].slice_index == b[0].slice_index
    assert [d.actor.actions for d in a[0].demos] == [d.actor.actions for d in b[0].demos]
    assert [d.ratio for d in a[0].demos] == [d.ratio for d in b[0].demos]
    assert (
        a[0].slice_index != c[0].slice_index
        or [d.actor.actions for d in a[0].demos] != [d.actor.actions for d in c[0].demos]
    )


def assert_same_episode(a, b):
    assert a.actions == b.actions and a.makespan == b.makespan
    assert len(a.observations) == len(b.observations)
    for x, y in zip(a.observations, b.observations):
        assert (x.t, x.time_scale) == (y.t, y.time_scale)
        for field in ("features", "kinds", "mask"):
            assert getattr(x, field).tobytes() == getattr(y, field).tobytes()


def sample_per_observation(instance, policy, rng):
    """Reference: a temperature-1 episode sampled one observation at a time
    through ``policy.logits``, with no batching."""
    env = JobShopEnv(instance)
    obs = env.reset()
    observations, actions = [], []
    while not env.done:
        probs = masked_softmax(policy.logits(obs), obs.mask)
        action = int(rng.choice(len(probs), p=probs))
        observations.append(obs)
        actions.append(action)
        obs = env.step(action).observation
    return Rollout(env.solution(), observations, actions)


@pytest.mark.parametrize("jobs,machines", [(3, 3), (10, 5), (15, 15), (30, 5)])
def test_lockstep_sampling_equals_one_actor_at_a_time(jobs, machines):
    inst = generate_instance(jobs, machines, seed=jobs * machines)
    policy = NetPolicy(init_params(seed=0))
    streams = np.random.SeedSequence(7).spawn(4)
    together = sample_episodes(inst, policy, [np.random.default_rng(s) for s in streams], 10)
    for stream, episode in zip(streams, together):
        assert_same_episode(episode, sample_episode(inst, policy, np.random.default_rng(stream)))
        # the per-observation policy path samples the same episode too
        run = sample_per_observation(inst, policy, np.random.default_rng(stream))
        assert_same_episode(episode, run)
        assert run.solution == episode.solution
    assert len({len(ep.actions) for ep in together}) > 1  # actors finish in different rounds


def test_inference_builds_no_tensor(monkeypatch):
    inst = generate_instance(5, 4, seed=3)
    policy = NetPolicy(init_params(seed=0))
    built = []
    original = Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    rollout(inst, policy)
    assert built == []
    episodes = sample_episodes(inst, policy, [np.random.default_rng(s) for s in (1, 2)], 10)
    assert built == [] and all(ep.actions for ep in episodes)


def test_generate_demos_batches_one_forward_per_decision_round(monkeypatch):
    calls = []
    original = cpshop.net.forward_logits

    def counting(params, batch, windows=None):
        calls.append(batch.features.shape[0])
        return original(params, batch, windows)

    monkeypatch.setattr(cpshop.net, "forward_logits", counting)
    instances = [generate_instance(4, 4, seed=31), generate_instance(5, 3, seed=32)]
    policy = NetPolicy(init_params(seed=0))
    config = TrainConfig(actor_count=4, expert_patience=5)
    batches = generate_demos(instances, policy, config, seed=0, evals=20)
    longest = [max(len(d.actor.actions) for d in b.demos) for b in batches]
    assert len(calls) <= sum(longest)
    assert sum(calls) == sum(len(d.actor.actions) for b in batches for d in b.demos)


def test_generate_demos_warm_starts_from_the_actor_episode(monkeypatch):
    calls = []
    original = cpshop.train.complete_prefix

    def recording(instance, cut, **kwargs):
        solution = original(instance, cut, **kwargs)
        calls.append((instance, kwargs["warm"], solution))
        return solution

    monkeypatch.setattr(cpshop.train, "complete_prefix", recording)
    instances = [generate_instance(4, 4, seed=31), generate_instance(5, 3, seed=32)]
    config = TrainConfig(actor_count=3, expert_patience=5)
    batches = generate_demos(instances, NetPolicy(init_params(seed=0)), config, seed=1, evals=40)
    demos = [(b, d) for b in batches for d in b.demos]
    assert len(calls) == len(demos)
    for (instance, warm, solution), (batch, demo) in zip(calls, demos):
        assert warm is demo.actor.solution and validate(instance, warm)
        assert warm.makespan == demo.actor.makespan
        assert demo.expert.solution is solution
        # the expert record reuses the actor's prefix observations
        j = batch.slice_index
        assert len(demo.expert.observations[:j]) == j
        assert all(e is a for e, a in zip(demo.expert.observations[:j], demo.actor.observations))


def test_generate_demos_steps_each_prefix_once(monkeypatch):
    resets = []
    reset = JobShopEnv.reset

    def counting(env):
        resets.append(env)
        return reset(env)

    cuts = []
    original = cpshop.train.complete_prefix

    def recording(instance, cut, **kwargs):
        cuts.append(cut.observe())
        return original(instance, cut, **kwargs)

    monkeypatch.setattr(JobShopEnv, "reset", counting)
    monkeypatch.setattr(cpshop.train, "complete_prefix", recording)
    instances = [generate_instance(4, 4, seed=31), generate_instance(5, 3, seed=32)]
    actor_count = 3
    config = TrainConfig(actor_count=actor_count, expert_patience=5)
    batches = generate_demos(instances, NetPolicy(init_params(seed=0)), config, seed=1, evals=40)
    # every env settles once, when built: one for sampling and one for the
    # cut, per actor
    assert len(resets) == 2 * actor_count * len(instances)
    demos = [(b, d) for b in batches for d in b.demos]
    assert len(cuts) == len(demos)
    checked = 0
    for cut_obs, (batch, demo) in zip(cuts, demos):
        j = batch.slice_index
        if j < len(demo.actor.actions):
            actor_obs = demo.actor.observations[j]
            for name in ("features", "kinds", "mask"):
                assert getattr(cut_obs, name).tobytes() == getattr(actor_obs, name).tobytes()
            assert cut_obs.t == actor_obs.t
            # the expert's record continues from the same cut
            assert demo.expert.observations[j] is cut_obs
            checked += 1
    assert checked and any(b.slice_index > 0 for b in batches)


def test_update_survives_underflowed_action_probability():
    # a huge logit spread makes the lowest-logit action's probability 0
    params = init_params(seed=0)
    params["job.h2.w"].data = params["job.h2.w"].data * 1e6
    obs = JobShopEnv(generate_instance(6, 6, seed=0)).reset()
    logits = NetPolicy(params).logits(obs)
    action = int(np.argmin(np.where(obs.mask, logits, np.inf)))
    config = TrainConfig()
    stats = _surrogate_update_loop(
        params, Adam(params, lr=config.lr), [(obs, action, 1.0)], config, np.random.default_rng(0)
    )
    # the loop raises on a non-finite surrogate loss
    assert stats.applied_updates >= 1 and np.isfinite(stats.final_kl)
    assert all(np.isfinite(p.data).all() for p in params.values())


def test_generate_demos_rejects_empty():
    policy = NetPolicy(init_params(seed=0))
    with pytest.raises(ValueError):
        generate_demos([], policy, TrainConfig(actor_count=2, expert_patience=60), seed=0, evals=4000)


# -- feedback wave -----------------------------------------------------


def identical_demo_batch(ratio=1.0):
    inst = generate_instance(3, 3, seed=41)
    params = init_params(seed=0)
    episode = sample_episode(inst, NetPolicy(params), np.random.default_rng(0))
    demo = ActorDemo(actor=episode, expert=episode, ratio=ratio)
    return params, [DemoBatch(slice_index=1, demos=[demo])]


def test_feedback_wave_neutral_when_no_improvement():
    params, batches = identical_demo_batch(ratio=1.0)
    before = clone(params)
    stats = run_wave(train_feedback, params, batches, TrainConfig())
    assert stats.skipped
    assert stats.applied_updates == 0
    assert params_equal(params, before)  # bit-exact neutrality


def test_feedback_wave_drops_identical_pairs():
    # improvement reported but trajectories identical: nothing to learn
    params, batches = identical_demo_batch(ratio=0.9)
    before = clone(params)
    stats = run_wave(train_feedback, params, batches, TrainConfig())
    assert stats.skipped and stats.skip_reason == "all completions identical"
    assert params_equal(params, before)


def test_feedback_wave_updates_and_moves_toward_expert():
    inst, params, batches = small_demo_wave(seed=2)
    demos = [d for d in batches[0].demos if d.ratio < 1.0]
    if not demos:
        pytest.skip("no expert improvement with this seed")
    config = TrainConfig(max_updates=5, minibatch_size=None, lr=5e-3)
    j = batches[0].slice_index
    demo = demos[0]
    sub = ObservationBatch.from_observations(demo.expert.observations[j:])
    before_logp = action_log_probs(params, sub, demo.expert.actions[j:]).data.sum()
    stats = run_wave(train_feedback, params, batches, config)
    assert not stats.skipped
    assert 1 <= stats.applied_updates <= 5
    after_logp = action_log_probs(params, sub, demo.expert.actions[j:]).data.sum()
    assert after_logp > before_logp


def test_kl_limit_stops_after_one_applied_update():
    inst, params, batches = small_demo_wave(seed=2)
    if all(d.ratio == 1.0 for d in batches[0].demos):
        pytest.skip("no expert improvement with this seed")
    config = TrainConfig(max_updates=10, minibatch_size=None, lr=0.5, kl_limit=1e-9)
    stats = run_wave(train_feedback, params, batches, config)
    # the violating update stays applied, then the loop stops
    assert stats.applied_updates == 1
    assert stats.final_kl > config.kl_limit


def test_update_count_capped_by_max_updates():
    inst, params, batches = small_demo_wave(seed=2)
    if all(d.ratio == 1.0 for d in batches[0].demos):
        pytest.skip("no expert improvement with this seed")
    config = TrainConfig(max_updates=3, minibatch_size=None, lr=1e-6, kl_limit=10.0)
    stats = run_wave(train_feedback, params, batches, config)
    assert stats.applied_updates == 3


def test_feedback_wave_rejects_empty():
    params = init_params(seed=0)
    with pytest.raises(ValueError):
        run_wave(train_feedback, params, [], TrainConfig())


# -- initial-solution wave ---------------------------------------------


def two_prefix_demos():
    """Two actors whose episodes diverge at the first action, with expert
    makespans chosen so actor 0's prefix is the better one."""
    inst = generate_instance(4, 4, seed=53)
    params = init_params(seed=0)
    policy = NetPolicy(params)
    eps = []
    rng_id = 0
    while len(eps) < 2:
        ep = sample_episode(inst, policy, np.random.default_rng(rng_id))
        rng_id += 1
        if not eps or ep.actions[0] != eps[0].actions[0]:
            eps.append(ep)
    demos = []
    for ep, makespan in zip(eps, (100, 120)):
        expert = Rollout(
            solution=replace(ep.solution, makespan=makespan),
            observations=ep.observations,
            actions=ep.actions,
        )
        demos.append(ActorDemo(actor=ep, expert=expert, ratio=0.9))
    return inst, params, [DemoBatch(slice_index=1, demos=demos)]


def test_initial_wave_reinforces_better_prefix():
    inst, params, batches = two_prefix_demos()
    demo_good, demo_bad = batches[0].demos
    obs = demo_good.actor.observations[0]
    sub = ObservationBatch.from_observations([obs])

    def probs():
        logits = np.asarray(
            action_log_probs(params, sub, [demo_good.actor.actions[0]]).data
        ), np.asarray(action_log_probs(params, sub, [demo_bad.actor.actions[0]]).data)
        return float(logits[0][0]), float(logits[1][0])

    good_before, bad_before = probs()
    config = TrainConfig(max_updates=1, minibatch_size=None, lr=5e-3)
    stats = run_wave(train_initial, params, batches, config)
    assert not stats.skipped and stats.applied_updates == 1
    good_after, bad_after = probs()
    assert good_after > good_before  # lower expert makespan: reinforced
    assert bad_after < bad_before  # higher expert makespan: penalized


def test_initial_wave_skips_without_spread():
    params, batches = identical_demo_batch(ratio=0.9)
    before = clone(params)
    with pytest.warns(UserWarning, match="no prefix spread"):
        stats = run_wave(train_initial, params, batches, TrainConfig())
    assert stats.skipped
    assert params_equal(params, before)


def test_initial_wave_skips_zero_slice():
    inst, params, batches = two_prefix_demos()
    batches[0].slice_index = 0
    with pytest.warns(UserWarning, match="no prefix spread"):
        stats = run_wave(train_initial, params, batches, TrainConfig())
    assert stats.skipped


# -- training loop -----------------------------------------------------


def untimed(rows):
    return [{k: v for k, v in row.items() if k != "wall_s"} for row in rows]


def tiny_loop_config(epochs):
    return TrainConfig(
        epochs=epochs,
        actor_count=2,
        max_updates=3,
        minibatch_size=64,
        expert_evals_start=60,
        expert_evals_step=20,
        expert_patience=6,
        seed=0,
    )


def test_train_loop_epochs_zero_reports_untrained_mean():
    inst = generate_instance(3, 3, seed=61)
    result = train_loop([inst], tiny_loop_config(0))
    assert result.metrics == []
    assert result.best_epoch == 0
    assert np.isfinite(result.best_greedy_mean)


def test_train_loop_writes_artifacts_and_resumes_bit_exact(tmp_path):
    insts = [generate_instance(3, 3, seed=s) for s in (71, 72)]
    full_dir = tmp_path / "full"
    half_dir = tmp_path / "half"

    full = train_loop(insts, tiny_loop_config(2), out_dir=full_dir)
    assert (full_dir / "epoch_000.ckpt").exists()
    assert (full_dir / "epoch_002.ckpt").exists()
    assert (full_dir / "best.ckpt").exists()
    assert (full_dir / "metrics.csv").exists()
    header = (full_dir / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,instance,greedy_makespan,mean_expert_makespan,mean_i,applied_iters,wall_s"
    assert len(full.metrics) == 2 * 2  # epochs x instances

    train_loop(insts, tiny_loop_config(1), out_dir=half_dir)
    resumed = train_loop(insts, tiny_loop_config(2), out_dir=half_dir, resume_epoch=1)
    assert params_equal(full.params, clone(resumed.params))
    assert params_equal(full.best_params, clone(resumed.best_params))
    assert (resumed.best_epoch, resumed.best_greedy_mean) == (full.best_epoch, full.best_greedy_mean)
    # every artifact matches the uninterrupted run's, timings aside
    for name in ("epoch_000.ckpt", "epoch_001.ckpt", "epoch_002.ckpt", "best.ckpt"):
        assert (half_dir / name).read_bytes() == (full_dir / name).read_bytes(), name

    rows = read_metrics(half_dir / "metrics.csv")
    assert untimed(rows) == untimed(read_metrics(full_dir / "metrics.csv")) == untimed(full.metrics)
    assert untimed(resumed.metrics) == untimed(full.metrics)


def test_train_loop_resumes_from_a_hand_written_optimizer_file(tmp_path):
    insts = [generate_instance(3, 3, seed=s) for s in (71, 72)]
    full = train_loop(insts, tiny_loop_config(2))
    half_dir = tmp_path / "half"
    train_loop(insts, tiny_loop_config(1), out_dir=half_dir)
    path = half_dir / "optimizer_001.npz"
    names = list(init_params(PolicyConfig(next_ops=3), seed=0))
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == sorted(
            ["t"] + [f"m/{k}" for k in names] + [f"v/{k}" for k in names]
        )
        assert data["t"].dtype == np.int64 and data["t"].shape == ()
        t = int(data["t"])
        m = {k: data[f"m/{k}"] for k in names}
        v = {k: data[f"v/{k}"] for k in names}
    assert all(a.dtype == np.float64 for a in [*m.values(), *v.values()])
    # the same state, written key by key: step count, then first and
    # second moments per parameter
    arrays = {"t": np.array(t)}
    arrays.update({f"m/{k}": a for k, a in m.items()})
    arrays.update({f"v/{k}": a for k, a in v.items()})
    path.unlink()
    np.savez(path, **arrays)
    resumed = train_loop(insts, tiny_loop_config(2), out_dir=half_dir, resume_epoch=1)
    assert params_equal(full.params, clone(resumed.params))


def test_train_loop_resume_needs_the_run_directory_and_an_epoch_in_range(tmp_path):
    insts = [generate_instance(3, 3, seed=s) for s in (71, 72)]
    with pytest.raises(ValueError, match="out_dir"):
        train_loop(insts, tiny_loop_config(2), resume_epoch=1)
    for epoch in (-1, 3):
        with pytest.raises(ValueError, match="resume_epoch must be in"):
            train_loop(insts, tiny_loop_config(2), out_dir=tmp_path, resume_epoch=epoch)


def test_train_loop_resume_rejects_a_checkpoint_of_another_policy_shape(tmp_path):
    insts = [generate_instance(3, 3, seed=s) for s in (71, 72)]
    train_loop(insts, tiny_loop_config(1), out_dir=tmp_path)
    other = replace(tiny_loop_config(2), next_ops=2)
    with pytest.raises(ValueError, match="epoch_001.ckpt"):
        train_loop(insts, other, out_dir=tmp_path, resume_epoch=1)


def test_train_loop_resuming_a_finished_run_reports_it(tmp_path):
    insts = [generate_instance(3, 3, seed=s) for s in (71, 72)]
    full = train_loop(insts, tiny_loop_config(2), out_dir=tmp_path)
    again = train_loop(insts, tiny_loop_config(2), out_dir=tmp_path, resume_epoch=2)
    assert (again.best_epoch, again.best_greedy_mean) == (full.best_epoch, full.best_greedy_mean)
    assert params_equal(full.best_params, clone(again.best_params))
    assert params_equal(full.params, clone(again.params))
    assert untimed(again.metrics) == untimed(full.metrics)


@pytest.mark.filterwarnings("ignore:initial-solution wave skipped")
def test_train_loop_tracks_best_epoch():
    insts = [generate_instance(3, 3, seed=81)]
    result = train_loop(insts, tiny_loop_config(2))
    greedy_by_epoch = {}
    for row in result.metrics:
        greedy_by_epoch.setdefault(row["epoch"], []).append(row["greedy_makespan"])
    means = {e: float(np.mean(v)) for e, v in greedy_by_epoch.items()}
    assert result.best_epoch in means
    assert result.best_greedy_mean == min(means.values())
    # best_params reproduce the recorded best epoch's greedy makespan
    policy = NetPolicy(result.best_params)
    got = float(np.mean([rollout(i, policy).makespan for i in insts]))
    assert got == result.best_greedy_mean


def test_train_loop_warns_on_mismatched_sizes():
    insts = [generate_instance(2, 2, seed=1), generate_instance(6, 6, seed=2)]
    with pytest.warns(UserWarning, match="operation count"):
        train_loop(insts, tiny_loop_config(0))


def test_write_metrics_roundtrip(tmp_path):
    rows = [
        {
            "epoch": 1, "instance": "a", "greedy_makespan": 10,
            "mean_expert_makespan": 9.5, "mean_i": 0.95,
            "applied_iters": 4, "wall_s": 0.5,
        }
    ]
    path = tmp_path / "metrics.csv"
    write_metrics(rows, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "1,a,10,9.5,0.95,4,0.5"
