"""Expert-guided policy training.

``train_loop`` builds one ``NetPolicy`` over the parameters it trains and
passes it, with the ``TrainConfig``, to every step below: the policy
holds the observation window, the config the horizon, actor count and
expert budget. One training wave per epoch:

1. Demo generation: every actor samples one episode per training
   instance; a shared cut index j per instance splits each episode into a
   prefix and a completion. The expert completes each prefix (warm
   started by the actor's own episode), giving per-actor improvement
   ratios i_a = expert makespan / actor makespan.
2. Feedback step: completion steps are tagged -i_a (actor's own) or +i_a
   (expert's), min-max scaled into advantages, and applied with a clipped
   surrogate under a KL budget, over samples batched per job count. If
   no expert improved anything (all i_a = 1) the wave is skipped so
   nothing is penalized.
3. Initial step: the shared prefixes are credited with the negated,
   standardized expert makespans, reinforcing prefixes that led the
   expert to better schedules.

All randomness derives from (seed, epoch), so a resumed run continues
bit-identically.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cpshop import autodiff as ad
from cpshop.env import JobShopEnv, Observation
from cpshop.expert import complete_prefix
from cpshop.instances import Instance
from cpshop.model import Solution
from cpshop.net import (
    Adam,
    NetPolicy,
    ObservationBatch,
    PolicyConfig,
    Tensor,
    action_log_probs,
    forward_logits,
    init_params,
    load_params,
    save_params,
)
from cpshop.rules import Rollout, masked_softmax, rollout, sample_lockstep


@dataclass
class ActorDemo:
    """One actor's contribution to a wave; both episodes share the first
    ``slice_index`` actions of their batch."""

    actor: Rollout  # the actor's own full episode
    expert: Rollout  # expert completion of the actor's prefix
    ratio: float  # expert makespan / actor makespan, in (0, 1]


@dataclass
class DemoBatch:
    slice_index: int
    demos: list[ActorDemo]


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults; clip/KL values are conventional choices."""

    epochs: int = 30
    actor_count: int = 8
    max_updates: int = 20  # K: updates per wave
    minibatch_size: int | None = 256
    clip_eps: float = 0.2
    kl_limit: float = 0.03
    lr: float = 1e-3
    horizon: int = 10
    next_ops: int = 3
    expert_evals_start: int = 1000
    expert_evals_step: int = 100
    expert_patience: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.next_ops < 0:
            raise ValueError("next_ops must be >= 0")
        if self.horizon <= self.next_ops:
            raise ValueError(
                f"horizon {self.horizon} must exceed next_ops {self.next_ops}: every larger "
                "horizon gives the same observations, and a checkpoint records next_ops only"
            )
        if not 0 < self.clip_eps < 1:
            raise ValueError("clip_eps must be in (0, 1)")
        if not self.kl_limit > 0:  # NaN would never stop a wave; inf turns the KL stop off
            raise ValueError("kl_limit must be positive")
        if self.max_updates < 1:
            raise ValueError("max_updates must be >= 1")
        if self.actor_count < 1:
            raise ValueError("actor_count must be >= 1")
        if self.minibatch_size is not None and self.minibatch_size < 1:
            raise ValueError("minibatch_size must be None or >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        for name in ("expert_evals_start", "expert_evals_step", "expert_patience"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class WaveStats:
    applied_updates: int = 0
    final_kl: float = 0.0
    samples: int = 0
    skipped: bool = False
    skip_reason: str | None = None


def minmax_scale(values) -> np.ndarray:
    """Affine map onto [0, 1]; an all-equal input maps to all zeros."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("minmax_scale needs at least one value")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


# -- trajectories --------------------------------------------------------


def sample_episodes(
    instance: Instance,
    policy: NetPolicy,
    rngs: list[np.random.Generator],
    horizon: int,
) -> list[Rollout]:
    """One recorded temperature-1 episode per generator, with the actors in
    lockstep and one :meth:`NetPolicy.batch_logits` call per decision round,
    on environments at the policy's own window."""
    envs = [JobShopEnv(instance, horizon=horizon, next_ops=policy.config.next_ops) for _ in rngs]
    return sample_lockstep(envs, policy.batch_logits, rngs, [1.0] * len(rngs), record=True)


def realize_solution(
    env: JobShopEnv, solution: Solution
) -> tuple[list[Observation], list[int]]:
    """Drive a (partially dispatched) environment to exactly reproduce a
    compressed solution, recording the observations and actions taken.

    At every decision the unscheduled operation with the earliest target
    start whose job is up next is dispatched once the clock allows it;
    otherwise the clock is advanced with No-Op.
    """
    model = env.model
    # target starts, padded past each job's last operation so that a
    # finished job is never the earliest
    target = np.full((len(model.n_ops), model.proc.shape[1] + 1), np.iinfo(np.int64).max)
    for j, row in enumerate(solution.starts):
        target[j, : len(row)] = row
    rows = np.arange(len(target))
    observations: list[Observation] = []
    actions: list[int] = []
    obs = env.observe()
    while not env.done:
        next_starts = target[rows, model.cursor]
        best_job = int(np.argmin(next_starts))  # the first of equal starts
        best_start = int(next_starts[best_job])
        action = best_job if obs.mask[best_job] else env.noop_action
        observations.append(obs)
        actions.append(action)
        result = env.step(action)
        if action != env.noop_action:
            fixed = int(model.starts[best_job, int(model.cursor[best_job]) - 1])
            if fixed != best_start:
                raise ValueError(
                    f"solution not reachable: job {best_job} fixed at {fixed}, wanted {best_start}"
                )
        obs = result.observation
    return observations, actions


# -- demo generation -----------------------------------------------------


def generate_demos(
    instances: list[Instance],
    policy: NetPolicy,
    config: TrainConfig,
    seed,
    evals: int,
) -> list[DemoBatch]:
    """One wave of partial expert demonstrations (deterministic in seed):
    ``config.actor_count`` episodes per instance, on environments at
    ``config.horizon`` and the policy's window. ``evals`` and
    ``config.expert_patience`` bound each expert completion's search."""
    if not instances:
        raise ValueError("generate_demos needs at least one instance")
    root = np.random.SeedSequence(seed)
    batches = []
    for idx, instance in enumerate(instances):
        inst_seq = np.random.SeedSequence(entropy=root.entropy, spawn_key=(idx,))
        actor_seqs = inst_seq.spawn(config.actor_count + 1)
        episodes = sample_episodes(
            instance,
            policy,
            [np.random.default_rng(actor_seqs[a]) for a in range(config.actor_count)],
            config.horizon,
        )
        j_rng = np.random.default_rng(actor_seqs[config.actor_count])
        min_len = min(len(ep.actions) for ep in episodes)
        j = int(j_rng.integers(0, min_len + 1))
        demos = []
        for a, episode in enumerate(episodes):
            prefix = episode.actions[:j]
            # the env at the cut, stepped once: the expert completes a copy
            # of it and realize_solution continues from it, after the
            # prefix whose observations the actor's episode already holds
            cut = JobShopEnv(instance, horizon=config.horizon, next_ops=policy.config.next_ops)
            for action in prefix:
                cut.step(action)
            try:
                expert_solution = complete_prefix(
                    instance,
                    cut,
                    warm=episode.solution,
                    evals=evals,
                    patience=config.expert_patience,
                    seed=int(np.random.default_rng(actor_seqs[a]).integers(2**31)),
                )
            except Exception as exc:
                raise RuntimeError(
                    f"expert failed on instance {instance.name!r}, actor {a}, "
                    f"slice {j}: {exc}"
                ) from exc
            suffix_obs, suffix_actions = realize_solution(cut, expert_solution)
            expert = Rollout(
                solution=expert_solution,
                observations=episode.observations[:j] + suffix_obs,
                actions=prefix + suffix_actions,
            )
            if expert.makespan > episode.makespan:
                raise RuntimeError(
                    f"expert worsened actor {a} on {instance.name!r}: "
                    f"{expert.makespan} > {episode.makespan}"
                )
            demos.append(
                ActorDemo(actor=episode, expert=expert, ratio=expert.makespan / episode.makespan)
            )
        batches.append(DemoBatch(slice_index=j, demos=demos))
    return batches


def rollout_solution_of(episode: Rollout, instance: Instance) -> Solution:
    """Reconstruct the schedule an episode produced (episodes are replayable)."""
    env = JobShopEnv(instance)
    for action in episode.actions:
        env.step(action)
    return env.solution()


# -- surrogate updates ---------------------------------------------------


def _surrogate_update_loop(
    params: dict[str, Tensor],
    optimizer: Adam,
    samples: list[tuple[Observation, int, float]],
    config: TrainConfig,
    rng: np.random.Generator,
) -> WaveStats:
    """Clipped-surrogate minimization with a KL(old || new) stop over
    ``(observation, action, advantage)`` samples, batched per job count in
    increasing order.

    The violating update stays applied; the loop just stops afterwards,
    so the number of applied updates never exceeds ``max_updates``.
    """
    by_jc: dict[int, list[tuple[Observation, int, float]]] = {}
    for sample in samples:
        by_jc.setdefault(sample[0].job_count, []).append(sample)
    groups = []
    for jc in sorted(by_jc):
        observations, actions, advantages = zip(*by_jc[jc])
        batch = ObservationBatch.from_observations(list(observations))
        groups.append((batch, np.array(actions), np.array(advantages)))
    offsets = np.cumsum([0] + [len(a) for _, a, _ in groups])
    total = len(samples)
    stats = WaveStats(samples=total)
    old_probs = []
    old_terms = []  # p_old * log p_old, constant over the wave
    old_logp_actions = []
    old = {k: p.data for k, p in params.items()}
    for batch, actions, _ in groups:
        probs = masked_softmax(forward_logits(old, batch), batch.masks)
        old_probs.append(probs)
        old_terms.append(probs * np.log(np.maximum(probs, 1e-300)))
        # np.log of each positive probability; the masked log-softmax where
        # the probability underflowed to 0 and its log would be -inf
        taken = probs[np.arange(len(actions)), actions]
        logp = np.log(taken, where=taken > 0, out=np.zeros_like(taken))
        under = taken == 0
        if under.any():
            logp[under] = action_log_probs(old, batch.take(under), actions[under])
        old_logp_actions.append(logp)
    for _ in range(config.max_updates):
        if config.minibatch_size is None or config.minibatch_size >= total:
            chosen = np.arange(total)
        else:
            chosen = rng.choice(total, size=config.minibatch_size, replace=False)
        picked = np.zeros(total, dtype=bool)
        picked[chosen] = True
        losses = []
        optimizer.zero_grad()
        for g, (batch, actions, advs) in enumerate(groups):
            sel = picked[offsets[g] : offsets[g + 1]]
            if not sel.any():
                continue
            logp = action_log_probs(params, batch.take(sel), actions[sel])
            ratio = (logp - old_logp_actions[g][sel]).exp()
            adv = advs[sel]
            unclipped = (-adv) * ratio
            clipped = (-adv) * ad.clip(ratio, 1 - config.clip_eps, 1 + config.clip_eps)
            losses.append(ad.maximum(unclipped, clipped).sum())
        loss = ad.concat([l.reshape(1) for l in losses]).sum() / float(picked.sum())
        if not np.isfinite(loss.data):
            raise RuntimeError(
                f"non-finite surrogate loss after {stats.applied_updates} updates "
                f"(samples={total})"
            )
        loss.backward()
        optimizer.step()
        stats.applied_updates += 1
        # mean KL(pi_old || pi_new) over the whole wave
        kl_total = 0.0
        new = {k: p.data for k, p in params.items()}  # Adam.step rebound .data
        for g, (batch, _, _) in enumerate(groups):
            new_probs = masked_softmax(forward_logits(new, batch), batch.masks)
            new_logp = np.log(np.maximum(new_probs, 1e-300))
            kl_total += (old_terms[g] - old_probs[g] * new_logp).sum()
        stats.final_kl = kl_total / total
        if stats.final_kl > config.kl_limit:
            break
    return stats


def train_feedback(
    params: dict[str, Tensor],
    demo_batches: list[DemoBatch],
    config: TrainConfig,
    optimizer: Adam,
    rng: np.random.Generator,
) -> WaveStats:
    """Reinforce expert completions against the actors' own (Alg.-style
    feedback wave). Exactly neutral when no expert found an improvement."""
    if not demo_batches or all(not b.demos for b in demo_batches):
        raise ValueError("train_feedback needs non-empty demos")
    if all(d.ratio == 1.0 for b in demo_batches for d in b.demos):
        return WaveStats(skipped=True, skip_reason="no expert improvement (all ratios 1)")
    raw: list[tuple[Observation, int, float]] = []
    for batch in demo_batches:
        j = batch.slice_index
        for demo in batch.demos:
            if demo.expert.actions == demo.actor.actions:
                continue  # identical trajectories teach nothing
            for obs, action in zip(demo.actor.observations[j:], demo.actor.actions[j:]):
                raw.append((obs, action, -demo.ratio))
            for obs, action in zip(demo.expert.observations[j:], demo.expert.actions[j:]):
                raw.append((obs, action, +demo.ratio))
    if not raw:
        return WaveStats(skipped=True, skip_reason="all completions identical")
    advantages = minmax_scale([r[2] for r in raw])
    samples = [(obs, action, adv) for (obs, action, _), adv in zip(raw, advantages)]
    return _surrogate_update_loop(params, optimizer, samples, config, rng)


def train_initial(
    params: dict[str, Tensor],
    demo_batches: list[DemoBatch],
    config: TrainConfig,
    optimizer: Adam,
    rng: np.random.Generator,
) -> WaveStats:
    """Credit shared prefixes by the expert makespan they led to; better
    than the wave mean is reinforced, worse is penalized."""
    if not demo_batches or all(not b.demos for b in demo_batches):
        raise ValueError("train_initial needs non-empty demos")
    raw: list[tuple[Observation, int, float]] = []
    for batch in demo_batches:
        if len(batch.demos) < 2 or batch.slice_index == 0:
            continue
        makespans = np.array([d.expert.makespan for d in batch.demos], dtype=np.float64)
        std = makespans.std()
        if std == 0:
            continue
        scores = -(makespans - makespans.mean()) / std
        j = batch.slice_index
        for demo, score in zip(batch.demos, scores):
            for obs, action in zip(demo.actor.observations[:j], demo.actor.actions[:j]):
                raw.append((obs, action, float(score)))
    if not raw:
        warnings.warn("initial-solution wave skipped: no prefix spread", stacklevel=2)
        return WaveStats(skipped=True, skip_reason="no prefix spread")
    return _surrogate_update_loop(params, optimizer, raw, config, rng)


# -- training loop -------------------------------------------------------


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    metrics: list[dict]
    best_epoch: int
    best_greedy_mean: float
    best_params: dict[str, Tensor]


METRIC_FIELDS = (
    "epoch", "instance", "greedy_makespan", "mean_expert_makespan",
    "mean_i", "applied_iters", "wall_s",
)
_METRIC_TYPES = (int, str, int, float, float, int, float)


def train_loop(
    instances: list[Instance],
    config: TrainConfig,
    out_dir: str | Path | None = None,
    resume_epoch: int = 0,
) -> TrainResult:
    """Run epochs of demo generation and surrogate updates.

    Each epoch writes a checkpoint plus optimizer and metric state under
    ``out_dir``. ``resume_epoch=k`` continues the run in ``out_dir`` from
    its epoch-k checkpoint, optimizer state, metric rows and best
    checkpoint, and leaves the same checkpoints, best epoch and metric
    rows as an uninterrupted run. If no epoch has run, the greedy mean of
    the parameters held is reported.
    """
    if not instances:
        raise ValueError("train_loop needs at least one instance")
    if not 0 <= resume_epoch <= config.epochs:
        raise ValueError(f"resume_epoch must be in [0, {config.epochs}], got {resume_epoch}")
    if resume_epoch > 0 and out_dir is None:
        raise ValueError("resume_epoch > 0 needs the out_dir of the run it resumes")
    op_counts = {inst.total_operations for inst in instances}
    if max(op_counts) > 2 * min(op_counts):
        warnings.warn(
            "training instances differ widely in operation count; "
            "shared slice indices may be degenerate",
            stacklevel=2,
        )
    net_config = PolicyConfig(next_ops=config.next_ops)
    out = Path(out_dir) if out_dir is not None else None
    metrics: list[dict] = []
    best_epoch, best_mean, best_params = 0, np.inf, None
    if resume_epoch == 0:
        params = init_params(net_config, seed=config.seed)
        optimizer = Adam(params, lr=config.lr)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            save_params(params, out / "epoch_000.ckpt", net_config)
    else:
        # every piece of the interrupted run's state comes from its directory
        path = out / f"epoch_{resume_epoch:03d}.ckpt"
        params, saved_config = load_params(path)
        if saved_config != net_config:
            raise ValueError(f"{path}: checkpoint has {saved_config}, the config needs {net_config}")
        optimizer = Adam(params, lr=config.lr)
        with np.load(out / f"optimizer_{resume_epoch:03d}.npz", allow_pickle=False) as data:
            optimizer.load_state(data)
        metrics = [r for r in read_metrics(out / "metrics.csv") if r["epoch"] <= resume_epoch]
        for epoch in range(1, resume_epoch + 1):
            mean_greedy = float(np.mean([r["greedy_makespan"] for r in metrics if r["epoch"] == epoch]))
            if mean_greedy < best_mean:
                best_mean, best_epoch = mean_greedy, epoch
        best_params, _ = load_params(out / "best.ckpt")

    policy = NetPolicy(params, net_config)

    def greedy_means() -> list[int]:
        return [
            rollout(inst, policy, horizon=config.horizon, next_ops=config.next_ops).makespan
            for inst in instances
        ]

    def snapshot() -> dict[str, Tensor]:
        return {k: Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}

    for epoch in range(resume_epoch + 1, config.epochs + 1):
        t0 = time.monotonic()
        evals = config.expert_evals_start + config.expert_evals_step * (epoch - 1)
        demos = generate_demos(instances, policy, config, [config.seed, epoch], evals)
        update_rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch, 1]))
        fb = train_feedback(params, demos, config, optimizer, update_rng)
        init_stats = train_initial(params, demos, config, optimizer, update_rng)
        wall = time.monotonic() - t0
        greedy = greedy_means()
        for inst, batch, gm in zip(instances, demos, greedy):
            expert_ms = [d.expert.makespan for d in batch.demos]
            ratios = [d.ratio for d in batch.demos]
            metrics.append(
                {
                    "epoch": epoch,
                    "instance": inst.name,
                    "greedy_makespan": gm,
                    "mean_expert_makespan": float(np.mean(expert_ms)),
                    "mean_i": float(np.mean(ratios)),
                    "applied_iters": fb.applied_updates + init_stats.applied_updates,
                    "wall_s": round(wall, 3),
                }
            )
        mean_greedy = float(np.mean(greedy))
        if mean_greedy < best_mean:
            best_mean, best_epoch, best_params = mean_greedy, epoch, snapshot()
        if out is not None:
            save_params(params, out / f"epoch_{epoch:03d}.ckpt", net_config)
            np.savez(out / f"optimizer_{epoch:03d}.npz", **optimizer.state())
            save_params(best_params, out / "best.ckpt", net_config)
            write_metrics(metrics, out / "metrics.csv")
    if best_params is None:  # no epoch has run: evaluate the parameters held
        best_mean, best_params = float(np.mean(greedy_means())), snapshot()
    return TrainResult(
        params=params,
        metrics=metrics,
        best_epoch=best_epoch,
        best_greedy_mean=best_mean,
        best_params=best_params,
    )


def write_metrics(metrics: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_FIELDS)
        writer.writeheader()
        writer.writerows(metrics)


def read_metrics(path: str | Path) -> list[dict]:
    """Rows of a ``write_metrics`` file, with their values typed back."""
    with open(path, newline="") as fh:
        return [
            {k: cast(row[k]) for k, cast in zip(METRIC_FIELDS, _METRIC_TYPES)}
            for row in csv.DictReader(fh)
        ]
