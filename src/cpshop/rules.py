"""Dispatching policies: static priority rules, rollouts, and ensembles.

A policy maps an observation to one logit per action (jobs then No-Op).
``rollout`` turns a policy into a greedy schedule, from a new
environment or one stepped part way; ``sample_lockstep`` samples the
episodes of several actors at once, each from its environment's current
state at its own temperature; the ensemble samples one per actor from
new environments and keeps the best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from cpshop.env import F_LB, F_LENGTH, JobShopEnv, Observation
from cpshop.instances import Instance
from cpshop.model import Solution

RULES = ("fifo", "spt", "mtwr")


def pdr_logits(observation: Observation, rule: str) -> np.ndarray:
    """Logits of a static priority rule, computed from the observation only.

    * ``fifo``: earliest current start lower bound first.
    * ``spt``: shortest current processing time first.
    * ``mtwr``: most visible work remaining (current plus upcoming slots)
      first.

    The No-Op logit is minus infinity: a rule always dispatches. Ties are
    broken by the action mask consumer; greedy selection takes the lowest
    job index.
    """
    feats = observation.features
    if rule == "fifo":
        prio = -feats[:, 1, F_LB]
    elif rule == "spt":
        prio = -feats[:, 1, F_LENGTH]
    elif rule == "mtwr":
        # lengths are 0 on every slot that is not real
        prio = feats[:, 1:, F_LENGTH].sum(axis=1)
    else:
        raise ValueError(f"unknown rule {rule!r}, expected one of {RULES}")
    logits = np.empty(observation.job_count + 1, dtype=np.float64)
    logits[:-1] = prio
    logits[-1] = -np.inf
    return logits


class Policy(Protocol):
    def logits(self, observation: Observation) -> np.ndarray: ...


@dataclass(frozen=True)
class RulePolicy:
    """Wraps a static priority rule as a policy."""

    rule: str

    def logits(self, observation: Observation) -> np.ndarray:
        return pdr_logits(observation, self.rule)


def masked_argmax(logits: np.ndarray, mask: np.ndarray) -> int:
    """Highest-logit unmasked action; ties go to the lowest index."""
    if not mask.any():
        raise ValueError("empty action mask")
    masked = np.where(mask, logits, -np.inf)
    return int(np.argmax(masked))


def masked_softmax(
    logits: np.ndarray, mask: np.ndarray, temperature: float | np.ndarray = 1.0
) -> np.ndarray:
    """Probabilities over unmasked actions at the given temperature,
    normalised row-wise along the last axis (one row or a batch of rows).
    A batch may take one temperature per row as a column."""
    if (np.asarray(temperature) <= 0).any():
        raise ValueError("temperature must be positive")
    if not mask.any(axis=-1).all():
        raise ValueError("empty action mask")
    scaled = np.where(mask, logits / temperature, -np.inf)
    peak = scaled.max(axis=-1, keepdims=True)
    scaled = scaled - np.where(np.isfinite(peak), peak, 0.0)
    weights = np.exp(scaled, where=np.isfinite(scaled), out=np.zeros_like(scaled))
    totals = weights.sum(axis=-1, keepdims=True)
    if (totals == 0).any():  # all unmasked logits of a row were -inf: uniform
        weights = np.where(totals == 0, mask, weights)
        totals = weights.sum(axis=-1, keepdims=True)
    return weights / totals


@dataclass
class Rollout:
    solution: Solution
    observations: list[Observation] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        return self.solution.makespan


def rollout(
    instance: Instance,
    policy: Policy,
    horizon: int = 10,
    next_ops: int = 3,
    env: JobShopEnv | None = None,
) -> Rollout:
    """Run one greedy episode with single actions.

    Pass ``env`` to continue a partially dispatched episode instead of
    starting a new one.
    """
    if env is None:
        env = JobShopEnv(instance, horizon=horizon, next_ops=next_ops)
    obs = env.observe()
    while not env.done:
        obs = env.step(masked_argmax(policy.logits(obs), obs.mask)).observation
    return Rollout(solution=env.solution())


def sample_lockstep(
    envs: list[JobShopEnv],
    logits_of: Callable[[list[Observation]], np.ndarray],
    rngs: list[np.random.Generator],
    temperatures: list[float],
    record: bool = False,
) -> list[Rollout]:
    """Sample one episode on each environment from its current state, in
    lockstep.

    Each decision round makes one ``logits_of`` call (one row of logits per
    observation) and one row-wise softmax over the actors still running;
    each actor then draws from its own generator, so its episode equals
    the one it would sample alone. ``record`` keeps observations and actions.
    """
    current = [env.observe() for env in envs]
    trails: list[tuple[list, list]] = [([], []) for _ in envs]  # observations, actions
    temps = np.asarray(temperatures, dtype=np.float64)[:, None]
    running = [a for a, env in enumerate(envs) if not env.done]
    while running:
        observations = [current[a] for a in running]
        masks = np.stack([obs.mask for obs in observations])
        probs = masked_softmax(logits_of(observations), masks, temps[running])
        for row, a in enumerate(running):
            action = int(rngs[a].choice(probs.shape[1], p=probs[row]))
            if record:
                trails[a][0].append(current[a])
                trails[a][1].append(action)
            current[a] = envs[a].step(action).observation
        running = [a for a in running if not envs[a].done]
    return [Rollout(env.solution(), *trail) for env, trail in zip(envs, trails)]


def greedy_rollout(
    instance: Instance,
    policy: Policy,
    horizon: int = 10,
    next_ops: int = 3,
    use_vector: bool = False,
) -> Solution:
    """Dispatch the whole instance greedily under the policy.

    With ``use_vector`` the policy's job ranking is applied as a priority
    vector per decision point instead of one action at a time.
    """
    if not use_vector:
        return rollout(instance, policy, horizon=horizon, next_ops=next_ops).solution
    env = JobShopEnv(instance, horizon=horizon, next_ops=next_ops)
    obs = env.observe()
    while not env.done:
        logits = policy.logits(obs)
        order = np.argsort(-logits[:-1], kind="stable")
        obs = env.step_vector(order).observation
    return env.solution()


def actor_temperature(actor: int, actor_count: int) -> float:
    """Sampling temperature of actor ``actor`` (1-based) in an ensemble,
    spread linearly over (0.5, 2.0]."""
    if not 1 <= actor <= actor_count:
        raise ValueError("actor index out of range")
    return 1.5 * actor / actor_count + 0.5


@dataclass(frozen=True)
class EnsembleResult:
    solution: Solution
    makespans: tuple[int, ...]

    @property
    def best_makespan(self) -> int:
        return self.solution.makespan


def ensemble_solve(
    instance: Instance,
    policy: Policy,
    actor_count: int = 24,
    seed: int = 0,
    horizon: int = 10,
    next_ops: int = 3,
) -> EnsembleResult:
    """Sample one episode per actor at its own temperature, keep the best.

    The actors are stepped in lockstep, each drawing from an independent
    stream derived from ``seed``, so results are reproducible and each
    episode equals the one its actor would sample alone.
    """
    if actor_count < 1:
        raise ValueError("actor_count must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(actor_count)
    runs = sample_lockstep(
        [JobShopEnv(instance, horizon=horizon, next_ops=next_ops) for _ in streams],
        lambda observations: np.stack([policy.logits(obs) for obs in observations]),
        [np.random.default_rng(stream) for stream in streams],
        [actor_temperature(a, actor_count) for a in range(1, actor_count + 1)],
    )
    best = min(runs, key=lambda run: run.makespan)  # the first of equal makespans
    return EnsembleResult(solution=best.solution, makespans=tuple(run.makespan for run in runs))
