"""Dispatching environment over the interval model.

State: one interval per operation, a per-job window of the previous, the
current, and the next few operations, and a clock ``t``. At construction
each job is laid out, from the instance's operation tables, as padded
rows of slot kinds, processing times and machines: a source column, the
job's operations, then sink columns. The window of a job at
cursor ``c`` is the run of columns starting at ``c``, so every window is
read with one flat ``take`` per table. Slots more than ``horizon``
operations past the current one show as sinks. An action either
dispatches a job (fixing its current operation at its start lower bound)
or is a No-Op that advances the clock to the next interval-end event.

The clock only ever advances. Whenever no job is dispatchable the clock
refreshes itself to the minimum end lower bound among current operations,
so in every non-terminal decision state at least one job action is
available and No-Op is purely voluntary. Because every dispatch happens
at the operation's start lower bound, terminal schedules are compressed
by construction. After every transition the clock refresh, the
observation and the action mask are derived together from the window,
which is also the one place that computes every job's current start
lower bound, and cached until the next transition.

An environment is at its first decision state once built; ``reset``
restarts the episode. There is no per-step reward: an episode ends when
``done`` turns true, and its schedule and makespan are read from
``solution()``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from cpshop.instances import Instance
from cpshop.model import ModelState, Solution

SLOT_REAL = 0
SLOT_SOURCE = 1
SLOT_SINK = 2

# feature indices of one interval encoding (f, lb, l, ct)
F_ASSIGNED = 0
F_LB = 1
F_LENGTH = 2
F_AT_T = 3


class ActionError(ValueError):
    """Raised when a masked or malformed action is submitted."""


@dataclass(frozen=True)
class Observation:
    """Per-job interval window plus clock and action mask.

    ``features[j, s]`` is the (f, lb, l, ct) encoding of slot ``s`` of job
    ``j``; slot 0 is the previous (last fixed) operation, slot 1 the
    current one, later slots the upcoming operations. ``kinds`` marks
    slots with no underlying operation as source (before the first
    operation) or sink (after the job's last operation, or more than
    ``horizon`` operations past the current one); their features are
    zero and stand-in embeddings are the policy's responsibility.
    """

    features: np.ndarray
    kinds: np.ndarray
    mask: np.ndarray
    t: int
    time_scale: int

    @property
    def job_count(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class StepResult:
    observation: Observation
    applied_actions: tuple[int, ...]


class JobShopEnv:
    """Single-owner dispatching environment for one instance."""

    def __init__(self, instance: Instance, horizon: int = 10, next_ops: int = 3):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if next_ops < 0:
            raise ValueError("next_ops must be >= 0")
        self.instance = instance
        self.horizon = horizon
        self.next_ops = next_ops
        self.time_scale = instance.machine_load_bound()
        # padded rows (source, operations, 2 + next_ops sinks): slot s at cursor
        # c is column c + s. Padding, masked out of observations, has machine 0
        jc, max_ops = instance.proc.shape
        width, ops = max_ops + 3 + next_ops, slice(1, 1 + max_ops)
        kind = np.full((jc, width), SLOT_SINK, dtype=np.int8)
        kind[:, 0] = SLOT_SOURCE
        kind[:, ops][instance.proc > 0] = SLOT_REAL
        proc, machine = np.zeros((2, jc, width), dtype=np.int64)
        proc[:, ops], machine[:, ops] = instance.proc, instance.machine
        self._kind, self._proc, self._machine = kind.ravel(), proc.ravel(), machine.ravel()
        self._grid = np.arange(jc, dtype=np.int64)[:, None] * width + np.arange(2 + next_ops)
        self.reset()

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> Observation:
        """Restart the episode with nothing dispatched; return its first observation."""
        model = self.model = ModelState(self.instance)
        # every first operation can start at 0, so the clock opens at the
        # earliest first-operation end
        self.t = int(model.proc[model.alive(), 0].min())
        self._settle()
        return self._obs

    def copy(self) -> JobShopEnv:
        """An independent environment at the same decision state: stepping
        one leaves the other unchanged. The padded operation rows and the
        cached observation are shared, since each transition replaces the
        observation and none mutates either."""
        twin = copy.copy(self)
        twin.model = self.model.copy()
        return twin

    @property
    def done(self) -> bool:
        return self.model.complete

    @property
    def noop_action(self) -> int:
        return self.instance.job_count

    # -- derived decision state ------------------------------------------

    def _settle(self) -> None:
        """Derive the decision state after a transition from the window.

        The window is read from the padded rows at each job's cursor; the
        slots past ``horizon`` become sinks in one slice write, since real
        slots end at ``cursor + horizon``. When no job is dispatchable the
        clock advances to the minimum current end lower bound, which
        always re-enables at least one job. No-Op is offered exactly when
        a later current-end or machine-release event exists, so an
        accepted No-Op always advances the clock.
        """
        model = self.model
        jc = self.instance.job_count
        alive = model.alive()
        # slot 0 is the previous operation, slot 1 the current one, later
        # slots the upcoming ones
        slots = 2 + self.next_ops
        cols = self._grid + model.cursor[:, None]
        kinds = self._kind.take(cols)
        kinds[:, self.horizon + 1 :] = SLOT_SINK
        proc = self._proc.take(cols)
        release = model.release.take(self._machine.take(cols))
        # current start lower bounds: the later of the job's last end and
        # its slot-1 machine's release. A finished job's slot 1 is padding,
        # which every use below masks out
        lbs = np.maximum(model.prev_end, release[:, 1])
        ends = (lbs + proc[:, 1])[alive]
        ready = alive & (lbs <= self.t)
        if alive.any() and not ready.any():
            self.t = max(self.t, int(ends.min()))
            ready = alive & (lbs <= self.t)
        mask = np.zeros(jc + 1, dtype=bool)
        mask[:jc] = ready
        mask[jc] = alive.any() and bool((ends > self.t).any() or (model.release > self.t).any())

        # the previous operation's fixed start, then start lower bounds
        # chained from the current one
        lb = np.empty_like(proc)
        lb[:, 0] = model.prev_end - proc[:, 0]
        lb[:, 1] = lbs
        for s in range(2, slots):
            lb[:, s] = np.maximum(lb[:, s - 1] + proc[:, s - 1], release[:, s])
        real = kinds == SLOT_REAL
        feats = np.zeros((jc, slots, 4), dtype=np.float64)
        feats[:, 0, F_ASSIGNED] = real[:, 0]
        feats[..., F_LB] = np.where(real, lb, 0)
        feats[..., F_LENGTH] = np.where(real, proc, 0)
        feats[..., F_AT_T] = real & (lb == self.t)

        self._ends = ends
        self._mask = mask
        self._obs = Observation(
            features=feats, kinds=kinds, mask=mask.copy(), t=self.t, time_scale=self.time_scale
        )

    def observe(self) -> Observation:
        return self._obs

    # -- transitions -----------------------------------------------------

    def _advance_noop(self) -> None:
        events = np.concatenate([self._ends, self.model.release])
        self.t = int(events[events > self.t].min())

    def _result(self, applied: tuple[int, ...]) -> StepResult:
        """Settle the decision state after a transition and report it."""
        self._settle()
        return StepResult(observation=self._obs, applied_actions=applied)

    def step(self, action: int) -> StepResult:
        """Apply one action: a job index dispatches that job, the index
        ``job_count`` is the No-Op clock advance."""
        if self.done:
            raise ActionError("episode is over")
        if not 0 <= action <= self.noop_action:
            raise ActionError(f"action {action} out of range 0..{self.noop_action}")
        if not self._mask[action]:
            if action == self.noop_action:
                raise ActionError("No-Op rejected: it would skip the last remaining decision")
            if self.model.cursor[action] == self.model.n_ops[action]:
                raise ActionError(f"job {action} has no operation left")
            raise ActionError(
                f"job {action} is not dispatchable at t={self.t} "
                f"(start lower bound {int(self._obs.features[action, 1, F_LB])})"
            )
        if action == self.noop_action:
            self._advance_noop()
        else:
            self.model.fix_start(action)
        return self._result((action,))

    def step_vector(self, priority: list[int] | np.ndarray) -> StepResult:
        """Sweep a job priority order, dispatching every job that is
        dispatchable at the current clock value, until a fixpoint.

        Equivalent to replaying the returned ``applied_actions`` through
        :meth:`step`. Every non-terminal state has a dispatchable job, so
        the call always dispatches at least one.
        """
        if self.done:
            raise ActionError("episode is over")
        model = self.model
        order = np.asarray(priority, dtype=np.int64)
        if order.shape != (self.instance.job_count,) or (
            np.sort(order) != np.arange(self.instance.job_count)
        ).any():
            raise ActionError("priority must be a permutation of all job indices")
        applied: list[int] = []
        t = self.t
        release = model.release.tolist()
        jobs = order[self._mask[:-1][order]]
        while jobs.size:
            # bounds of other jobs only rise within a sweep, so it visits
            # just the jobs ready at its start; such a job stays ready
            # unless an earlier dispatch released its machine after t
            cols = self._grid[:, 1].take(jobs) + model.cursor.take(jobs)
            ended = []
            for job, m in zip(jobs.tolist(), self._machine.take(cols).tolist()):
                if release[m] <= t:
                    model.fix_start(job)
                    applied.append(job)
                    release[m] = int(model.release[m])
                    if release[m] <= t:
                        ended.append(job)
            # only a job whose operation this sweep ended by t can be ready
            # again; the sweep visited them in priority order, and the next
            # sweep's release test completes their readiness test
            jobs = np.array(ended, dtype=np.int64)
            if ended:
                jobs = jobs[model.alive().take(jobs)]
        return self._result(tuple(applied))

    def solution(self) -> Solution:
        return self.model.solution()
