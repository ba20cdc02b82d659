"""In-memory span tracer that wraps cpshop's public functions from outside.

Each wrapped call records one span (name, start, end, parent) and, through
an optional hook, layer-specific counts. A function is wrapped where its
callers look it up: every cpshop module attribute that is the original
function object is replaced, so a name imported into another module (as
``train`` imports ``forward_logits``) is traced too. Methods are wrapped
on their class. ``Tracer.close`` restores every original.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager


# Count hooks: (call args, call kwargs, result) -> {count name: increment}


def _rows(args, kwargs, result):
    return {"net.forward_logits.rows": args[1].features.shape[0]}


def _improve_gain(args, kwargs, result):
    start = args[1] if len(args) > 1 else kwargs["solution"]
    return {"expert.improve.gain": start.makespan - result.makespan}


def _prefix_improved(args, kwargs, result):
    warm = kwargs.get("warm")
    return {"expert.complete_prefix.improved":
            int(warm is not None and result.makespan < warm.makespan)}


def _exact_nodes(args, kwargs, result):
    return {"expert.solve_exact.nodes": result.nodes}


def _wave(args, kwargs, result):
    return {"train.updates": result.applied_updates, "train.waves_skipped": int(result.skipped)}


# (span name, module, attribute path, count hook)
TARGETS = (
    ("env.step", "cpshop.env", "JobShopEnv.step", None),
    ("env.step_vector", "cpshop.env", "JobShopEnv.step_vector", None),
    ("env.observe", "cpshop.env", "JobShopEnv.observe", None),
    ("env.reset", "cpshop.env", "JobShopEnv.reset", None),
    ("model.fix_start", "cpshop.model", "ModelState.fix_start", None),
    ("model.compress", "cpshop.model", "compress", None),
    ("model.validate", "cpshop.model", "validate", None),
    ("rules.pdr_logits", "cpshop.rules", "pdr_logits", None),
    ("rules.masked_softmax", "cpshop.rules", "masked_softmax", None),
    ("rules.rollout", "cpshop.rules", "rollout", None),
    ("rules.ensemble_solve", "cpshop.rules", "ensemble_solve", None),
    ("net.forward_logits", "cpshop.net", "forward_logits", _rows),
    ("net.from_observations", "cpshop.net", "ObservationBatch.from_observations", None),
    ("autodiff.backward", "cpshop.autodiff", "Tensor.backward", None),
    ("expert.improve", "cpshop.expert", "improve", _improve_gain),
    ("expert.complete_prefix", "cpshop.expert", "complete_prefix", _prefix_improved),
    ("expert.solve_exact", "cpshop.expert", "solve_exact", _exact_nodes),
    ("train.train_loop", "cpshop.train", "train_loop", None),
    ("train.generate_demos", "cpshop.train", "generate_demos", None),
    ("train.realize_solution", "cpshop.train", "realize_solution", None),
    ("train.rollout_solution_of", "cpshop.train", "rollout_solution_of", None),
    ("train.train_feedback", "cpshop.train", "train_feedback", _wave),
    ("train.train_initial", "cpshop.train", "train_initial", _wave),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one (name id, start, end, parent index) per span; -1: no parent
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, self._name_id(name), start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name_id: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name_id, start, end, self._stack[-1])

    def wrap(self, name: str, fn, hook=None):
        name_id = self._name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.failed"] += 1
                raise
            finally:
                self._close(index, name_id, start)
            if hook is not None:
                counts.update(hook(args, kwargs, result))
            return result

        return traced

    def install(self, extra_modules=(), targets=TARGETS) -> None:
        """Wrap every target in cpshop's modules and in ``extra_modules``
        (callers outside cpshop that imported a target by name)."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cpshop"]
        modules += list(extra_modules)
        for name, module_name, path, hook in targets:
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            if classes:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, hook))
                else:
                    replacement = self.wrap(name, original, hook)
                self._set(owner, attr, replacement)
                continue
            original = getattr(owner, attr)
            replacement = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, replacement)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def close(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_totals(self) -> dict[str, float]:
        """Per span name: call count and self time, plus the hook counts.
        Call only when no span is open."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter(self.counts)
        for (name_id, start, end, _), children in zip(self.spans, child_time):
            name = self.names[name_id]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - children
        return dict(out)

    def write(self, path) -> None:
        """Write every span as [name id, start, end, parent index]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
