"""Two-stage transformer dispatching policy.

Stage 1 encodes each job's interval window (previous, current, upcoming
slots) with a single-head transformer layer over the slots and mean-pools
it into one job embedding. Stage 2 runs a second single-head transformer
layer across the job embeddings, so every job logit can depend on the
whole shop state. A separate head scores the No-Op action from the
mean-pooled job embeddings.

Interval features (f, lb, l, ct) enter through a linear projection; the
lb and l entries are divided by the instance's machine-load bound first
so the network never sees raw time units. Source and sink slots are
replaced by learned tokens. Slot positions get a fixed sinusoidal
encoding; jobs get none, keeping the job axis permutation-equivariant.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from cpshop import autodiff as ad
from cpshop.autodiff import Tensor
from cpshop.env import F_LB, F_LENGTH, Observation, SLOT_REAL, SLOT_SINK, SLOT_SOURCE

CHECKPOINT_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class PolicyConfig:
    d_model: int = 8
    d_ff: int = 32
    next_ops: int = 3

    def __post_init__(self):
        if self.d_model < 1 or self.d_ff < 1 or self.next_ops < 0:
            raise ValueError("PolicyConfig needs d_model >= 1, d_ff >= 1 and next_ops >= 0")


def _linear_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(config: PolicyConfig = PolicyConfig(), seed: int = 0) -> dict[str, Tensor]:
    """Fresh parameter dictionary; deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    d, f = config.d_model, config.d_ff
    params: dict[str, np.ndarray] = {
        "proj.w": _linear_init(rng, 4, d),
        "proj.b": np.zeros(d),
        "tok.source": rng.uniform(-0.5, 0.5, size=d),
        "tok.sink": rng.uniform(-0.5, 0.5, size=d),
    }
    for prefix in ("enc1", "enc2"):
        for w in ("wq", "wk", "wv", "wo"):
            params[f"{prefix}.{w}.w"] = _linear_init(rng, d, d)
            params[f"{prefix}.{w}.b"] = np.zeros(d)
        params[f"{prefix}.ff1.w"] = _linear_init(rng, d, f)
        params[f"{prefix}.ff1.b"] = np.zeros(f)
        params[f"{prefix}.ff2.w"] = _linear_init(rng, f, d)
        params[f"{prefix}.ff2.b"] = np.zeros(d)
        for ln in ("ln1", "ln2"):
            params[f"{prefix}.{ln}.g"] = np.ones(d)
            params[f"{prefix}.{ln}.b"] = np.zeros(d)
    for head in ("job", "noop"):
        params[f"{head}.h1.w"] = _linear_init(rng, d, f)
        params[f"{head}.h1.b"] = np.zeros(f)
        params[f"{head}.h2.w"] = _linear_init(rng, f, 1)
        params[f"{head}.h2.b"] = np.zeros(1)
    return {k: Tensor(v, requires_grad=True) for k, v in params.items()}


@cache
def positional_encoding(positions: int, d_model: int) -> np.ndarray:
    """Sinusoidal slot encoding (positions, d_model); built once per size and
    returned read-only."""
    pos = np.arange(positions)[:, None]
    i = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (i - i % 2) / d_model)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    enc.flags.writeable = False
    return enc


def _encoder_layer(params: dict, prefix: str, x):
    """Single-head post-norm transformer layer over the second-to-last axis."""
    d = x.shape[-1]
    q = x @ params[f"{prefix}.wq.w"] + params[f"{prefix}.wq.b"]
    k = x @ params[f"{prefix}.wk.w"] + params[f"{prefix}.wk.b"]
    v = x @ params[f"{prefix}.wv.w"] + params[f"{prefix}.wv.b"]
    scores = (q @ k.swapaxes(-1, -2)) / np.sqrt(d)
    att = ad.softmax(scores, axis=-1)
    heads = (att @ v) @ params[f"{prefix}.wo.w"] + params[f"{prefix}.wo.b"]
    x = ad.layer_norm(x + heads, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    ff = ad.tanh(x @ params[f"{prefix}.ff1.w"] + params[f"{prefix}.ff1.b"])
    ff = ff @ params[f"{prefix}.ff2.w"] + params[f"{prefix}.ff2.b"]
    return ad.layer_norm(x + ff, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])


def _mlp(params: dict, head: str, x):
    h = ad.tanh(x @ params[f"{head}.h1.w"] + params[f"{head}.h1.b"])
    return h @ params[f"{head}.h2.w"] + params[f"{head}.h2.b"]


@dataclass(frozen=True)
class ObservationBatch:
    """Stacked observations of equal job count."""

    features: np.ndarray  # (B, J, S, 4), lb and l already normalized
    kinds: np.ndarray  # (B, J, S)
    masks: np.ndarray  # (B, J + 1) boolean

    @classmethod
    def from_observations(cls, observations: list[Observation]) -> "ObservationBatch":
        jc = observations[0].job_count
        if any(o.job_count != jc for o in observations):
            raise ValueError("all observations in a batch must share the job count")
        feats = np.stack([o.features for o in observations]).astype(np.float64)
        scales = np.array([max(o.time_scale, 1) for o in observations], dtype=np.float64)
        feats[..., F_LB] /= scales[:, None, None]
        feats[..., F_LENGTH] /= scales[:, None, None]
        kinds = np.stack([o.kinds for o in observations])
        masks = np.stack([o.mask for o in observations])
        return cls(features=feats, kinds=kinds, masks=masks)

    def take(self, rows) -> "ObservationBatch":
        """The rows picked by an index or boolean array."""
        return ObservationBatch(self.features[rows], self.kinds[rows], self.masks[rows])

    @cached_property
    def distinct_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(first, inverse)`` over the B*J job windows: ``first`` picks one
        window of each distinct (features, kinds) byte content, and
        ``inverse`` maps every window back to its position in ``first``."""
        b, j, s, _ = self.features.shape
        rows = np.concatenate([
            np.ascontiguousarray(self.features).reshape(b * j, -1).view(np.uint8),
            np.ascontiguousarray(self.kinds).reshape(b * j, -1).view(np.uint8),
        ], axis=1)
        keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return first, inverse.ravel()


def _encode_windows(params: dict, features: np.ndarray, kinds: np.ndarray):
    """Stage 1: job windows (..., S, 4) with slot kinds (..., S) to pooled
    embeddings (..., d)."""
    *lead, s, _ = features.shape
    x = features @ params["proj.w"] + params["proj.b"]
    real = (kinds == SLOT_REAL)[..., None].astype(np.float64)
    source = (kinds == SLOT_SOURCE)[..., None].astype(np.float64)
    sink = (kinds == SLOT_SINK)[..., None].astype(np.float64)
    x = x * real + params["tok.source"] * source + params["tok.sink"] * sink
    x = x + positional_encoding(s, x.shape[-1])

    x = x.reshape(-1, s, x.shape[-1])
    x = _encoder_layer(params, "enc1", x)
    return x.mean(axis=1).reshape(*lead, -1)


def _stage_one(params: dict, batch: ObservationBatch):
    """Stage-1 embeddings (B, J, d) of every job window in ``batch``. On
    arrays, a batch of several observations runs stage 1 once per distinct
    job window and gathers the embeddings back; windows are encoded
    independently, so the embeddings are byte-equal either way. On Tensors
    stage 1 runs on every window, so backward accumulates each window's
    gradient in batch order."""
    b, j, s, _ = batch.features.shape
    if b > 1 and not isinstance(params["proj.w"], Tensor):
        first, inverse = batch.distinct_windows
        windows = _encode_windows(
            params,
            batch.features.reshape(b * j, s, -1)[first],
            batch.kinds.reshape(b * j, s)[first],
        )
        return windows[inverse].reshape(b, j, -1)
    return _encode_windows(params, batch.features, batch.kinds)


def forward_logits(params: dict, batch: ObservationBatch, windows=None):
    """Masked action logits, shape (B, J + 1); masked entries are -inf.

    ``Tensor`` weights give a ``Tensor`` with the graph; plain array weights
    (``{k: p.data}``) give the ndarray of the same operations. ``windows``
    are the batch's stage-1 embeddings (B, J, d) when the caller already
    has them, as :class:`NetPolicy` does; stage 2 and the heads always run
    here in full."""
    b, j = batch.features.shape[:2]
    x = _stage_one(params, batch) if windows is None else windows
    x = _encoder_layer(params, "enc2", x)

    job_logits = _mlp(params, "job", x).reshape(b, j)
    noop_logit = _mlp(params, "noop", x.mean(axis=1)).reshape(b, 1)
    logits = ad.concat([job_logits, noop_logit], axis=1)
    offset = np.where(batch.masks, 0.0, -np.inf)
    return logits + offset


def action_log_probs(params: dict, batch: ObservationBatch, actions):
    """Log probability of each chosen action under the masked policy; a
    ``Tensor`` on ``Tensor`` weights, an ndarray on array weights."""
    logp = ad.log_softmax(forward_logits(params, batch), axis=1)
    rows = np.arange(batch.features.shape[0])
    return logp[rows, np.asarray(actions)]


class NetPolicy:
    """Rollout-facing wrapper: observation in, logit vector out.

    The policy keeps its previous :meth:`batch_logits` call: the parameter
    arrays, the normalised window features and kinds, and their stage-1
    embeddings. When the next call has the same ``(B, J, S)`` shape and every
    parameter's ``.data`` is the same array object, it re-encodes only the
    job windows whose bytes changed and reuses the rest. Windows are encoded
    independently, so the logits are byte-equal to an uncached
    :func:`forward_logits`. Parameters must therefore be replaced, never
    edited in place: ``Adam.step`` and ``load_params`` build new arrays, and
    a rebound ``.data`` makes the next call encode every window again."""

    def __init__(self, params: dict[str, Tensor], config: PolicyConfig = PolicyConfig()):
        self.params = params
        self.config = config
        # (parameter arrays, features, kinds, stage-1 embeddings) of the last call
        self._kept: tuple | None = None

    def logits(self, observation: Observation) -> np.ndarray:
        return self.batch_logits([observation])[0]

    def batch_logits(self, observations: list[Observation]) -> np.ndarray:
        """Masked logits, one row per observation, from the current parameter
        values as plain arrays; builds no ``Tensor``."""
        slots = observations[0].kinds.shape[1]
        if slots != self.config.next_ops + 2:
            # the parameters fit any window, so a mismatch would run silently
            raise ValueError(
                f"observation has {slots} slots per job; this policy was built "
                f"for next_ops={self.config.next_ops} ({self.config.next_ops + 2} slots)"
            )
        batch = ObservationBatch.from_observations(observations)
        arrays = {k: p.data for k, p in self.params.items()}
        return forward_logits(arrays, batch, self._windows(arrays, batch))

    def _windows(self, arrays: dict[str, np.ndarray], batch: ObservationBatch) -> np.ndarray:
        """Stage-1 embeddings of ``batch``. When the last call's memory
        applies and some windows are unchanged, only the changed windows are
        encoded; otherwise stage 1 runs in full."""
        values = tuple(arrays.values())
        features, kinds = batch.features, batch.kinds
        kept, windows = self._kept, None
        if (
            kept is not None
            and kept[1].shape == features.shape
            and all(map(operator.is_, kept[0], values))
        ):
            _, old_features, old_kinds, old_windows = kept
            b, j = kinds.shape[:2]
            # byte equality: float != calls 0.0 and -0.0 equal and NaN unequal
            differ = features.view(np.int64) != old_features.view(np.int64)
            changed = differ.reshape(b, j, -1).any(axis=2) | (kinds != old_kinds).any(axis=2)
            if not changed.all():
                windows = old_windows.copy()
                if changed.any():
                    windows[changed] = _encode_windows(arrays, features[changed], kinds[changed])
        if windows is None:
            windows = _stage_one(arrays, batch)
        self._kept = (values, features, kinds, windows)
        return windows


# -- optimization --------------------------------------------------------


class Adam:
    """Adam over a named parameter dictionary."""

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[name] / (1 - ADAM_BETA2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def state(self) -> dict[str, np.ndarray]:
        """Flat named arrays: the step count ``t`` and the moments
        ``m/<param>`` and ``v/<param>``, as an optimizer ``.npz`` holds them."""
        return {
            "t": np.array(self.t),
            **{f"m/{k}": v for k, v in self.m.items()},
            **{f"v/{k}": v for k, v in self.v.items()},
        }

    def load_state(self, state) -> None:
        """Read back what :meth:`state` returns, from a dict or an open ``.npz``."""
        self.t = int(state["t"])
        self.m = {k: np.asarray(state[f"m/{k}"]) for k in self.params}
        self.v = {k: np.asarray(state[f"v/{k}"]) for k in self.params}


# -- persistence ---------------------------------------------------------
#
# Checkpoint layout: a text header (format tag + version, a config line,
# one "param <name> <dims...>" line per tensor in declared order, then
# "end"), followed by the raw little-endian float64 values of every
# tensor concatenated in that same order.

_MAGIC = "cpshop-policy-checkpoint"


def save_params(params: dict[str, Tensor], path: str | Path,
                config: PolicyConfig = PolicyConfig()) -> None:
    names = list(params)
    header = [f"{_MAGIC} v{CHECKPOINT_VERSION}", f"config {json.dumps(asdict(config))}"]
    for name in names:
        dims = " ".join(str(d) for d in params[name].shape)
        header.append(f"param {name} {dims}".rstrip())
    header.append("end")
    payload = np.concatenate(
        [np.ascontiguousarray(params[n].data, dtype="<f8").ravel() for n in names]
    )
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(payload.tobytes())


def load_params(path: str | Path) -> tuple[dict[str, Tensor], PolicyConfig]:
    """Read a checkpoint; a malformed one raises ``ValueError`` naming ``path``."""
    raw = Path(path).read_bytes()
    head, _, rest = raw.partition(b"end\n")
    lines = head.decode(errors="replace").splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise ValueError(f"{path}: not a policy checkpoint")
    version = lines[0].split()[-1]
    if version != f"v{CHECKPOINT_VERSION}":
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    config = PolicyConfig()
    shapes: list[tuple[str, tuple[int, ...]]] = []
    try:
        for line in lines[1:]:
            kind, _, value = line.partition(" ")
            if kind == "config":
                config = PolicyConfig(**json.loads(value))
            elif kind == "param":
                name, *dims = value.split()
                shapes.append((name, tuple(int(d) for d in dims)))
            else:
                raise ValueError(f"unexpected header line {line!r}")
        built = [(k, p.shape) for k, p in init_params(config).items()]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc}") from None
    if shapes != built:
        raise ValueError(f"{path}: parameter names or shapes differ from what {config} builds")
    if len(rest) % 8:
        raise ValueError(
            f"{path}: payload of {len(rest)} bytes is not a whole number of float64 values"
        )
    flat = np.frombuffer(rest, dtype="<f8")
    expected = sum(int(np.prod(s, dtype=np.int64)) if s else 1 for _, s in shapes)
    if flat.size != expected:
        raise ValueError(f"{path}: payload holds {flat.size} values, header declares {expected}")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: payload holds non-finite values")
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape in shapes:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        params[name] = Tensor(
            flat[offset : offset + size].reshape(shape).copy(), requires_grad=True
        )
        offset += size
    return params, config
