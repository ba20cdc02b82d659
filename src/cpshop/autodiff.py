"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough operator coverage for a small transformer policy: elementwise
arithmetic with broadcasting, matmul, exp, tanh, sqrt, reductions, reshaping,
indexing, concatenation, elementwise max/clip, (log-)softmax and layer norm.
Gradients are float64 throughout. A result records a graph exactly when one
of its inputs requires grad, and backward computes a gradient only for an
input that requires grad. Only leaves (tensors without a backward closure)
keep a ``.grad``; an intermediate result passes its gradient on. The graph
lives as long as its result is referenced. ``concat``, ``tanh``, ``sqrt``,
``softmax``, ``log_softmax`` and ``layer_norm`` also take plain ndarrays and
return the plain ndarray of the same numpy expression, so one layer
definition serves the differentiated pass and inference on plain weights
alike.
"""

from __future__ import annotations

import numpy as np

LAYER_NORM_EPS = 1e-5


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # make numpy defer to the reflected Tensor operators
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph ----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate the gradient of this scalar tensor into ``.grad`` of
        every reachable leaf that requires grad.

        Gradients are computed only for tensors that require grad, and only
        leaves (tensors without a backward closure) keep a ``.grad``; an
        intermediate result passes its gradient on. The graph stays intact,
        so a second backward adds the same gradients to the leaves again."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = astensor(other)
        return Tensor(
            self.data + other.data,
            parents=(self, other),
            backward=lambda g: (
                _unbroadcast(g, self.shape) if self.requires_grad else None,
                _unbroadcast(g, other.shape) if other.requires_grad else None,
            ),
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, parents=(self,), backward=lambda g: (-g,))

    def __sub__(self, other):
        return self + (-astensor(other))

    def __mul__(self, other):
        other = astensor(other)
        return Tensor(
            self.data * other.data,
            parents=(self, other),
            backward=lambda g: (
                _unbroadcast(g * other.data, self.shape) if self.requires_grad else None,
                _unbroadcast(g * self.data, other.shape) if other.requires_grad else None,
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = astensor(other)
        return Tensor(
            self.data / other.data,
            parents=(self, other),
            backward=lambda g: (
                _unbroadcast(g / other.data, self.shape) if self.requires_grad else None,
                _unbroadcast(-g * self.data / (other.data**2), other.shape)
                if other.requires_grad
                else None,
            ),
        )

    def __matmul__(self, other):
        other = astensor(other)

        def back(g):
            ga = gb = None
            if self.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape)
            if other.requires_grad:
                gb = _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape)
            return ga, gb

        return Tensor(self.data @ other.data, parents=(self, other), backward=back)

    def __rmatmul__(self, other):
        return astensor(other) @ self

    # -- shaping --------------------------------------------------------

    def reshape(self, *shape):
        old = self.shape
        return Tensor(
            self.data.reshape(*shape),
            parents=(self,),
            backward=lambda g: (g.reshape(old),),
        )

    def swapaxes(self, a, b):
        return Tensor(
            np.swapaxes(self.data, a, b),
            parents=(self,),
            backward=lambda g: (np.swapaxes(g, a, b),),
        )

    def __getitem__(self, key):
        def back(g):
            out = np.zeros_like(self.data)
            np.add.at(out, key, g)
            return (out,)

        return Tensor(self.data[key], parents=(self,), backward=back)

    # -- elementwise functions ------------------------------------------

    def exp(self):
        out = np.exp(self.data)
        return Tensor(out, parents=(self,), backward=lambda g: (g * out,))

    # -- reductions -----------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def back(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.shape).copy(),)

        return Tensor(
            self.data.sum(axis=axis, keepdims=keepdims), parents=(self,), backward=back
        )

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / count


def astensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else x


def _node(out: np.ndarray, inputs, backward):
    """``out`` as a node over ``inputs``; the bare array if none is a Tensor."""
    if not any(isinstance(x, Tensor) for x in inputs):
        return out
    return Tensor(out, parents=tuple(map(astensor, inputs)), backward=backward)


def concat(tensors: list, axis: int = 0):
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate([_data(t) for t in tensors], axis=axis), tensors, back)


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise max; the gradient follows the winning side (ties split)."""
    a, b = astensor(a), astensor(b)
    take_a = a.data >= b.data
    take_b = b.data >= a.data
    w = take_a.astype(np.float64) + take_b.astype(np.float64)

    def back(g):
        return (
            _unbroadcast(g * take_a / w, a.shape) if a.requires_grad else None,
            _unbroadcast(g * take_b / w, b.shape) if b.requires_grad else None,
        )

    return Tensor(np.maximum(a.data, b.data), parents=(a, b), backward=back)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; zero gradient outside the interval."""
    inside = (t.data >= lo) & (t.data <= hi)
    return Tensor(
        np.clip(t.data, lo, hi),
        parents=(t,),
        backward=lambda g: (g * inside,),
    )


def tanh(t):
    out = np.tanh(_data(t))
    return _node(out, (t,), lambda g: (g * (1 - out**2),))


def sqrt(t):
    out = np.sqrt(_data(t))
    return _node(out, (t,), lambda g: (g / (2 * out),))


def softmax(t, axis: int = -1):
    """Numerically stable softmax; rows may contain -inf entries."""
    x = _data(t)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (t,), back)


def log_softmax(t, axis: int = -1):
    x = _data(t)
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def back(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return _node(out, (t,), back)


def layer_norm(t, gamma, beta):
    """Normalize the last axis to zero mean and unit variance, then scale."""
    # sum / d, as Tensor.mean computes it; np.mean's dispatch costs more here
    d = t.shape[-1]
    mu = t.sum(axis=-1, keepdims=True) / d
    centered = t - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    return centered / sqrt(var + LAYER_NORM_EPS) * gamma + beta
