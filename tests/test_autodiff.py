import numpy as np
import pytest

from cpshop.autodiff import (
    Tensor,
    astensor,
    clip,
    concat,
    layer_norm,
    log_softmax,
    maximum,
    softmax,
    sqrt,
    tanh,
)


def numeric_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar-valued fn at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = fn(x)
        xf[i] = orig - eps
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(build, *shapes, seed=0, tol=1e-6):
    """Compare backward() against finite differences for each input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(*tensors).backward()
    for i, (a, t) in enumerate(zip(arrays, tensors)):
        def scalar(x, i=i):
            ins = [astensor(v) for v in arrays]
            ins[i] = astensor(x)
            return float(build(*ins).data)

        expected = numeric_grad(scalar, a.copy())
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, expected, rtol=tol, atol=tol)


def test_add_mul_sub_div():
    check_grad(lambda a, b: ((a + b) * (a - b) / (b * b + 2.0)).sum(), (3, 4), (3, 4))


def test_broadcasting_unbroadcasts_grads():
    check_grad(lambda a, b: (a * b).sum(), (3, 4), (4,))
    check_grad(lambda a, b: (a + b).sum(), (2, 1, 4), (3, 1))
    check_grad(lambda a, b: (a / (b * b + 1.5)).sum(), (2, 3), (1, 3))


def test_scalar_mixing():
    check_grad(lambda a: (2.0 * a - a / 3.0 + 1.0).sum(), (5,))


def test_matmul():
    check_grad(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))
    check_grad(lambda a, b: ((a @ b) * (a @ b)).sum(), (2, 3), (3, 3))
    # an ndarray on the left defers to Tensor.__rmatmul__
    check_grad(lambda b: (np.arange(6.0).reshape(2, 3) @ b).sum(), (3, 2))


def test_batched_matmul():
    check_grad(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 2))


def test_reshape_swapaxes_getitem():
    check_grad(lambda a: a.reshape(6).sum(), (2, 3))
    check_grad(lambda a: (a.swapaxes(0, 1) * a.swapaxes(0, 1)).sum(), (2, 3))
    check_grad(lambda a: (a[1] * a[1]).sum(), (3, 4))
    idx = np.array([0, 2, 0])  # repeated index accumulates
    check_grad(lambda a: (a[idx] * np.arange(1.0, 4.0)).sum(), (3,))


def test_elementwise_functions():
    check_grad(lambda a: tanh(a).sum(), (3, 3))
    check_grad(lambda a: a.exp().sum(), (3, 3))
    check_grad(lambda a: sqrt((a * a) + 0.5).sum(), (3, 3))


def test_reductions():
    check_grad(lambda a: (a.sum(axis=0) * np.arange(1.0, 5.0)).sum(), (3, 4))
    check_grad(lambda a: (a.mean(axis=1) * np.arange(1.0, 4.0)).sum(), (3, 4))
    check_grad(lambda a: a.mean(), (3, 4))
    check_grad(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), (3, 4))


def test_concat():
    def build(a, b):
        joined = concat([a, b], axis=1)
        return (joined * joined).sum()

    check_grad(build, (2, 3), (2, 2))


def test_maximum_and_clip():
    check_grad(lambda a, b: maximum(a, b).sum(), (4, 4), (4, 4), seed=3)
    check_grad(lambda a: clip(a, -0.5, 0.5).sum(), (5,), seed=1)


def test_maximum_splits_ties():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    maximum(a, b).sum().backward()
    assert a.grad.tolist() == [0.5, 1.0]
    assert b.grad.tolist() == [0.5, 0.0]


def test_softmax_and_log_softmax():
    check_grad(lambda a: (softmax(a) * np.arange(1.0, 5.0)).sum(), (3, 4))
    check_grad(lambda a: (log_softmax(a) * np.arange(1.0, 5.0)).sum(), (3, 4))


def test_softmax_handles_minus_inf():
    x = Tensor(np.array([1.0, -np.inf, 2.0]), requires_grad=True)
    p = softmax(x)
    assert p.data[1] == 0.0
    assert p.data.sum() == pytest.approx(1.0)
    (p * np.array([1.0, 5.0, 2.0])).sum().backward()
    assert np.isfinite(x.grad[[0, 2]]).all()


def test_layer_norm():
    gamma_beta = [(3,), (3,)]

    def build(a, g, b):
        return (layer_norm(a, g, b) * np.arange(1.0, 4.0)).sum()

    check_grad(build, (2, 3), *gamma_beta, tol=1e-5)


def test_grad_accumulates_over_reuse():
    a = Tensor(np.array([2.0]), requires_grad=True)
    ((a * a) + a).sum().backward()
    assert a.grad.tolist() == [5.0]  # 2x + 1 at x=2


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (a * a).backward()


def test_detach_blocks_gradient():
    a = Tensor(np.array([3.0]), requires_grad=True)
    detached = Tensor(a.data)  # same values, no parents
    (detached * a).sum().backward()
    assert a.grad.tolist() == [3.0]  # only the live branch contributes


def test_numpy_defers_to_tensor():
    a = Tensor(np.ones(3), requires_grad=True)
    out = np.arange(3.0) * a  # __array_priority__ routes to __rmul__
    assert isinstance(out, Tensor)
    out.sum().backward()
    assert a.grad.tolist() == [0.0, 1.0, 2.0]


# each takes (x, gamma, beta) of shapes (3, 4), (4,), (4,)
ARRAY_FUNCTIONS = {
    "tanh": lambda x, g, b: tanh(x),
    "sqrt": lambda x, g, b: sqrt(x * x + 0.5),
    "softmax": lambda x, g, b: softmax(x, axis=0),
    "log_softmax": lambda x, g, b: log_softmax(x),
    "layer_norm": lambda x, g, b: layer_norm(x, g, b),
    "concat": lambda x, g, b: concat([x, x * g + b], axis=1),
}


@pytest.mark.parametrize("name", sorted(ARRAY_FUNCTIONS))
def test_array_inputs_give_arrays_with_the_tensor_bytes(name):
    rng = np.random.default_rng(4)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=4)]
    out = ARRAY_FUNCTIONS[name](*arrays)
    assert type(out) is np.ndarray
    graph = ARRAY_FUNCTIONS[name](*[Tensor(a, requires_grad=True) for a in arrays])
    assert graph.requires_grad and graph._parents and graph._backward is not None
    assert out.tobytes() == graph.data.tobytes()


def test_mixing_in_a_requires_grad_tensor_records_a_graph():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
    out = concat([x, tanh(x @ w)], axis=0)
    assert out.requires_grad and out._backward is not None
    (softmax(out, axis=1) * np.arange(1.0, 3.0)).sum().backward()
    assert w.grad is not None and np.abs(w.grad).sum() > 0
    constant = softmax(x @ Tensor(w.data), axis=1)  # no input requires grad
    assert not constant.requires_grad
    assert constant._parents == () and constant._backward is None
