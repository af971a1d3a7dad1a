"""Tensor-core tests: frozen hand-computed values, identities, and a central
finite-difference oracle for every differentiable op (f64, rel err < 1e-6)."""

import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgraph import graph
from adaptgraph import tensor as T
from adaptgraph.errors import InvalidInputError, ShapeError, UsageError
from adaptgraph.tensor import Tensor


def leaf(arr):
    t = Tensor(np.ascontiguousarray(arr, dtype=np.float64), requires_grad=True)
    return t


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f() w.r.t. the array x (mutated in place)."""
    g = np.zeros_like(x)
    flat, out = x.ravel(), g.ravel()
    for i in range(x.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        out[i] = (hi - lo) / (2 * eps)
    return g


def check_grads(build, inputs, rtol=1e-6):
    """build(*tensors) -> output tensor; compares backward grads against FD.

    The scalar objective is a fixed random weighting of the output so every
    element contributes to the gradient.
    """
    tensors = [leaf(x) for x in inputs]
    out = build(*tensors)
    w = np.random.default_rng(99).normal(size=out.shape)
    loss = T.reduce_sum(T.mul(out, Tensor(w, dtype="f64")))
    loss.backward()

    def objective():
        with T.no_grad():
            return float((build(*tensors).data * w).sum())

    for t, x in zip(tensors, inputs):
        num = fd_grad(objective, t.data)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-8)
        rel = np.abs(t.grad - num) / denom
        assert rel.max() < rtol, f"rel err {rel.max():.3e} for input shape {x.shape}"


def rand(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# ---------------------------------------------------------------------
# construction and bookkeeping
# ---------------------------------------------------------------------

def test_tensor_basics():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2) and t.size == 4
    assert t.dtype == "f64"  # python floats arrive as float64
    assert Tensor(np.zeros(3, dtype=np.float32)).dtype == "f32"
    assert Tensor(np.zeros(3, dtype=np.int64)).dtype == "f32"
    assert Tensor(np.zeros(3, dtype=np.float64), dtype="f32").dtype == "f32"
    with pytest.raises(InvalidInputError):
        Tensor([1.0], dtype="f16")


def test_item_requires_single_element():
    assert Tensor([[5.0]]).item() == 5.0
    with pytest.raises(UsageError):
        Tensor([1.0, 2.0]).item()


def test_no_grad_blocks_graph_construction():
    a = leaf(rand(3))
    with T.no_grad():
        out = T.mul(a, a)
    assert out.node is None
    out2 = T.mul(a, a)
    assert out2.node is not None


def test_backward_requires_tracked_scalar():
    with pytest.raises(UsageError):
        T.backward(Tensor([1.0]))
    a = leaf(rand(3))
    with pytest.raises(UsageError):
        T.backward(T.mul(a, a))  # not a scalar


def test_backward_accumulates_across_calls():
    a = leaf(np.array([1.0, 2.0]))
    loss = T.reduce_sum(T.mul(a, a))
    loss.backward()
    np.testing.assert_allclose(a.grad, [2.0, 4.0])  # d(sum w^2) = 2w
    loss.backward()
    np.testing.assert_allclose(a.grad, [4.0, 8.0])
    a.zero_grad()
    np.testing.assert_allclose(a.grad, 0.0)


def test_gradient_of_linear_map_is_the_fixed_factor():
    x = np.array([3.0, -1.0, 2.0])
    w = leaf(np.ones(3))
    T.reduce_sum(T.mul(w, Tensor(x, dtype="f64"))).backward()
    np.testing.assert_allclose(w.grad, x)


# ---------------------------------------------------------------------
# frozen numeric fixtures
# ---------------------------------------------------------------------

def test_pointwise_linear_fixture():
    x = Tensor(np.ones((1, 2, 1, 1), dtype=np.float32))
    w = Tensor([[1.0, 1.0], [2.0, 2.0]])
    b = Tensor([0.0, 1.0])
    out = T.pointwise_linear(x, w, b)
    np.testing.assert_array_equal(out.data.reshape(2), [2.0, 5.0])


def test_pointwise_linear_identity_and_constant():
    x = Tensor(rand(2, 3, 4, 5).astype(np.float32))
    ident = T.pointwise_linear(x, Tensor(np.eye(3, dtype=np.float32)))
    np.testing.assert_array_equal(ident.data, x.data)
    const = T.pointwise_linear(x, Tensor(np.zeros((2, 3), dtype=np.float32)),
                               Tensor([1.5, -2.0]))
    assert np.all(const.data[:, 0] == 1.5) and np.all(const.data[:, 1] == -2.0)


def test_pointwise_linear_channel_mismatch():
    with pytest.raises(ShapeError, match="channel"):
        T.pointwise_linear(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((4, 2))))


def test_batch_norm_two_value_channel():
    # channel values {1, 3}: mean 2, biased std 1 -> normalized to -1, +1
    x = Tensor(np.array([1.0, 3.0]).reshape(2, 1))
    out = T.batch_norm(x, Tensor([1.0]), Tensor([0.0]), None, None,
                       "train", epsilon=1e-12)
    np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-6)


def test_batch_norm_eval_identity_stats():
    x = Tensor(rand(4, 3).astype(np.float32))
    out = T.batch_norm(x, Tensor(np.ones(3, dtype=np.float32)),
                       Tensor(np.zeros(3, dtype=np.float32)),
                       np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32),
                       "eval", epsilon=1e-5)
    np.testing.assert_allclose(out.data, x.data, atol=1e-4)


def test_batch_norm_constant_input_gives_beta():
    x = Tensor(np.full((4, 2), 7.0))
    beta = Tensor([0.5, -0.5])
    out = T.batch_norm(x, Tensor(np.ones(2)), beta, None, None, "train")
    np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (4, 2)), atol=1e-7)


def test_batch_norm_train_statistics():
    x = Tensor(rand(16, 5, 7, seed=3))
    out = T.batch_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), None, None,
                       "train", epsilon=1e-12)
    mu = out.data.mean(axis=(0, 2))
    var = out.data.var(axis=(0, 2))
    assert np.abs(mu).max() < 1e-6
    assert np.abs(var - 1.0).max() < 1e-4


def test_batch_norm_train_matches_f64_reference_at_an_edge_shape():
    rng = np.random.default_rng(13)
    shape = (32, 64, 20, 20)
    x = (3.0 + rng.normal(size=shape)).astype(np.float32)
    gamma = (1.0 + 0.1 * rng.normal(size=64)).astype(np.float32)
    beta = rng.normal(size=64).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    rm, rv = np.zeros(64, np.float32), np.ones(64, np.float32)
    out = T.batch_norm(xt, gt, bt, rm, rv, "train")
    dx, dgamma, dbeta = out.node.backward_fn(g)

    axes, b = (0, 2, 3), (1, 64, 1, 1)
    x64, g64, gamma64 = x.astype(np.float64), g.astype(np.float64), gamma.astype(np.float64)
    mu, var = x64.mean(axis=axes), x64.var(axis=axes)
    xhat = (x64 - mu.reshape(b)) / np.sqrt(var.reshape(b) + 1e-5)
    m = x.size // 64
    want_dbeta = g64.sum(axis=axes)
    want_dgamma = (g64 * xhat).sum(axis=axes)
    want_dx = (gamma64 / np.sqrt(var + 1e-5)).reshape(b) * (
        g64 - want_dbeta.reshape(b) / m - xhat * want_dgamma.reshape(b) / m)
    for got, want in ((out.data, gamma64.reshape(b) * xhat + beta.reshape(b)),
                      (dx, want_dx), (dgamma, want_dgamma), (dbeta, want_dbeta),
                      (rm, 0.1 * mu), (rv, 0.9 + 0.1 * var)):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


def test_batch_norm_updates_running_stats():
    x = Tensor(rand(8, 2))
    rm = np.zeros(2)
    rv = np.ones(2)
    T.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, "train",
                 momentum=0.1)
    np.testing.assert_allclose(rm, 0.1 * x.data.mean(axis=0))
    np.testing.assert_allclose(rv, 0.9 + 0.1 * x.data.var(axis=0))


def test_batch_norm_guards():
    x = Tensor(np.zeros((0, 2)))
    with pytest.raises(InvalidInputError):
        T.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), None, None, "train")
    y = Tensor(np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        T.batch_norm(y, Tensor(np.ones(2)), Tensor(np.zeros(2)), None, None, "eval")
    with pytest.raises(InvalidInputError):
        T.batch_norm(y, Tensor(np.ones(2)), Tensor(np.zeros(2)), np.zeros(2),
                     np.ones(2), "train", epsilon=0.0)


# ---------------------------------------------------------------------
# batch norm -> leaky relu -> max over k, fused
# ---------------------------------------------------------------------

def tied_edges(dtype, seed=0):
    """(B, C, N, k) edges with exact ties: repeated neighbors, a constant row,
    and per-channel offsets so means and variances differ."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 5, 4, 6)) + rng.normal(size=(1, 5, 1, 1))
    x[..., 4] = x[..., 1]  # a duplicate point seen twice
    x[..., 5] = x[..., 0]
    x[0, :, 2, :] = x[0, :, 2, :1]  # every neighbor the same point
    return x.astype(dtype)


GAMMAS = {"positive": [0.5, 1.0, 1.5, 2.0, 0.25],
          "mixed": [0.5, -1.0, 0.0, 2.0, -0.25],
          "negative": [-0.5, -1.0, -1.5, -2.0, -0.25],
          "zero": [0.0] * 5}


def composed(x, gamma, beta, rm, rv, mode, slope=0.2):
    return T.reduce(T.leaky_relu(T.batch_norm(x, gamma, beta, rm, rv, mode), slope), 3, "max")


def fused(x, gamma, beta, rm, rv, mode, slope=0.2):
    return T.batch_norm_leaky_max(x, gamma, beta, rm, rv, mode, slope)


@pytest.mark.parametrize("gammas", sorted(GAMMAS))
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("recorded", [True, False])
def test_batch_norm_leaky_max_equals_composition_bitwise(gammas, mode, dtype, recorded,
                                                         monkeypatch):
    gamma = np.array(GAMMAS[gammas], dtype=dtype)
    beta = np.random.default_rng(1).normal(size=5).astype(dtype)
    # one block, then blocks of 7 of the 60 (b, c, n) rows: blocks straddle
    # channels and the last is a short one of 4 rows; then k=1 the same way
    for x, block_rows in ((tied_edges(dtype), None), (tied_edges(dtype), 7),
                          (tied_edges(dtype)[..., :1], 7)):
        outs, buffers = [], []
        with monkeypatch.context() as m:
            if block_rows is not None:
                m.setattr(T, "_MAX_BLOCK_VALUES", block_rows * x.shape[3])
            for op in (composed, fused):
                rm = np.random.default_rng(2).normal(size=5).astype(dtype)
                rv = np.random.default_rng(3).uniform(0.5, 2.0, size=5).astype(dtype)
                args = [Tensor(a, requires_grad=recorded) for a in (x, gamma, beta)]
                if recorded:
                    out = op(*args, rm, rv, mode)
                    assert out.node is not None
                else:
                    with T.no_grad():
                        out = op(*args, rm, rv, mode)
                assert out.shape == (3, 5, 4) and out.data.dtype == dtype
                outs.append(out.data)
                buffers.append(np.concatenate([rm, rv]))
        assert outs[0].tobytes() == outs[1].tobytes()
        assert buffers[0].tobytes() == buffers[1].tobytes()


@pytest.mark.parametrize("gammas", sorted(GAMMAS))
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_norm_leaky_max_gradients_match_composition(gammas, mode, monkeypatch):
    gamma = np.array(GAMMAS[gammas])
    beta = np.random.default_rng(5).normal(size=5)
    w = np.random.default_rng(6).normal(size=(3, 5, 4))
    # the winners' values come from the blocked max, so route through the
    # layouts of the bitwise test: one block, blocks of 7 rows, and k=1
    for x, block_rows in ((tied_edges(np.float64, seed=4), None),
                          (tied_edges(np.float64, seed=4), 7),
                          (tied_edges(np.float64, seed=4)[..., :1], 7)):
        grads = []
        with monkeypatch.context() as m:
            if block_rows is not None:
                m.setattr(T, "_MAX_BLOCK_VALUES", block_rows * x.shape[3])
            for op in (composed, fused):
                args = [leaf(a) for a in (x, gamma, beta)]
                rm, rv = np.full(5, 0.1), np.full(5, 1.5)
                T.reduce_sum(T.mul(op(*args, rm, rv, mode), Tensor(w))).backward()
                grads.append([a.grad for a in args])
        for got, want, name in zip(grads[1], grads[0], ("x", "gamma", "beta")):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max(),
                                       err_msg=name)


@pytest.mark.parametrize("block_values", [None, 1], ids=["default-blocks", "one-row-blocks"])
def test_batch_norm_leaky_max_routes_a_nan_row_to_edge_0(block_values, monkeypatch):
    if block_values is not None:
        monkeypatch.setattr(T, "_MAX_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(12)
    x = rng.uniform(0.5, 1.5, size=(2, 2, 3, 5))
    x[0, 0, 1, 3] = np.nan  # positive scale
    x[1, 1, 2, 2] = np.nan  # negative scale
    # first edge of the max of x * sign(gamma), or edge 0 for a NaN row
    want = np.where(np.isnan(x).any(axis=3), 0,
                    np.argmax(x * np.array([1.0, -1.0])[None, :, None, None], axis=3))
    args = [leaf(x), leaf([1.5, -0.5]), leaf([10.0, 10.0])]  # every z > 0
    out = T.batch_norm_leaky_max(*args, np.zeros(2), np.ones(2), "eval")
    assert np.isnan(out.data[0, 0, 1]) and np.isnan(out.data[1, 1, 2])
    assert np.isfinite(out.data).sum() == out.size - 2
    T.reduce_sum(out).backward()
    hit = np.zeros(x.shape, dtype=bool)
    np.put_along_axis(hit, want[..., None], True, axis=3)
    np.testing.assert_array_equal(args[0].grad != 0, hit)


def test_grad_batch_norm_leaky_max():
    inputs = [rand(4, 3, 5, 6), np.array([1.2, -0.8, 0.6]), rand(3, seed=2)]
    check_grads(lambda a, g, b: T.batch_norm_leaky_max(a, g, b, None, None, "train"),
                inputs, rtol=1e-5)
    rm, rv = rand(3, seed=3), 1.0 + 0.1 * np.abs(rand(3, seed=4))
    check_grads(lambda a, g, b: T.batch_norm_leaky_max(a, g, b, rm.copy(), rv.copy(),
                                                       "eval", slope=0.1), inputs)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("op", [T.batch_norm_leaky_max])
def test_batch_norm_shift_stands_for_an_added_constant(op, mode):
    # a (C,) shift normalizes x + shift without forming it: same output,
    # running buffers and gradients; in train mode the batch mean removes it
    x, gamma, beta = rand(4, 3, 5, 6), np.array([1.2, -0.8, 0.6]), rand(3, seed=2)
    shift = np.array([0.7, -2.0, 0.1])
    start = rand(3, seed=3), 1.0 + 0.1 * np.abs(rand(3, seed=4))

    def run(shifted):
        rm, rv = (v.copy() for v in start)
        leaves = [leaf(v) for v in (x, gamma, beta, shift)]
        xt, g, b, s = leaves
        if shifted:
            out = op(xt, g, b, rm, rv, mode, shift=s)
        else:
            out = op(T.add(xt, T.reshape(s, (1, 3, 1, 1))), g, b, rm, rv, mode)
        T.reduce_sum(T.mul(out, Tensor(rand(*out.shape, seed=5)))).backward()
        return [out.data, rm, rv] + [t.grad for t in leaves]

    for got, want in zip(run(True), run(False)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    check_grads(lambda a, g, b, s: op(a, g, b, *(v.copy() for v in start), mode, shift=s),
                [x, gamma, beta, shift], rtol=1e-5)


def test_batch_norm_leaky_max_guards():
    ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
    with pytest.raises(ShapeError):
        T.batch_norm_leaky_max(Tensor(np.zeros((2, 2, 3))), ones, zeros, None, None, "train")
    with pytest.raises(InvalidInputError):
        T.batch_norm_leaky_max(Tensor(np.zeros((2, 2, 3, 0))), ones, zeros, None, None,
                               "train")
    with pytest.raises(InvalidInputError):
        T.batch_norm_leaky_max(Tensor(np.zeros((2, 2, 3, 2))), ones, zeros, None, None,
                               "train", slope=1.0)
    with pytest.raises(ShapeError):
        T.batch_norm_leaky_max(Tensor(np.zeros((2, 3, 3, 2))), ones, zeros, None, None,
                               "train")


# ---------------------------------------------------------------------
# embedding head: map -> batch norm -> leaky relu -> max and mean over points
# ---------------------------------------------------------------------

def head_composed(x, weight, gamma, beta, rm, rv, mode, slope=0.2):
    emb = T.leaky_relu(T.batch_norm(T.pointwise_linear(x, weight), gamma, beta, rm, rv, mode),
                       slope)
    return T.concat([T.reduce(emb, 2, "max"), T.reduce(emb, 2, "mean")], 1)


def head_inputs(b, n, dtype, seed=0):
    """x (B, 4, N), weight (6, 4), gamma and beta (6,) with two exact ties:
    channel 1 reads only x's channel 0, which is constant across points, and
    channel 4 has gamma 0, so every point of an item holds its max."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, 4, n)) + rng.normal(size=(1, 4, 1))
    x[:, 0, :] = rng.normal(size=(b, 1))
    weight = rng.normal(size=(6, 4))
    weight[1] = [1.5, 0.0, 0.0, 0.0]
    gamma = np.array([0.5, 1.2, -0.7, 2.0, 0.0, 1.0])
    beta = rng.normal(size=6)
    return [a.astype(dtype) for a in (x, weight, gamma, beta)]


def run_head(op, inputs, mode, seed=1):
    """Output, running buffers and the four gradients of op under a fixed
    random weighting of its output."""
    dtype = inputs[0].dtype
    rm = np.random.default_rng(2).normal(size=6).astype(dtype)
    rv = np.random.default_rng(3).uniform(0.5, 2.0, size=6).astype(dtype)
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*leaves, rm, rv, mode)
    w = Tensor(np.random.default_rng(seed).normal(size=out.shape).astype(dtype))
    T.reduce_sum(T.mul(out, w)).backward()
    return [out.data, rm, rv] + [t.grad for t in leaves]


@pytest.mark.parametrize("block_items", [None, 2], ids=["one-block", "two-item-blocks"])
@pytest.mark.parametrize("b,n", [(1, 1), (1, 5), (3, 1), (3, 5)])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_norm_pool_matches_the_five_op_composition(dtype, mode, b, n, block_items,
                                                          monkeypatch):
    if block_items is not None:  # pooling blocks of 2 items, a short last one at B = 3
        monkeypatch.setattr(T, "_MAX_BLOCK_VALUES", block_items * n * 6)
    inputs = head_inputs(b, n, dtype)
    got = run_head(T.linear_norm_pool, inputs, mode)
    want = run_head(head_composed, inputs, mode)
    assert got[0].shape == (b, 12) and got[0].dtype == dtype
    rtol = 1e-5 if dtype == np.float32 else 1e-11
    names = ("out", "running_mean", "running_var", "x", "weight", "gamma", "beta")
    for g, w, name in zip(got, want, names):
        np.testing.assert_allclose(g, w, rtol=rtol, atol=rtol * np.abs(w).max(), err_msg=name)


def test_linear_norm_pool_routes_a_tied_max_to_the_first_point():
    # channel 1 is tied across points; with a positive scale and a large
    # beta every z > 0, so the max's gradient reaches x's channel 0 at point 0
    x, weight, gamma, beta = head_inputs(2, 5, np.float64)
    beta = beta + 100.0
    leaves = [leaf(a) for a in (x, weight, gamma, beta)]
    out = T.linear_norm_pool(*leaves, np.zeros(6), np.ones(6), "eval")
    g = np.zeros(out.shape)
    g[:, 1] = 1.0  # the max half of channel 1 only
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    dx = leaves[0].grad
    scale = gamma[1] / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(dx[:, 0, 0], weight[1, 0] * scale)
    assert not dx[:, 0, 1:].any() and not dx[:, 1:].any()


def test_grad_linear_norm_pool():
    inputs = [rand(3, 4, 5), rand(6, 4, seed=1), 1.0 + 0.2 * rand(6, seed=2), rand(6, seed=3)]
    check_grads(lambda x, w, g, b: T.linear_norm_pool(x, w, g, b, None, None, "train"),
                inputs, rtol=1e-5)
    rm, rv = rand(6, seed=4), 1.0 + 0.1 * np.abs(rand(6, seed=5))
    check_grads(lambda x, w, g, b: T.linear_norm_pool(x, w, g, b, rm.copy(), rv.copy(),
                                                      "eval", slope=0.1), inputs)


def test_linear_norm_pool_memory_at_the_mmwave_window():
    # sequential-ff's head on one mmactivity window (C 512 -> E 1024, N=960,
    # f32), train mode: forward plus backward keep the centred rows and their
    # activation mask, and form the rows' gradient; with x's and the
    # weight's gradients the traced peak stays under four (E, N) f32 arrays,
    # 15.7 MB. The five-op composition keeps one such array per op (28.8 MB)
    b, c, n, e = 1, 512, 960, 1024
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(b, c, n)), dtype="f32", requires_grad=True)
    weight = Tensor(rng.normal(size=(e, c)), dtype="f32", requires_grad=True)
    gamma = Tensor(np.ones(e), dtype="f32", requires_grad=True)
    beta = Tensor(np.zeros(e), dtype="f32", requires_grad=True)
    w = Tensor(rng.normal(size=(b, 2 * e)), dtype="f32")
    budget = 4 * 4 * b * e * n
    for op, fits in ((T.linear_norm_pool, True), (head_composed, False)):
        tracemalloc.start()
        try:
            out = op(x, weight, gamma, beta, np.zeros(e, np.float32), np.ones(e, np.float32),
                     "train")
            T.reduce_sum(T.mul(out, w)).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak < budget) == fits, (
            f"{op.__name__}: traced peak {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB")
        for t in (x, weight, gamma, beta):
            t.grad = None


def test_linear_norm_pool_guards():
    x, weight = Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((6, 4)))
    ones, zeros = Tensor(np.ones(6)), Tensor(np.zeros(6))
    with pytest.raises(ShapeError):
        T.linear_norm_pool(Tensor(np.zeros((2, 4))), weight, ones, zeros, None, None, "train")
    with pytest.raises(ShapeError):
        T.linear_norm_pool(x, Tensor(np.zeros((6, 5))), ones, zeros, None, None, "train")
    with pytest.raises(ShapeError):
        T.linear_norm_pool(x, weight, Tensor(np.ones(5)), zeros, None, None, "train")
    with pytest.raises(UsageError):
        T.linear_norm_pool(x, Tensor(np.zeros((6, 4)), dtype="f32"), ones, zeros, None, None,
                           "train")
    with pytest.raises(InvalidInputError):
        T.linear_norm_pool(Tensor(np.zeros((2, 4, 0))), weight, ones, zeros, None, None,
                           "train")
    with pytest.raises(InvalidInputError):
        T.linear_norm_pool(x, weight, ones, zeros, None, None, "eval")
    with pytest.raises(InvalidInputError):
        T.linear_norm_pool(x, weight, ones, zeros, None, None, "train", slope=1.0)


def test_linear_norm_pool_takes_an_empty_embedding():
    # an (0, C) weight embeds into no channels: (B, 0) out, empty gradients
    # for the norm and zero ones for x and the weight
    x = leaf(rand(2, 4, 5))
    weight, gamma, beta = leaf(np.zeros((0, 4))), leaf(np.ones(0)), leaf(np.zeros(0))
    for mode in ("train", "eval"):
        out = T.linear_norm_pool(x, weight, gamma, beta, np.zeros(0), np.ones(0), mode)
        assert out.shape == (2, 0)
        T.reduce_sum(out).backward()
        assert gamma.grad.shape == beta.grad.shape == (0,) and weight.grad.shape == (0, 4)
        assert x.grad.shape == x.shape and not x.grad.any()


@settings(max_examples=300, deadline=None)
@given(items=st.integers(0, 6), points=st.integers(0, 9), unit=st.integers(0, 12),
       block=st.integers(1, 60))
def test_blocks_tile_items_by_points_once_in_order(items, points, unit, block):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(T, "_MAX_BLOCK_VALUES", block)
        blocks = T._blocks(items, points, unit)
    cells = [(item, p) for i, j, lo, hi in blocks for item in range(i, j) for p in range(lo, hi)]
    assert cells == [(i, p) for i in range(items) for p in range(points)]
    whole = unit == 0 or points == 1 or points * unit <= block  # one item fits
    for n, (i, j, lo, hi) in enumerate(blocks):
        assert i < j and lo < hi
        values = (j - i) * (hi - lo) * unit
        assert values <= max(block, unit)
        last = n == len(blocks) - 1
        if whole:  # whole items, as many as fit
            assert (lo, hi) == (0, points)
            assert last or unit == 0 or values + points * unit > block
        else:  # a run of one item's points, as long as fits
            assert j == i + 1
            assert hi == points or values + unit > block
    if unit == 0:
        assert len(blocks) == (1 if items and points else 0)


def test_only_tensor_names_the_block_size():
    # every blocked loop takes its blocks from T._blocks, so the block size
    # is named in code by tensor.py alone (docstrings and comments may cite it)
    def names(path):
        return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                if getattr(node, "id", getattr(node, "attr", None)) == "_MAX_BLOCK_VALUES"]

    src = pathlib.Path(T.__file__).parent
    assert names(src / "tensor.py")
    for path in sorted(src.glob("*.py")):
        if path.name != "tensor.py":
            assert not names(path), f"{path.name} names _MAX_BLOCK_VALUES at {names(path)}"


def test_leaky_relu_fixtures():
    out = T.leaky_relu(Tensor([1.0, -1.0, 0.0]), 0.2)
    np.testing.assert_allclose(out.data, [1.0, -0.2, 0.0], rtol=1e-6)
    relu = T.leaky_relu(Tensor([-5.0, 5.0]), 0.0)
    np.testing.assert_array_equal(relu.data, [0.0, 5.0])
    x = leaf(np.array([-2.0]))
    T.reduce_sum(T.leaky_relu(x, 0.2)).backward()
    np.testing.assert_allclose(x.grad, [0.2])
    with pytest.raises(InvalidInputError):
        T.leaky_relu(Tensor([1.0]), 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.2, 0.0])
def test_leaky_relu_is_bitwise_the_select(dtype, slope):
    # the branch-free forms must pick np.where's branch bit for bit, on the
    # values where max(x, slope * x) and mask arithmetic could differ from it
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, info.smallest_subnormal,
               -info.smallest_subnormal, 3 * info.smallest_subnormal,
               -3 * info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max]
    rng = np.random.default_rng(3)
    x = np.concatenate([np.array(special, dtype=dtype),
                        rng.normal(size=64).astype(dtype)])
    g = np.roll(x, 5)  # upstream gradients with the same specials
    s = np.asarray(slope, dtype=dtype)
    neg = x < 0
    bits = np.uint32 if dtype == np.float32 else np.uint64
    with np.errstate(invalid="ignore"):  # inf * 0
        want_out = np.where(neg, x * s, x)
        want_grad = np.where(neg, g * s, g)
        t = Tensor(x.copy(), requires_grad=True)
        out = T.leaky_relu(t, slope)
        (got_grad,) = out.node.backward_fn(g)
        with T.no_grad():
            untracked = T.leaky_relu(t, slope)
    np.testing.assert_array_equal(out.data.view(bits), want_out.view(bits))
    np.testing.assert_array_equal(got_grad.view(bits), want_grad.view(bits))
    np.testing.assert_array_equal(untracked.data.view(bits), want_out.view(bits))
    assert untracked.node is None


def test_reduce_fixtures():
    v = Tensor([3.0, 1.0, 4.0, 1.0, 5.0])
    assert T.reduce(v, 0, "max").item() == 5.0
    assert T.reduce(Tensor([2.0, 4.0]), 0, "mean").item() == 3.0
    with pytest.raises(InvalidInputError):
        T.reduce(Tensor(np.zeros((2, 0))), 1, "max")
    with pytest.raises(InvalidInputError):
        T.reduce(v, 0, "median")


def test_reduce_max_tie_breaks_to_lowest_index():
    x = leaf(np.full((1, 4), 2.5))
    T.reduce_sum(T.reduce(x, 1, "max")).backward()
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0, 0.0]])


def test_reduce_max_gradient_is_one_hot_per_slice():
    x = leaf(rand(3, 6, seed=5))
    out = T.reduce(x, 1, "max")
    w = np.array([2.0, -1.0, 3.0])
    T.reduce_sum(T.mul(out, Tensor(w, dtype="f64"))).backward()
    # each row's gradient has a single nonzero equal to the incoming weight
    assert ((x.grad != 0).sum(axis=1) == 1).all()
    np.testing.assert_allclose(x.grad.sum(axis=1), w)


def test_softmax_cross_entropy_fixtures():
    assert abs(T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0]).item()
               - math.log(2.0)) < 1e-6
    # -log(e^3 / (e^1 + e^2 + e^3)), hand-evaluated
    loss = T.softmax_cross_entropy(Tensor([[1.0, 2.0, 3.0]], dtype="f64"), [2])
    assert abs(loss.item() - 0.4076059644443804) < 1e-12
    big = T.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
    assert 0.0 <= big.item() < 1e-6 and math.isfinite(big.item())


def test_softmax_cross_entropy_shift_invariance():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(4, 6))
    labels = rng.integers(0, 6, 4)
    base = T.softmax_cross_entropy(Tensor(z, dtype="f64"), labels).item()
    for c in (-50.0, 3.7, 1e4):
        shifted = T.softmax_cross_entropy(Tensor(z + c, dtype="f64"), labels).item()
        assert abs(shifted - base) < 1e-12


def test_softmax_cross_entropy_guards():
    with pytest.raises(InvalidInputError):
        T.softmax_cross_entropy(Tensor([[0.0, 1.0]]), [2])
    with pytest.raises(ShapeError):
        T.softmax_cross_entropy(Tensor([0.0, 1.0]), [0])
    with pytest.raises(InvalidInputError):
        T.softmax_cross_entropy(Tensor([[0.0, 1.0]]), [0.5])


# ---------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------

def test_reshape_round_trip():
    x = rand(2, 3, 4)
    t = Tensor(x)
    r = T.reshape(T.reshape(t, (4, 6)), (2, 3, 4))
    np.testing.assert_array_equal(r.data, t.data)
    # row-major order of the values is preserved by any reshape
    np.testing.assert_array_equal(T.reshape(t, (6, 4)).data.ravel(), x.ravel())


def test_reshape_errors():
    with pytest.raises(ShapeError):
        T.reshape(Tensor(np.zeros((2, 3))), (4, 4))


def test_concat_and_slice_round_trip():
    a, b = Tensor(rand(2, 3)), Tensor(rand(2, 2, seed=1))
    joined = T.concat([a, b], axis=1)
    assert joined.shape == (2, 5)
    np.testing.assert_array_equal(joined.data[:, :3], a.data)
    np.testing.assert_array_equal(joined.data[:, 3:], b.data)
    with pytest.raises(InvalidInputError):
        T.concat([a, b], axis=2)
    with pytest.raises(UsageError):
        T.concat([a, Tensor(rand(2, 2), dtype="f32")], axis=1)


def edge_linear(x, idx, weight):
    """``pointwise_linear(graph_feature(x, idx), weight)``, (B, C, N) ->
    (B, C_out, N, k), from per-point products, as ``graph.edge_conv`` builds
    its edge responses: the map is linear in [x_j - x_i, x_i], so it equals
    W_a x_j + (W_b - W_a) x_i, one (2 C_out, C) product per point and a
    gather. The reference that ``edge_conv``'s tests normalize and pool."""
    graph._check_points(x, idx, "edge_linear")
    c_out = graph._check_weight(x, weight, "edge_linear")
    n = x.shape[2]
    stacked, per_point = graph._per_point(x, weight)
    out = graph._gather(per_point[:, :c_out], idx.indices)
    out += per_point[:, c_out:, :, None]

    def back(g):
        d_point = np.concatenate(
            [graph._scatter_add(g, idx.indices, n), g.sum(axis=3)], axis=1)
        return graph._per_point_back(d_point, stacked, x)

    return T._make(out, (x, weight), back)


def test_edge_linear_equals_linear_map_of_graph_feature():
    rng = np.random.default_rng(12)
    x, w = rng.normal(size=(2, 3, 6)), rng.normal(size=(4, 6))
    indices = rng.integers(0, 3, size=(2, 6, 4))  # neighbours repeat heavily
    idx = graph.NeighborIndex(indices=indices, k=4, n_points=6)
    got = edge_linear(Tensor(x), idx, Tensor(w)).data
    want = T.pointwise_linear(graph.graph_feature(Tensor(x), idx), Tensor(w)).data
    assert got.shape == (2, 4, 6, 4)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    check_grads(lambda x, w: edge_linear(x, idx, w), [x, w])
    with pytest.raises(ShapeError):
        edge_linear(Tensor(x), idx, Tensor(rng.normal(size=(4, 5))))


def test_dropout_scaling_and_determinism():
    x = Tensor(np.ones((1000,), dtype=np.float32))
    out = T.dropout(x, 0.5, np.random.default_rng(0))
    kept = out.data != 0
    assert np.all(out.data[kept] == 2.0)  # inverted scaling by 1/(1-p)
    assert 400 < kept.sum() < 600
    again = T.dropout(x, 0.5, np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, again.data)
    np.testing.assert_array_equal(T.dropout(x, 0.0, np.random.default_rng(0)).data, x.data)
    with pytest.raises(InvalidInputError):
        T.dropout(x, 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------
# finite-difference oracle, op by op
# ---------------------------------------------------------------------

def test_grad_arithmetic():
    check_grads(lambda a, b: T.add(a, b), [rand(3, 4), rand(3, 4, seed=1)])
    check_grads(lambda a, b: T.mul(a, b), [rand(3, 4), rand(3, 4, seed=1)])


def test_grad_broadcast_arithmetic():
    check_grads(lambda a, b: T.add(a, b), [rand(3, 1), rand(1, 4, seed=1)])
    check_grads(lambda a, b: T.mul(a, b), [rand(2, 3, 4), rand(4, seed=1)])


def test_grad_shape_ops():
    check_grads(lambda a: T.reshape(a, (6, 2)), [rand(3, 4)])
    check_grads(lambda a, b: T.concat([a, b], 1), [rand(2, 3), rand(2, 2, seed=1)])


def test_grad_reductions():
    check_grads(lambda a: T.reduce(a, 1, "max"), [rand(3, 5)])
    check_grads(lambda a: T.reduce(a, 0, "mean"), [rand(3, 5)])
    check_grads(lambda a: T.reduce_sum(a, 1), [rand(3, 5)])
    check_grads(lambda a: T.reduce_sum(a, 0, keepdims=True), [rand(3, 5)])


def test_grad_activations_and_norm():
    x = rand(4, 3)
    x[np.abs(x) < 0.05] += 0.1  # keep clear of the kink
    check_grads(lambda a: T.leaky_relu(a, 0.2), [x])
    check_grads(
        lambda a, g, b: T.batch_norm(a, g, b, None, None, "train", epsilon=1e-5),
        [rand(6, 3, 4), 1.0 + 0.1 * rand(3, seed=1), rand(3, seed=2)],
        rtol=1e-5)
    rm, rv = rand(3, seed=3), 1.0 + 0.1 * np.abs(rand(3, seed=4))
    check_grads(
        lambda a, g, b: T.batch_norm(a, g, b, rm.copy(), rv.copy(), "eval"),
        [rand(6, 3, 4), 1.0 + 0.1 * rand(3, seed=1), rand(3, seed=2)])


def test_grad_pointwise_linear():
    check_grads(lambda x, w, b: T.pointwise_linear(x, w, b),
                [rand(2, 3, 4, 5), rand(6, 3, seed=1), rand(6, seed=2)])
    check_grads(lambda x, w: T.pointwise_linear(x, w),
                [rand(2, 3, 7), rand(4, 3, seed=1)])
    check_grads(lambda x, w, b: T.pointwise_linear(x, w, b),  # rank 2, as in the head
                [rand(5, 3), rand(4, 3, seed=1), rand(4, seed=2)])
    check_grads(lambda x, w, b: T.pointwise_linear(x, w, b),  # B=1, as when streaming
                [rand(1, 3, 7), rand(4, 3, seed=1), rand(4, seed=2)])
    check_grads(lambda x, w: T.pointwise_linear(x, w), [rand(1, 3), rand(4, 3, seed=1)])


@pytest.mark.parametrize("shape", [(5, 6), (1, 6), (3, 6, 7), (1, 6, 7), (3, 6, 4, 5),
                                   (1, 6, 4, 5), (2, 6, 1, 3)])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_pointwise_linear_matches_an_einsum_reference(shape, dtype):
    # one flat GEMM whatever the rank, checked in f64 against the per-position sum
    x, w, b = rand(*shape, seed=3), rand(4, 6, seed=4), rand(4, seed=5)
    xt, wt, bt = (Tensor(v, dtype=dtype, requires_grad=True) for v in (x, w, b))
    out = T.pointwise_linear(xt, wt, bt)
    g = rand(*out.shape, seed=6)
    T.reduce_sum(T.mul(out, Tensor(g, dtype=dtype))).backward()
    xr, gr = x.reshape(shape[0], 6, -1), g.reshape(shape[0], 4, -1)
    tol = dict(rtol=1e-12, atol=1e-12) if dtype == "f64" else dict(rtol=1e-5, atol=1e-5)
    assert out.shape == (shape[0], 4) + shape[2:] and out.data.flags.c_contiguous
    want = np.einsum("oi,big->bog", w, xr) + b[:, None]
    np.testing.assert_allclose(out.data, want.reshape(out.shape), **tol)
    np.testing.assert_allclose(xt.grad, np.einsum("oi,bog->big", w, gr).reshape(shape), **tol)
    np.testing.assert_allclose(wt.grad, np.einsum("bog,big->oi", gr, xr), **tol)
    np.testing.assert_allclose(bt.grad, gr.sum(axis=(0, 2)), **tol)


def test_grad_gather_and_dropout():
    indices = np.random.default_rng(7).integers(0, 6, size=(2, 6, 3))
    idx = graph.NeighborIndex(indices=indices, k=3, n_points=6)
    check_grads(lambda x: graph.graph_feature(x, idx), [rand(2, 4, 6)])
    check_grads(lambda x: T.dropout(x, 0.4, np.random.default_rng(21)), [rand(5, 5)])


def test_grad_softmax_cross_entropy():
    labels = np.array([2, 0, 1])
    check_grads(lambda z: T.softmax_cross_entropy(z, labels), [rand(3, 4)])


def test_grad_fanout_shares_upstream():
    # the same tensor feeding two consumers must accumulate both contributions
    check_grads(lambda a: T.add(T.mul(a, a), T.reshape(a, (3, 3))), [rand(3, 3)])
