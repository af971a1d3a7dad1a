"""Reference ops and the gradient oracle that the tests check the library
against. Not collected by pytest; test modules import it by name.

The library differentiates only what the network trains, so the references
keep the backward passes it no longer has: a reduction over one axis, and
edge features and their 1x1 map, differentiable in the points. Every adjoint
into points here is an ``np.add.at``, sharing no code with the library's
``np.bincount`` scatters. Each reference is itself checked against finite
differences by ``check_grads``.
"""

import numpy as np

from adaptgraph import graph
from adaptgraph import tensor as T
from adaptgraph.errors import InvalidInputError
from adaptgraph.tensor import Tensor


def leaf(arr):
    return Tensor(np.ascontiguousarray(arr, dtype=np.float64), requires_grad=True)


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


def reduce(x, axis, kind):
    """Reduce one axis away. kind 'max' routes the gradient to the winning
    element (lowest index on ties, as ``np.argmax`` picks it); kind 'mean'
    spreads it uniformly."""
    axis = T._check_axis(axis, x.ndim)
    n = x.shape[axis]
    if n == 0:
        raise InvalidInputError(f"cannot reduce empty axis {axis} of shape {x.shape}")
    if kind == "max":
        am = np.expand_dims(np.argmax(x.data, axis=axis), axis)
        out = np.take_along_axis(x.data, am, axis).squeeze(axis)

        def back(g):
            dx = np.zeros_like(x.data)
            np.put_along_axis(dx, am, np.expand_dims(g, axis), axis)
            return (dx,)
    elif kind == "mean":
        out = x.data.mean(axis=axis)

        def back(g):
            scaled = np.expand_dims(g, axis) / np.asarray(n, dtype=g.dtype)
            return (np.broadcast_to(scaled, x.shape),)
    else:
        raise InvalidInputError(f"kind must be 'max' or 'mean', got {kind!r}")
    return T._make(np.ascontiguousarray(out), (x,), back)


def gather(xd, indices):
    """out[b, :, m, j] = xd[b, :, indices[b, m, j]]: (B, C, N) -> (B, C, M, k)."""
    b = xd.shape[0]
    return np.ascontiguousarray(
        xd[np.arange(b)[:, None, None], :, indices].transpose(0, 3, 1, 2))


def scatter_add(g, indices, n):
    """Adjoint of :func:`gather`: (B, C, M, k) -> (B, C, n), adding
    g[b, :, m, j] into point indices[b, m, j] by ``np.add.at``."""
    b, c = g.shape[:2]
    out = np.zeros((b, n, c), dtype=g.dtype)
    np.add.at(out, (np.arange(b)[:, None, None], indices), g.transpose(0, 2, 3, 1))
    return out.transpose(0, 2, 1)


def graph_feature(x, idx):
    """``graph.graph_feature`` differentiable in x: (B, C, N) -> (B, 2C, N, k),
    [x_j - x_i, x_i] per edge. The offsets send their gradient to the
    neighbor j and its negative to the center i; the center channels send
    theirs to i."""
    graph._check_points(x, idx, "graph_feature")
    c = x.shape[1]
    center = x.data[:, :, :, None]
    neighbors = gather(x.data, idx.indices)
    out = np.concatenate([neighbors - center, np.broadcast_to(center, neighbors.shape)],
                         axis=1)

    def back(g):
        d_offset = g[:, :c]
        return (scatter_add(d_offset, idx.indices, x.shape[2])
                + (g[:, c:] - d_offset).sum(axis=3),)

    return T._make(out, (x,), back)


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
    out = gather(per_point[:, :c_out], idx.indices)
    out += per_point[:, c_out:, :, None]

    def back(g):
        d_point = np.concatenate([scatter_add(g, idx.indices, n), g.sum(axis=3)], axis=1)
        return graph._per_point_back(d_point, stacked, x)

    return T._make(out, (x, weight), back)
