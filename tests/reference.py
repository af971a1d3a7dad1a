"""Reference ops and the gradient oracle that the tests check the library
against. Not collected by pytest; test modules import it by name.

The library differentiates only what the network trains, so the references
keep the backward passes it no longer has: a reduction over one axis, and
edge features and their 1x1 map, differentiable in the points. They also
keep the ops the library fused away: the formed edge responses of an
adaptive stage and the batch norm, leaky relu and max over them. Every adjoint
into points here is an ``np.add.at``, sharing no code with the library's
``np.bincount`` scatters. Each reference is itself checked against finite
differences by ``check_grads``.
"""

import numpy as np

from adaptgraph import graph, kernels
from adaptgraph import tensor as T
from adaptgraph.errors import InvalidInputError, ShapeError
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


def _winning_values(xd, scale, recording):
    """Each point's winning edge, as :func:`batch_norm_leaky_max` routes it:
    (B, C, N, k) -> (B, C, N) values and, when ``recording``, flat indices
    into x. ``T._blocked_winners`` of the rows of x * sign(scale) (a plain
    copy when every scale is positive); a zero scale takes edge 0."""
    b_dim, c, n, k = xd.shape
    rows = xd.reshape(-1, k)
    sign = np.sign(scale).astype(xd.dtype)
    row_sign = None if (sign > 0).all() else np.repeat(np.tile(sign, b_dim), n)

    def fill(block, lo, hi):
        block = block.reshape(k, hi - lo)
        if row_sign is None:
            np.copyto(block, rows[lo:hi].T)
        else:
            np.multiply(rows[lo:hi].T, row_sign[lo:hi], out=block)

    picked, edge = T._blocked_winners(fill, rows.shape[0], 1, k, xd.dtype, recording)
    picked = picked.reshape(b_dim, c, n)
    if row_sign is not None:
        picked *= sign.reshape(1, c, 1)
        picked[:, sign == 0] = xd[..., 0][:, sign == 0]
    if edge is not None:
        edge = edge.reshape(-1) + np.arange(0, xd.size, k)
    return picked, edge


def batch_norm_leaky_max(x, gamma, beta, running_mean, running_var, mode, slope=0.2,
                         momentum=0.1, epsilon=1e-5, shift=None):
    """The max over the neighbor axis of ``leaky_relu(batch_norm(x, ...),
    slope)`` of a formed (B, C, N, k) tensor, bit for bit for finite x, as
    one op: the statistics come from every edge, two-pass (mean, then the
    centred squares), and only the winning edges (:func:`_winning_values`)
    are normalized and activated. A (C,) ``shift`` normalizes x + shift
    without forming it. The reference the adaptive stages' one-pass op is
    checked against, composed with :func:`contract`."""
    if x.ndim != 4:
        raise ShapeError(f"batch_norm_leaky_max expects (B, C, N, k), got {x.shape}")
    xd = x.data
    dt = xd.dtype
    s = T._leaky_slope(slope, dt)
    _, c, _, k = x.shape
    if k == 0:
        raise InvalidInputError(f"cannot reduce empty axis 3 of shape {x.shape}")
    m = xd.size // c if c else 0
    T._check_norm(c, gamma, beta, mode, epsilon, m)
    if shift is not None and shift.shape != (c,):
        raise ShapeError(f"shift must be ({c},), got {shift.shape}")
    moments = None
    if mode == "train":
        x3 = xd.reshape(x.shape[0], c, -1)
        mu = (T._channel_sums(x3) / m).astype(dt)
        moments = (mu, T._channel_sums(np.square(x3 - mu.reshape(1, c, 1))) / m)
    mu, ivar, scale = T._norm_scale(moments, gamma, running_mean, running_var, mode,
                                    momentum, epsilon, dt,
                                    None if shift is None else shift.data)
    parents = (x, gamma, beta) if shift is None else (x, gamma, beta, shift)
    recording = T._recording(*parents)
    picked, winners = _winning_values(xd, scale, recording)
    centred, z, out = T._activate_winners(picked, mu, scale, beta, s)
    if not recording:
        return T._make(out, parents, None)
    neg_mask = z < 0

    def back(g):
        routed, a, b, dgamma, dbeta = T._pooled_grads(
            g, neg_mask, s, centred, ivar, scale, m if mode == "train" else None)
        if a is None:
            dx = np.zeros_like(xd)
        else:
            # every edge feeds the statistics: a * (x - mu) + b is affine in x
            dx = xd * a.astype(dt).reshape(1, c, 1, 1)
            dx += (b - a * mu).astype(dt).reshape(1, c, 1, 1)
        dx.reshape(-1)[winners] += routed.ravel()
        grads = (dx, dgamma.astype(dt), dbeta.astype(dt))
        if shift is not None:  # train mode's batch mean removes the shift
            grads += (np.zeros_like(shift.data) if mode == "train"
                      else (dbeta * scale).astype(dt),)
        return grads

    return T._make(out, parents, back)


def contract(responses):
    """The (B, C_out, N, k) edge responses that ``responses``
    (``kernels.EdgeResponses``) describes, formed, differentiable in its
    coefficients, features and basis: every block of the library's
    contraction written out, and its backward fed the output gradient."""
    plan = kernels._Contraction(responses.coeffs, responses.x, responses.basis, responses.idx)
    b, c_out, n, k = plan.shape
    em, y1, _ = plan.responses()
    for lo, hi, _, _ in T._blocks(b * n, 1, k * c_out):
        plan.block(em, y1, lo, hi)
    out = np.ascontiguousarray(em[:-1].reshape(b, n * k, c_out).transpose(0, 2, 1))

    def back(g):
        g_em = g.reshape(b, c_out, n * k).transpose(0, 2, 1).reshape(-1, c_out)

        def to_grad(blk, lo, hi):
            blk[...] = g_em[lo * k:hi * k].reshape(blk.shape)

        return plan.backward(to_grad)

    return T._make(out.reshape(plan.shape), (plan.coeffs, plan.x, plan.basis), back)


class Formed:
    """Edge responses held as a formed (B, C_out, N, k) tensor and pooled,
    as ``kernels.EdgeResponses`` pools its own, by
    :func:`batch_norm_leaky_max`: over each point's k edges, or, for edge
    features (``per_edge``), over one-edge neighbourhoods. Stands in for
    ``apply_heads``' result."""

    def __init__(self, edges, per_edge):
        self.edges, self.per_edge, self.shape = edges, per_edge, edges.shape

    def norm_leaky_max(self, *state, slope, momentum, epsilon, shift):
        x = self.edges
        if self.per_edge:
            b, c, n, k = x.shape
            x = T.reshape(x, (b, c, n * k, 1))
        out = batch_norm_leaky_max(x, *state, slope=slope, momentum=momentum,
                                   epsilon=epsilon, shift=shift)
        return T.reshape(out, self.shape) if self.per_edge else out


def composed(responses):
    """The composition the adaptive stages' one op replaced: the responses
    formed by :func:`contract`, then pooled by :func:`batch_norm_leaky_max`."""
    return Formed(contract(responses), responses.idx is None)
