"""KNN neighborhoods and edge features for point clouds.

Point sets are (B, C, N): batch, channels, points. The neighbor structure is
computed once per input from pairwise squared distances in factorized form
and reused by every layer that needs graph features.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import InvalidInputError, ShapeError, UsageError
from .tensor import Tensor


@dataclass(frozen=True)
class NeighborIndex:
    """k nearest points per point, distance-ascending.

    indices: (B, N, k) int64, every entry in [0, N). With no exact ties the
    first column is each point's own index (self-distance is zero).
    """
    indices: np.ndarray
    k: int
    n_points: int

    def __post_init__(self):
        idx = self.indices
        if idx.ndim != 3 or idx.shape[2] != self.k or idx.shape[1] != self.n_points:
            raise ShapeError(
                f"indices shape {idx.shape} inconsistent with N={self.n_points}, k={self.k}")
        if not np.issubdtype(idx.dtype, np.integer):
            raise InvalidInputError("indices must be integer-typed")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_points):
            raise InvalidInputError(f"indices must lie in [0, {self.n_points})")

    @cached_property
    def counts(self) -> np.ndarray:
        """(B * N,) int: how many edges read each point, repeats included."""
        b, n, _ = self.indices.shape
        return np.bincount((self.indices + (np.arange(b) * n)[:, None, None]).ravel(),
                           minlength=b * n)

    @cached_property
    def rows(self) -> "NeighborRows":
        """The edges grouped by the point they read, in rows of k slots that a
        point's edges fill in edge order; built once, shared by every stage."""
        b, n, k = self.indices.shape
        flat = (self.indices + (np.arange(b) * n)[:, None, None]).ravel()
        counts = self.counts
        extra = np.maximum(counts - 1, 0) // k  # overflow rows per point
        # edges sorted by point (a small key sorts by radix), ranked within it
        order = np.argsort(flat.astype(np.min_scalar_type(b * n)), kind="stable")
        point = flat[order]
        rank = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
        over_slot = (np.cumsum(extra) - extra + b * n) * k  # a point's first overflow slot
        slots = np.empty_like(flat)
        slots[order] = np.where(rank < k, point * k + rank, over_slot[point] + rank - k)
        return NeighborRows(slots, np.repeat(np.arange(b * n), extra), b * n, k)


@dataclass(frozen=True)
class NeighborRows:
    """Edges grouped by the point they read, in rows of ``width`` slots. Row
    p < ``points`` is point p's first row; a point read by d > width edges
    continues in ceil(d / width) - 1 overflow rows after them, and ``over``
    holds each overflow row's point. ``slots`` (E,) is each edge's flat slot
    in the (rows, width) layout; slots no edge holds are padding."""
    slots: np.ndarray
    over: np.ndarray
    points: int
    width: int

    @cached_property
    def edges(self) -> np.ndarray:
        """(rows * width,) each slot's edge, the inverse of ``slots``; a
        padding slot holds E, one past the last edge."""
        out = np.full((self.points + self.over.size) * self.width, self.slots.size)
        out[self.slots] = np.arange(self.slots.size)
        return out


def _untracked(x: Tensor, op: str) -> None:
    """Raises UsageError when x records a graph: ``op`` has no backward, and
    a gradient dropped without a word would be wrong."""
    if T._recording(x):
        raise UsageError(f"{op} has no backward; call it on an input that records "
                         "no graph, or under no_grad")


def _check_cloud(x: Tensor, op: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{op} expects (B, C, N), got {x.shape}")
    if x.shape[1] < 1 or x.shape[2] < 1:
        raise InvalidInputError(f"need C >= 1 and N >= 1, got {x.shape}")


def _distances(rows: np.ndarray, points: np.ndarray, sq_rows: np.ndarray, sq: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """(items, R, N) squared distances -2 x_i.x_j + |x_i|^2 + |x_j|^2 from
    ``rows`` (items, C, R) to ``points`` (items, C, N), given their squared
    norms, clamped at +0.0 against rounding noise."""
    dist = np.matmul(rows.transpose(0, 2, 1), points, out=out)
    dist *= -2.0
    dist += sq_rows[:, :, None]
    dist += sq[:, None, :]
    return np.maximum(dist, 0.0, out=dist)


def pairwise_similarity(x: Tensor) -> Tensor:
    """Negated pairwise squared Euclidean distances.

    Args:
        x: point features, (B, C, N), recording no graph
    Returns:
        (B, N, N) tensor; entry (i, j) is -||x_i - x_j||^2, so larger means
        closer and the diagonal is 0 (clamped against rounding noise). Each
        entry negates the distance :func:`knn` ranks by, bit for bit.
    """
    _untracked(x, "pairwise_similarity")
    _check_cloud(x, "pairwise_similarity")
    xd = x.data
    sq = (xd ** 2).sum(axis=1)  # (B, N)
    dist = _distances(xd, xd, sq, sq)
    # 0 - d rather than -d, so a zero distance stays a +0.0 similarity
    return T._make(np.subtract(0.0, dist, out=dist), (x,), None)


def knn(x: Tensor, k: int) -> NeighborIndex:
    """Indices of the k nearest points to each point (self included).

    Distance-ascending, the lowest column first among equal distances: the
    first k columns of a stable argsort of each row. Works a ``T._blocks``
    block of rows at a time (whole items while N x N fits a block), so
    nothing of size (B, N, N) is formed. Each (row, column) is one int64
    key, an order code of the distance in the high 32 bits over the column,
    so a partition of a row's keys puts its k nearest first, ties to the
    lowest column by construction. In float32 the code is the distance's
    bits (non-negative floats order as their bits), so the sorted keys are
    the answer. A float64 pattern leaves no room for the column: the code is
    0, 1 or 2 for below, at or above the row's k-th distance, and the k
    nearest are then stable-sorted by distance.

    Raises when k is larger than the number of points, and InvalidInputError
    when a pairwise distance is not finite; nothing is clamped silently.
    """
    _check_cloud(x, "knn")
    b, _, n = x.shape
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= N={n}, got k={k}")
    xd = x.data
    cols = np.empty((b, n, k), dtype=np.int64)
    # the distances of the k nearest, when the code orders them only by column
    near = None if xd.dtype == np.float32 else np.empty((b, n, k), dtype=xd.dtype)
    blocks = T._blocks(b, n, n)
    i, j, r0, r1 = blocks[0] if blocks else (0, 0, 0, 0)  # the largest block
    dist_scratch = np.empty((j - i) * (r1 - r0) * n, dtype=xd.dtype)
    key_scratch = np.empty(dist_scratch.size, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        sq = (xd ** 2).sum(axis=1)
    for i, j, r0, r1 in blocks:
        shape = (j - i, r1 - r0, n)
        size = shape[0] * shape[1] * n
        with np.errstate(over="ignore", invalid="ignore"):
            dist = _distances(xd[i:j, :, r0:r1], xd[i:j], sq[i:j, r0:r1], sq[i:j],
                              out=dist_scratch[:size].reshape(shape))
            finite = np.isfinite(dist.max())  # a NaN max is NaN; the rest are >= 0
        if not finite:
            raise InvalidInputError("knn needs finite pairwise distances; the points are "
                                    "non-finite or too large")
        keys = key_scratch[:size].reshape(shape)
        if near is not None:  # each row's k-th distance v
            values = keys.view(dist.dtype)
            values[...] = dist
            values.partition(k - 1, axis=2)
            v = values[:, :, k - 1:k].copy()
        keys[...] = np.arange(n)  # the column, then the code over the high 32 bits
        code = keys.view(np.int32)[:, :, int(np.little_endian)::2]
        if near is None:
            code[...] = dist.view(np.int32)
        else:  # 0, 1 or 2 for below, at or above v
            np.greater(dist, v, out=code)
            code += dist >= v
        keys.partition(k - 1, axis=2)
        nearest = keys[:, :, :k]
        nearest.sort(axis=2)
        block = cols[i:j, r0:r1]
        np.bitwise_and(nearest, 0xFFFFFFFF, out=block)
        if near is not None:
            near[i:j, r0:r1] = np.take_along_axis(dist, block, 2)
    if near is not None:
        cols = np.take_along_axis(cols, np.argsort(near, axis=2, kind="stable"), 2)
    return NeighborIndex(indices=cols, k=k, n_points=n)


def _check_points(x: Tensor, idx: NeighborIndex, op: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{op} expects (B, C, N), got {x.shape}")
    b, _, n = x.shape
    if idx.n_points != n:
        raise InvalidInputError(
            f"neighbor index built for N={idx.n_points}, input has N={n}")
    if idx.indices.shape[0] != b:
        raise ShapeError(
            f"neighbor index batch {idx.indices.shape[0]} != input batch {b}")


def graph_feature(x: Tensor, idx: NeighborIndex) -> Tensor:
    """Concatenated edge features: offsets to neighbors plus the center point.

    Args:
        x: point features, (B, C, N), recording no graph: the network applies
            this once, to its raw input
        idx: neighborhood structure over the same N points
    Returns:
        (B, 2C, N, k); channels [0, C) hold x_j - x_i for each neighbor j,
        channels [C, 2C) repeat x_i along the neighbor axis. The stages that
        filter edge features of learned points (``edge_conv``, the adaptive
        kernels' point form) never form them, so nothing differentiates
        this op.
    """
    _untracked(x, "graph_feature")
    _check_points(x, idx, "graph_feature")
    b, c, n = x.shape
    out = np.empty((b, 2 * c, n, idx.k), dtype=x.data.dtype)
    for i in range(b):
        # every index lies in [0, N), so mode "clip" changes nothing but lets
        # np.take write into out without buffering
        np.take(x.data[i], idx.indices[i], axis=1, out=out[i, :c], mode="clip")
    center = x.data[:, :, :, None]
    out[:, :c] -= center
    out[:, c:] = center
    return T._make(out, (x,), None)


def _check_weight(x: Tensor, weight: Tensor, op: str) -> int:
    """Checks a (C_out, 2C) weight on the edge features of x; returns C_out."""
    if weight.ndim != 2 or weight.shape[1] != 2 * x.shape[1]:
        raise ShapeError(f"weight must be (C_out, {2 * x.shape[1]}), got {weight.shape}")
    if weight.dtype != x.dtype:
        raise UsageError(f"{op}: dtype mismatch: {x.dtype} vs {weight.dtype}")
    return weight.shape[0]


def _stacked(weight: np.ndarray) -> np.ndarray:
    """[W_a; W_b - W_a], (2 C_out, C), of a (C_out, 2C) weight [W_a | W_b]."""
    c = weight.shape[1] // 2
    w_a = weight[:, :c]
    return np.concatenate([w_a, weight[:, c:] - w_a])


def _per_point(x: Tensor, weight: Tensor, stacked: Optional[np.ndarray] = None):
    """Returns (stacked, per_point): stacked = :func:`_stacked` of the
    weight unless given, and per_point = stacked x, (B, 2 C_out, N), whose
    first C_out channels are W_a x and the rest (W_b - W_a) x. One GEMM on
    x's channel-major columns, as in ``T.pointwise_linear``."""
    b, _, n = x.shape
    if stacked is None:
        stacked = _stacked(weight.data)
    return stacked, T._uncolumns(stacked @ T._columns(x.data), (b, stacked.shape[0], n))


def _per_point_back(d_point: np.ndarray, stacked: np.ndarray, x: Tensor):
    """(dx, dW) from the gradient of :func:`_per_point`'s per_point, one GEMM
    each."""
    c_out = stacked.shape[0] // 2
    gm = T._columns(d_point)
    dx = T._uncolumns(stacked.T @ gm, x.shape)
    d_stacked = gm @ T._columns(x.data).T
    d_a, d_diff = d_stacked[:c_out], d_stacked[c_out:]
    return dx, np.concatenate([d_a - d_diff, d_diff], axis=1)


def _adjacency_products(pc: np.ndarray, cc: np.ndarray, nbrs: np.ndarray):
    """Per batch item, (pc A^T, cc A): (B, C, N) twice -> (B, C, N) twice.

    A[b, i, m] counts m among point i's neighbors nbrs[b, i], repeats
    included, so pc A^T sums each point's neighbors' columns and cc A adds
    each point's column into its neighbors. Each ``T._blocks`` block of
    source points i is counted once, by one np.bincount of its flat
    positions, and serves both products.
    """
    b, _, n = pc.shape
    gathered, scattered = np.empty_like(pc), np.zeros_like(cc)
    for i, j, r0, r1 in T._blocks(b, n, n):
        rows = r1 - r0
        pos = ((np.arange(j - i)[:, None, None] * rows + np.arange(rows)[None, :, None]) * n
               + nbrs[i:j, r0:r1])
        adj = np.bincount(pos.ravel(), minlength=(j - i) * rows * n).astype(pc.dtype)
        adj = adj.reshape(j - i, rows, n)  # A's block
        gathered[i:j, :, r0:r1] = pc[i:j] @ adj.transpose(0, 2, 1)
        scattered[i:j] += cc[i:j, :, r0:r1] @ adj
    return gathered, scattered


def _edge_moments(p: np.ndarray, c: np.ndarray, idx: NeighborIndex):
    """Batch mean and biased variance, summed in float64, of every edge's
    z = P[m] + C[i] from the per-point P and C, (B, C_out, N), and the
    gradient terms of those moments.

    With the means of P over edges and of C over points taken out,
    z - mu = P'[m] + C'[i], so the squared deviations sum to
    sum_m cnt[m] P'[m]^2 + sum_i C'[i] (2 (A P')[i] + k C'[i]), where cnt
    counts each point's appearances as a neighbor (``idx.counts``) and A P'
    sums P' over each point's neighbors (:func:`_adjacency_products`).
    Returns ((mean, variance), (cnt, U, V)), the terms in P's dtype, cnt as
    (B, 1, N): the edges' gradient a (z - mu) + b per channel reaches P as
    a U + b cnt, with U = cnt P' + C' A, and C as a V + k b, with
    V = A P' + k C'.
    """
    b, _, n = p.shape
    k = idx.k
    m = idx.indices.size
    cnt = idx.counts.reshape(b, 1, n).astype(np.float64)
    mean_p = np.einsum("bon,bzn->o", p, cnt) / m
    mean_c = np.einsum("bon->o", c, dtype=np.float64) / (b * n)
    pc = p - mean_p[:, None]
    ssq = np.einsum("bon,bon,bzn->o", pc, pc, cnt)
    pc = pc.astype(p.dtype)
    cc = (c - mean_c[:, None]).astype(p.dtype)
    apc, cca = _adjacency_products(pc, cc, idx.indices)
    ssq += np.einsum("bon,bon->o", cc, 2 * apc + k * cc, dtype=np.float64)
    cnt = cnt.astype(p.dtype)
    return (mean_p + mean_c, ssq / m), (cnt, cnt * pc + cca, apc + k * cc)


def _neighbor_max(p: np.ndarray, c: np.ndarray, nbrs: np.ndarray, scale: np.ndarray,
                  recording: bool):
    """Each point's winning z = P[m] + C[i] per channel, the first edge
    that holds the max of z * sign(scale), from the per-point P and C,
    (B, C_out, N), and the neighbors nbrs, (B, N, k).

    ``T._blocked_winners`` of the neighbors' rows of a point-major
    P * sign(scale); a zero scale takes edge 0. Rounded P[m] + C[i] never
    decreases in P[m], so the signed z's max is the signed P's max plus the
    signed C, added to every edge only when ``recording`` needs the winning
    edge. Returns (winners, keys): winners (B, C_out, N) and, when
    ``recording``, each winner's (b, channel, neighbor) as a flat index
    (otherwise None).
    """
    b, c_out, n = p.shape
    k = nbrs.shape[2]
    sign = np.sign(scale).astype(p.dtype)
    p_rows, c_rows = (np.ascontiguousarray(h.transpose(0, 2, 1)).reshape(b * n, c_out)
                      for h in (p, c))
    signed, c_signed = p_rows * sign, c_rows * sign
    rows = nbrs.reshape(b * n, k) + np.repeat(np.arange(b) * n, n)[:, None]

    def fill(block, lo, hi):
        np.take(signed, rows[lo:hi].T, axis=0, out=block, mode="clip")
        if recording:
            block += c_signed[lo:hi]  # every edge's signed z

    best, edge = T._blocked_winners(fill, b * n, c_out, k, p.dtype, recording)
    if not recording:
        best += c_signed
    best *= sign
    zero = np.flatnonzero(sign == 0)
    best[:, zero] = p_rows[rows[:, :1], zero] + c_rows[:, zero]
    winners = np.ascontiguousarray(best.reshape(b, n, c_out).transpose(0, 2, 1))
    if not recording:
        return winners, None
    edge += (np.arange(b * n) * k)[:, None]
    keys = np.ascontiguousarray(np.take(nbrs, edge).reshape(b, n, c_out).transpose(0, 2, 1))
    keys += (np.arange(b * c_out) * n).reshape(b, c_out, 1)
    return winners, keys


def edge_conv(x: Tensor, idx: NeighborIndex, weight: Tensor, gamma: Tensor, beta: Tensor,
              running_mean: Optional[np.ndarray], running_var: Optional[np.ndarray],
              mode: str, slope: float = 0.2, momentum: float = 0.1,
              epsilon: float = 1e-5, norm: Optional[tuple] = None,
              stacked: Optional[np.ndarray] = None) -> Tensor:
    """An EdgeConv stage: the max over neighbors of leaky relu of batch norm
    of ``T.pointwise_linear(graph_feature(x, idx), weight)``, no edge array.

    Args:
        x: point features, (B, C, N)
        idx: neighborhood structure over the same N points
        weight: (C_out, 2C) = [W_a | W_b], acting on [x_j - x_i, x_i]
        gamma, beta, running_mean, running_var, mode, momentum, epsilon, norm:
            the stage's batch norm over C_out channels, as in ``T.batch_norm``
        stacked: :func:`_stacked` of the weight when the caller holds it
    Returns:
        (B, C_out, N), bit for bit for finite values. Edge (i, j) responds
        z = P[m] + C[i] to its neighbor m, with per-point products P = W_a x
        and C = (W_b - W_a) x. Batch norm then leaky relu is monotone per
        channel, so each point's winner is a blocked max of the gathered P
        (:func:`_neighbor_max`), and train-mode statistics and their
        gradient come from sums over points (:func:`_edge_moments`); the gradient
        at each winner goes to its neighbor by one bincount.
    """
    _check_points(x, idx, "edge_conv")
    c_out = _check_weight(x, weight, "edge_conv")
    b, _, n = x.shape
    T._check_norm(c_out, gamma, beta, mode, epsilon, b * n)
    dt = x.data.dtype
    s = T._leaky_slope(slope, dt)
    k = idx.k
    if k == 0:
        raise InvalidInputError("edge_conv needs k >= 1 neighbors")
    parents = (x, weight, gamma, beta)
    recording = T._recording(*parents)
    stacked, per_point = _per_point(x, weight, stacked)
    p, c = per_point[:, :c_out], per_point[:, c_out:]
    moments = terms = None
    if mode == "train":
        moments, terms = _edge_moments(p, c, idx)
    mu, ivar, scale = norm or T._norm_scale(moments, gamma, running_mean, running_var, mode,
                                            momentum, epsilon, dt)
    winners, keys = _neighbor_max(p, c, idx.indices, scale, recording)
    centred, z, out = T._activate_winners(winners, mu, scale, beta, s)
    if not recording:
        return T._make(out, parents, None)
    neg_mask = z < 0

    def back(g):
        routed, a, bias, dgamma, dbeta = T._pooled_grads(
            g, neg_mask, s, centred, ivar, scale, b * n * k if mode == "train" else None)
        d_point = np.empty((b, 2 * c_out, n), dtype=dt)
        d_p, d_c = d_point[:, :c_out], d_point[:, c_out:]
        d_p[...] = np.bincount(keys.ravel(), weights=routed.ravel(),
                               minlength=keys.size).reshape(routed.shape)
        d_c[...] = routed
        if a is not None:
            cnt, u, v = terms
            a, bias = a.astype(dt).reshape(1, c_out, 1), bias.astype(dt).reshape(1, c_out, 1)
            d_p += a * u + bias * cnt
            d_c += a * v + k * bias
        dx, dw = _per_point_back(d_point, stacked, x)
        return dx, dw, dgamma.astype(dt), dbeta.astype(dt)

    return T._make(out, parents, back)
