"""KNN neighborhoods and edge features for point clouds.

Point sets are (B, C, N): batch, channels, points. The neighbor structure is
computed once per input from pairwise squared distances in factorized form
and reused by every layer that needs graph features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import InvalidInputError, ShapeError
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


def _gather(xd: np.ndarray, index: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """out[b, :, m, j] = xd[b, :, index[b, m, j]]: (B, C, N) -> (B, C, M, k).

    Callers have checked that every index lies in [0, N); mode "clip" then
    changes nothing but lets np.take write ``out`` without buffering."""
    if out is None:
        out = np.empty(xd.shape[:2] + index.shape[1:], dtype=xd.dtype)
    for b in range(xd.shape[0]):
        np.take(xd[b], index[b], axis=1, out=out[b], mode="clip")
    return out


def _scatter_add(g: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of :func:`_gather`: (B, C, M, k) -> (B, C, n), adding
    g[b, :, m, j] into point index[b, m, j].

    A segment sum: edges are sorted by destination point and every run of
    one destination is summed by one np.add.reduceat. The sort index lives
    only for this call, so the forward pass keeps nothing but ``index``.
    """
    b_dim, c = g.shape[:2]
    flat = (index + (np.arange(b_dim, dtype=index.dtype) * n)[:, None, None]).ravel()
    counts = np.bincount(flat, minlength=b_dim * n)
    dest = np.flatnonzero(counts)
    starts = np.zeros(dest.size, dtype=np.intp)
    np.cumsum(counts[dest][:-1], out=starts[1:])
    # (C, E) so each run is contiguous, edges in the order of their destination
    rows = g.reshape(b_dim, c, index.shape[1] * index.shape[2])
    rows = rows.transpose(1, 0, 2).reshape(c, flat.size)
    rows = np.take(rows, np.argsort(flat, kind="stable"), axis=1, mode="clip")
    out = np.zeros((c, b_dim * n), dtype=g.dtype)
    if dest.size:
        out[:, dest] = np.add.reduceat(rows, starts, axis=1)
    return out.reshape(c, b_dim, n).transpose(1, 0, 2)


def pairwise_similarity(x: Tensor) -> Tensor:
    """Negated pairwise squared Euclidean distances.

    Args:
        x: point features, (B, C, N)
    Returns:
        (B, N, N) tensor; entry (i, j) is -||x_i - x_j||^2, so larger means
        closer and the diagonal is 0 (clamped against rounding noise).
    """
    if x.ndim != 3:
        raise ShapeError(f"pairwise_similarity expects (B, C, N), got {x.shape}")
    if x.shape[1] < 1 or x.shape[2] < 1:
        raise InvalidInputError(f"need C >= 1 and N >= 1, got {x.shape}")
    xd = x.data
    sq = (xd ** 2).sum(axis=1)  # (B, N)
    # 2 x_i.x_j - |x_i|^2 - |x_j|^2, built in the (B, N, N) matmul output
    sim = np.matmul(xd.transpose(0, 2, 1), xd)
    sim *= 2.0
    sim -= sq[:, :, None]
    sim -= sq[:, None, :]
    # the factorized form can leak +1e-7 noise above the exact 0 bound
    np.minimum(sim, 0.0, out=sim)
    parents = (x,)

    def back(g):
        gs = g + g.transpose(0, 2, 1)
        # d sim / d x has a 2(x_j - x_i) structure; fold the row/col sums
        dx = 2.0 * (np.matmul(xd, gs) - xd * gs.sum(axis=2)[:, None, :])
        return (dx,)

    return T._make(sim, parents, back)


def knn(x: Tensor, k: int) -> NeighborIndex:
    """Indices of the k nearest points to each point (self included).

    Ties and the point itself resolve to the lowest index. Raises when
    k is larger than the number of points, and InvalidInputError when a
    pairwise distance is not finite; nothing is clamped silently.
    """
    if x.ndim != 3:
        raise ShapeError(f"knn expects (B, C, N), got {x.shape}")
    n = x.shape[2]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= N={n}, got k={k}")
    with T.no_grad():
        sim = pairwise_similarity(x).data
    if not np.isfinite(sim).all():
        raise InvalidInputError("knn needs finite pairwise distances; the points are "
                                "non-finite or too large")
    dist = np.negative(sim, out=sim)
    # the first k columns of a stable argsort (distance-ascending, lowest
    # index first among ties) without sorting whole rows. A partition finds
    # each row's k-th distance v and k columns nearer than or at v; it is
    # right unless it dropped a lower-index column at v for a higher one, so
    # only rows with more columns at v than it kept are redone by the tie rule
    cols = np.argpartition(dist, k - 1, axis=2)[:, :, :k]
    v = np.take_along_axis(dist, cols[:, :, k - 1:k], 2)
    at_v = dist == v
    kept_at_v = (np.take_along_axis(dist, cols, 2) == v).sum(axis=2)
    redo = np.nonzero(at_v.sum(axis=2) > kept_at_v)
    if redo[0].size:
        rows_at_v = at_v[redo]
        short = kept_at_v[redo][:, None]  # columns at v that a row keeps
        keep = rows_at_v & (np.cumsum(rows_at_v, axis=1) <= short)
        keep |= dist[redo] < v[redo]
        cols[redo] = np.nonzero(keep)[1].reshape(-1, k)
    cols.sort(axis=2)
    order = np.argsort(np.take_along_axis(dist, cols, 2), axis=2, kind="stable")
    return NeighborIndex(indices=np.take_along_axis(cols, order, 2), k=k, n_points=n)


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
        x: point features, (B, C, N)
        idx: neighborhood structure over the same N points
    Returns:
        (B, 2C, N, k); channels [0, C) hold x_j - x_i for each neighbor j,
        channels [C, 2C) repeat x_i along the neighbor axis. Backward
        scatter-adds the offset gradient into the neighbors and adds, per
        center, its sum over k of (center gradient - offset gradient).
    """
    _check_points(x, idx, "graph_feature")
    b, c, n = x.shape
    out = np.empty((b, 2 * c, n, idx.k), dtype=x.data.dtype)
    _gather(x.data, idx.indices, out=out[:, :c])
    center = x.data[:, :, :, None]
    out[:, :c] -= center
    out[:, c:] = center

    def back(g):
        d_offset = g[:, :c]
        dx = _scatter_add(d_offset, idx.indices, n)
        dx += (g[:, c:] - d_offset).sum(axis=3)
        return (dx,)

    return T._make(out, (x,), back)


def edge_linear(x: Tensor, idx: NeighborIndex, weight: Tensor) -> Tensor:
    """``pointwise_linear(graph_feature(x, idx), weight)`` without forming
    either edge tensor.

    Args:
        x: point features, (B, C, N)
        idx: neighborhood structure over the same N points
        weight: (C_out, 2C) = [W_a | W_b], acting on [x_j - x_i, x_i]
    Returns:
        (B, C_out, N, k). The map is linear in [x_j - x_i, x_i], so it equals
        W_a x_j + (W_b - W_a) x_i: one (2 C_out, C) product per point, then
        a gather, k times fewer multiply-accumulates than per edge.
    """
    _check_points(x, idx, "edge_linear")
    b, c, n = x.shape
    if weight.ndim != 2 or weight.shape[1] != 2 * c:
        raise ShapeError(f"weight must be (C_out, {2 * c}), got {weight.shape}")
    c_out = weight.shape[0]
    w_a = weight.data[:, :c]
    stacked = np.concatenate([w_a, weight.data[:, c:] - w_a])  # (2 C_out, C)
    per_point = np.matmul(stacked, x.data)  # (B, 2 C_out, N): W_a x, then (W_b - W_a) x
    out = _gather(per_point[:, :c_out], idx.indices)
    out += per_point[:, c_out:, :, None]

    def back(g):
        d_point = np.concatenate(
            [_scatter_add(g, idx.indices, n), g.sum(axis=3)], axis=1)
        dx = np.matmul(stacked.T, d_point)
        d_stacked = np.einsum("bon,bcn->oc", d_point, x.data, optimize=True)
        d_a, d_diff = d_stacked[:c_out], d_stacked[c_out:]
        return dx, np.concatenate([d_a - d_diff, d_diff], axis=1)

    return T._make(out, (x, weight), back)
