"""Minimal numpy-backed tensors with reverse-mode automatic differentiation.

Just enough machinery for point-cloud networks: per-position affine maps,
batch norm, leaky relu, the two fused with a max over neighbors, the
embedding head's map, norm, activation and max+mean over points as one op,
axis reductions, dropout and a stable softmax cross entropy. Neighbor
gathers live in :mod:`graph`. Every differentiable op builds a closure-based
graph node; ``backward`` walks the graph once in reverse topological order.

Shapes follow the (B, C, ...) convention used throughout the package: batch
first, channels second, grid axes last. dtype is tagged "f32" or "f64"; f64
exists so gradient checks can run at full precision.
"""

from __future__ import annotations

import contextlib
import math
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, ShapeError, UsageError

_DTYPES = {"f32": np.float32, "f64": np.float64}
_TAGS = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """One step of the computation graph: parent tensors plus a closure that
    maps the output gradient to a tuple of parent gradients (None = skip)."""

    __slots__ = ("parents", "backward_fn")

    def __init__(self, parents, backward_fn):
        self.parents = parents
        self.backward_fn = backward_fn


class Tensor:
    """A row-major numeric buffer with optional gradient tracking.

    The underlying array is treated as immutable once wrapped; ops return new
    tensors. ``grad`` is a plain ndarray, populated by :func:`backward` for
    leaves with ``requires_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, dtype: Optional[str] = None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is None:
            tag = _TAGS.get(arr.dtype, "f32")
        else:
            if dtype not in _DTYPES:
                raise InvalidInputError(f"unknown dtype tag {dtype!r}, expected 'f32' or 'f64'")
            tag = dtype
        self.data = np.ascontiguousarray(arr, dtype=_DTYPES[tag])
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[_Node] = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> str:
        return _TAGS[self.data.dtype]

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Read-only view of the underlying buffer."""
        v = self.data.view()
        v.flags.writeable = False
        return v

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


def _wrap(other, like: Tensor) -> Tensor:
    if isinstance(other, Tensor):
        if other.dtype != like.dtype:
            raise UsageError(f"dtype mismatch: {like.dtype} vs {other.dtype}")
        return other
    return Tensor(np.asarray(other), dtype=like.dtype)


def _recording(*parents: Tensor) -> bool:
    """True when an op on ``parents`` records a graph node. Ops build state
    that only their backward needs (masks, argmax indices) only then."""
    return _grad_enabled and any(p.requires_grad or p.node is not None for p in parents)


def _make(data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out.node = None
    if _recording(*parents):
        out.node = _Node(tuple(parents), backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the original operand shape after broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------

def add(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a, b = b, a
    b = _wrap(b, a)
    data = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), back)


def mul(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a, b = b, a
    b = _wrap(b, a)
    data = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), back)


# ---------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}: {e}") from None

    def back(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), back)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise InvalidInputError("concat needs at least one tensor")
    first = tensors[0]
    axis = _check_axis(axis, first.ndim)
    for t in tensors[1:]:
        if t.dtype != first.dtype:
            raise UsageError("concat requires matching dtypes")
        if t.ndim != first.ndim:
            raise ShapeError(f"concat rank mismatch: {first.shape} vs {t.shape}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        out = []
        sl = [slice(None)] * g.ndim
        for i in range(len(sizes)):
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            out.append(g[tuple(sl)])
        return tuple(out)

    return _make(data, tuple(tensors), back)


def _check_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise InvalidInputError(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


# ---------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------

def _columns(a: np.ndarray) -> np.ndarray:
    """(B, C, *grid) -> (C, B * G): channel-major columns, one per batch item
    and grid cell. A view when B == 1 or G == 1, otherwise one copy."""
    b_dim, c = a.shape[:2]
    g = math.prod(a.shape[2:])
    return a.reshape(b_dim, c, g).transpose(1, 0, 2).reshape(c, b_dim * g)


def _uncolumns(m: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of :func:`_columns`: (C, B * G) -> a C-ordered (B, C, *grid)
    array of ``shape``; no copy when B == 1."""
    b_dim, c = shape[:2]
    g = math.prod(shape[2:])
    return np.ascontiguousarray(m.reshape(c, b_dim, g).transpose(1, 0, 2)).reshape(shape)


def pointwise_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Per-position affine map over the channel axis.

    x: (B, C_in, *grid), weight: (C_out, C_in), bias: (C_out) or None.
    Returns (B, C_out, *grid). Equivalent to a 1x1 convolution over the grid.
    Whatever the rank, forward is one GEMM on x's channel-major columns
    (:func:`_columns`), and backward one GEMM each for dx and the weight.
    """
    if x.ndim < 2:
        raise ShapeError(f"pointwise_linear input needs rank >= 2, got {x.shape}")
    if weight.ndim != 2:
        raise ShapeError(f"weight must be (C_out, C_in), got {weight.shape}")
    b_dim, c_in = x.shape[0], x.shape[1]
    c_out, c_in_w = weight.shape
    if c_in != c_in_w:
        raise ShapeError(
            f"channel mismatch: input has {c_in} channels, weight expects {c_in_w}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"bias must be ({c_out},), got {bias.shape}")
    xm = _columns(x.data)
    out = weight.data @ xm  # (C_out, B * G)
    if bias is not None:
        out += bias.data[:, None]
    out = _uncolumns(out, (b_dim, c_out) + x.shape[2:])

    parents = (x, weight) if bias is None else (x, weight, bias)

    def back(g):
        gm = _columns(g)
        dx = _uncolumns(weight.data.T @ gm, x.shape)
        dw = gm @ xm.T
        if bias is None:
            return dx, dw
        return dx, dw, gm.sum(axis=1)

    return _make(out, parents, back)


# ---------------------------------------------------------------------
# normalization / activation
# ---------------------------------------------------------------------

def _channel_sums(a: np.ndarray) -> np.ndarray:
    """Per-channel float64 sums of a (B, C, G) array.

    numpy sums each contiguous G row pairwise in the input dtype; the B
    partial sums are then added in float64. A reduction over axes (0, 2) would
    add the B rows in the input dtype, so this is at least as accurate."""
    return a.sum(axis=2).sum(axis=0, dtype=np.float64)


def _check_norm(c: int, gamma: Tensor, beta: Tensor, mode: str, epsilon: float,
                m: int) -> None:
    """Argument checks shared by every batch-norm op over C channels whose
    batch statistics take m values per channel."""
    if mode not in ("train", "eval"):
        raise InvalidInputError(f"mode must be 'train' or 'eval', got {mode!r}")
    if epsilon <= 0:
        raise InvalidInputError(f"epsilon must be > 0, got {epsilon}")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must be ({c},), got {gamma.shape} and {beta.shape}")
    if mode == "train" and m == 0:
        raise InvalidInputError("batch_norm in train mode needs a non-empty batch")


def _norm_scale(moments, gamma: Tensor, running_mean: Optional[np.ndarray],
                running_var: Optional[np.ndarray], mode: str, momentum: float,
                epsilon: float, dt, shift: Optional[np.ndarray] = None):
    """Per-channel (mu, ivar, scale) of a batch norm in dtype ``dt``.

    Train mode takes ``moments`` = (mean, biased variance) of the batch,
    rounds them to dt and updates the running buffers in place by exponential
    moving average; eval mode reads the running buffers and ignores
    ``moments``. ivar = 1 / sqrt(var + epsilon) and scale = gamma * ivar.

    ``shift`` is a per-channel constant the input stands for but does not
    hold, (C,) or None. A batch mean would remove it, so train mode's mu is
    unchanged and only the running mean records mean + shift; eval mode
    returns mu = running mean - shift.
    """
    if mode == "train":
        mean, var = (np.asarray(v) for v in moments)
        mu, var = mean.astype(dt), var.astype(dt)
        if running_mean is not None:
            running_mean *= 1.0 - momentum
            recorded = mu if shift is None else mean + shift
            running_mean += momentum * recorded.astype(running_mean.dtype)
        if running_var is not None:
            running_var *= 1.0 - momentum
            running_var += momentum * var.astype(running_var.dtype)
    else:
        if running_mean is None or running_var is None:
            raise InvalidInputError("batch_norm in eval mode needs populated running stats")
        mu = np.asarray(running_mean, dtype=dt)
        var = np.asarray(running_var, dtype=dt)
        if shift is not None:
            mu = mu - shift
    ivar = 1.0 / np.sqrt(var + np.asarray(epsilon, dtype=dt))
    return mu, ivar, gamma.data * ivar


def _norm_stats(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: Optional[np.ndarray], running_var: Optional[np.ndarray],
                mode: str, momentum: float, epsilon: float, keep_centred: bool,
                shift: Optional[Tensor]):
    """Checks and per-channel statistics shared by :func:`batch_norm` and
    :func:`batch_norm_leaky_max`.

    Returns (x3, mu, ivar, scale, centred, spare). x3 is x as a (B, C, G)
    view, so every per-channel statistic is a sum over its outer and inner
    axes; mu, ivar and scale are as :func:`_norm_scale` returns them, from
    the batch (biased variance) in train mode. With ``keep_centred`` train
    mode also returns centred = x3 - mu and the squared deviations, a spare
    array the caller may reuse; otherwise the deviations are squared in
    place and both are None, as they are in eval mode. ``shift`` is passed
    to :func:`_norm_scale`.
    """
    if x.ndim < 2:
        raise ShapeError(f"batch_norm input needs rank >= 2, got {x.shape}")
    c = x.shape[1]
    m = x.size // c if c else 0
    _check_norm(c, gamma, beta, mode, epsilon, m)
    if shift is not None and shift.shape != (c,):
        raise ShapeError(f"shift must be ({c},), got {shift.shape}")
    xd = x.data
    dt = xd.dtype
    x3 = xd.reshape(x.shape[0], c, int(np.prod(x.shape[2:], dtype=np.int64)))
    centred = spare = moments = None
    if mode == "train":
        mu = (_channel_sums(x3) / m).astype(dt)
        centred = x3 - mu.reshape(1, c, 1)
        spare = np.square(centred, out=None if keep_centred else centred)
        moments = (mu, _channel_sums(spare) / m)
        if not keep_centred:
            centred = spare = None
    mu, ivar, scale = _norm_scale(moments, gamma, running_mean, running_var, mode,
                                  momentum, epsilon, dt, None if shift is None else shift.data)
    return x3, mu, ivar, scale, centred, spare


def _shift_grad(grads: tuple, shift: Optional[Tensor], mode: str, dbeta: np.ndarray,
                scale: np.ndarray) -> tuple:
    """``grads`` plus, with a shift, its gradient: zero in train mode, where
    the batch mean removes it, and the input's channel sums, dbeta * scale,
    in eval mode."""
    if shift is None:
        return grads
    if mode == "train":
        return grads + (np.zeros_like(shift.data),)
    return grads + ((dbeta * scale).astype(shift.data.dtype),)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: Optional[np.ndarray], running_var: Optional[np.ndarray],
               mode: str, momentum: float = 0.1, epsilon: float = 1e-5) -> Tensor:
    """Channel-wise batch normalization over all non-channel axes.

    Train mode uses batch statistics (biased variance) and updates the running
    buffers in place by exponential moving average. Eval mode normalizes with
    the running buffers. gamma/beta then scale and shift per channel.
    """
    x3, mu, ivar, scale, centred, out = _norm_stats(
        x, gamma, beta, running_mean, running_var, mode, momentum, epsilon, True, None)
    dt = x3.dtype
    m = x3.size // x3.shape[1] if x3.shape[1] else 0
    cshape = (1, x3.shape[1], 1)
    if centred is None:
        centred = x3 - mu.reshape(cshape)
        out = np.empty_like(centred) if _recording(x, gamma, beta) else centred

    # xhat = centred * ivar is never formed: ivar folds into per-channel
    # factors here and in the backward pass, which keeps only ``centred``
    scale = scale.reshape(cshape)
    np.multiply(centred, scale, out=out)  # the variance's spare array in train mode
    out += beta.data.reshape(cshape)

    def back(g):
        g3 = g.reshape(centred.shape)
        dbeta = _channel_sums(g3)
        dx = np.multiply(g3, centred)
        dgamma = _channel_sums(dx) * ivar  # sum of g * xhat
        if mode == "train":
            # fused per-channel form of d/dx through the batch statistics:
            # gamma * ivar * (g - dbeta / m - xhat * dgamma / m)
            np.multiply(centred, (-dgamma * ivar / m).astype(dt).reshape(cshape), out=dx)
            dx += g3
            dx += (-dbeta / m).astype(dt).reshape(cshape)
            dx *= scale
        else:
            np.multiply(g3, scale, out=dx)
        return dx.reshape(x.shape), dgamma.astype(dt), dbeta.astype(dt)

    return _make(out.reshape(x.shape), (x, gamma, beta), back)


def _leaky_slope(slope: float, dtype) -> np.ndarray:
    if not 0 <= slope < 1:
        raise InvalidInputError(f"slope must be in [0, 1), got {slope}")
    return np.asarray(slope, dtype=dtype)


def _leaky(xd: np.ndarray, s: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward of :func:`leaky_relu` on an array, into ``out`` (which may be
    xd) or a new array; s is the slope in its dtype."""
    if s:
        scaled = xd * s
        return np.maximum(xd, scaled, out=scaled if out is None else out)
    return np.multiply(xd, xd >= 0, out=out)


def _leaky_grad(neg_mask: np.ndarray, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g times the leaky relu's derivative: slope where the input was < 0, else 1."""
    factor = neg_mask * s
    factor += ~neg_mask
    factor *= g
    return factor


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """x if x >= 0 else slope * x; the point x == 0 takes the positive branch.

    Computed branch-free and bit for bit equal to that select: for
    0 < slope < 1, slope * x >= x exactly when x < 0, so max(x, slope * x)
    picks the branch. At slope 0 the max would turn +inf * 0 = nan into the
    result, so there x is multiplied by its 0/1 sign mask instead.
    """
    xd = x.data
    s = _leaky_slope(slope, xd.dtype)
    out = _leaky(xd, s)
    if not _recording(x):
        return _make(out, (x,), None)
    neg_mask = xd < 0
    return _make(out, (x,), lambda g: (_leaky_grad(neg_mask, s, g),))


# Values per block of every blocked loop (:func:`_blocks`): about 256 KB in
# f32, small enough to stay in cache.
_MAX_BLOCK_VALUES = 1 << 16


def _blocks(items: int, points: int, unit: int) -> list:
    """(i, j, lo, hi) blocks that tile items x points, ``unit`` values per
    point, in order: about ``_MAX_BLOCK_VALUES`` values each, as items
    [i, j) whole when one item fits, else runs [lo, hi) of item i's points
    (j = i + 1), one point at least. With unit 0 one block holds them all."""
    if items == 0 or points == 0:
        return []
    per = max(1, _MAX_BLOCK_VALUES // unit) if unit else items * points
    if per >= points:
        step = per // points
        return [(i, min(i + step, items), 0, points) for i in range(0, items, step)]
    return [(i, i + 1, lo, min(lo + per, points))
            for i in range(items) for lo in range(0, points, per)]


def _blocked_winners(fill, groups: int, width: int, k: int, dtype, recording: bool):
    """Max over axis 0 of a (k, groups, width) array that ``fill(block, lo,
    hi)`` writes for groups [lo, hi), a :func:`_blocks` block at a time, so
    the k - 1 elementwise passes run over contiguous rows in cache. Returns
    (best, edge), both (groups, width). With ``recording``, edge is each
    column's winning row, the first that holds the max,
    k - max_j (k - j) [row_j == max]; a NaN max equals no row and goes to
    row 0. Otherwise edge is None.
    """
    best = np.empty((groups, width), dtype=dtype)
    blocks = _blocks(groups, 1, k * width)
    scratch = np.empty(k * (blocks[0][1] if blocks else 0) * width, dtype=dtype)
    first = (k - np.arange(k, dtype=np.min_scalar_type(k))).reshape(k, 1, 1)
    win = np.empty(best.shape, dtype=first.dtype) if recording else None
    for lo, hi, _, _ in blocks:
        block = scratch[:k * (hi - lo) * width].reshape(k, hi - lo, width)
        fill(block, lo, hi)
        top = np.maximum.reduce(block, axis=0, out=best[lo:hi])
        if recording:
            np.maximum.reduce((block == top) * first, axis=0, out=win[lo:hi])
    if not recording:
        return best, None
    edge = np.subtract(k, win, dtype=np.intp)
    edge[edge == k] = 0  # no row holds a NaN max
    return best, edge


def _winning_values(xd: np.ndarray, scale: np.ndarray, recording: bool):
    """Each point's winning edge, as :func:`batch_norm_leaky_max` routes it:
    (B, C, N, k) -> (B, C, N) values and, when ``recording``, flat indices
    into x. :func:`_blocked_winners` of the rows of x * sign(scale) (a plain
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

    picked, edge = _blocked_winners(fill, rows.shape[0], 1, k, xd.dtype, recording)
    picked = picked.reshape(b_dim, c, n)
    if row_sign is not None:
        picked *= sign.reshape(1, c, 1)
        picked[:, sign == 0] = xd[..., 0][:, sign == 0]
    if edge is not None:
        edge = edge.reshape(-1) + np.arange(0, xd.size, k)
    return picked, edge


def batch_norm_leaky_max(x: Tensor, gamma: Tensor, beta: Tensor,
                         running_mean: Optional[np.ndarray],
                         running_var: Optional[np.ndarray], mode: str,
                         slope: float = 0.2, momentum: float = 0.1,
                         epsilon: float = 1e-5, shift: Optional[Tensor] = None) -> Tensor:
    """``reduce(leaky_relu(batch_norm(x, ...), slope), 3, "max")`` in one op,
    bit for bit: (B, C, N, k) -> (B, C, N). A (C,) ``shift`` normalizes
    x + shift without forming it (:func:`_norm_scale`).

    Batch norm then leaky relu is, per channel, a map of x that never
    decreases when the scale gamma / sigma is >= 0 and never increases when it
    is < 0, and rounding keeps that true. So the max over k of the map is the
    map of the reference's winner (:func:`_winning_values`). Statistics and
    the running-buffer update come from every edge, as in :func:`batch_norm`;
    only the (B, C, N) winners are normalized and activated. Backward writes
    one dense dx = x * a + b per channel, the batch-statistics terms, and
    adds the routed gradient at the winning edges; besides x it keeps only
    (B, C, N) arrays: the winners' index, their centred values and their
    activation mask. Bit for bit holds for finite x: a row holding a NaN
    wins NaN, so its gradient goes to edge 0, not to the first NaN as in
    the reference.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm_leaky_max expects (B, C, N, k), got {x.shape}")
    xd = x.data
    dt = xd.dtype
    s = _leaky_slope(slope, dt)
    _, c, _, k = x.shape
    if k == 0:
        raise InvalidInputError(f"cannot reduce empty axis 3 of shape {x.shape}")
    _, mu, ivar, scale, _, _ = _norm_stats(
        x, gamma, beta, running_mean, running_var, mode, momentum, epsilon, False, shift)
    parents = (x, gamma, beta) if shift is None else (x, gamma, beta, shift)
    recording = _recording(*parents)
    picked, winners = _winning_values(xd, scale, recording)
    centred, z, out = _activate_winners(picked, mu, scale, beta, s)
    if not recording:
        return _make(out, parents, None)
    neg_mask = z < 0

    def back(g):
        routed, a, b, dgamma, dbeta = _pooled_grads(
            g, neg_mask, s, centred, ivar, scale, xd.size // c if mode == "train" else None)
        if a is None:
            dx = np.zeros_like(xd)
        else:
            # every edge feeds the statistics: a * (x - mu) + b is affine in x
            dx = xd * a.astype(dt).reshape(1, c, 1, 1)
            dx += (b - a * mu).astype(dt).reshape(1, c, 1, 1)
        dx.reshape(-1)[winners] += routed.ravel()
        return _shift_grad((dx, dgamma.astype(dt), dbeta.astype(dt)), shift, mode, dbeta, scale)

    return _make(out, parents, back)


def _activate_winners(picked: np.ndarray, mu: np.ndarray, scale: np.ndarray,
                      beta: Tensor, s: np.ndarray):
    """Batch norm then leaky relu of each point's winning edge, (B, C, N).

    Returns (centred, z, out): the winners less the mean, their batch-norm
    output and its activation."""
    cshape = (1, picked.shape[1], 1)
    centred = picked - mu.reshape(cshape)
    z = centred * scale.reshape(cshape)
    z += beta.data.reshape(cshape)
    return centred, z, _leaky(z, s)


def _pooled_grads(g: np.ndarray, neg_mask: np.ndarray, s: np.ndarray,
                  centred: np.ndarray, ivar: np.ndarray, scale: np.ndarray,
                  m: Optional[int]):
    """Backward of :func:`_activate_winners` for a max over m edges.

    Returns (routed, a, b, dgamma, dbeta). routed, (B, C, N), is the
    gradient at each point's winning edge. In train mode (m edges, not None)
    every edge x of channel c also feeds the batch statistics, which add
    a[c] * (x - mu[c]) + b[c] to its gradient; in eval mode a and b are None.
    """
    gz = _leaky_grad(neg_mask, s, g)  # gradient at the winners' batch-norm output
    dbeta = _channel_sums(gz)
    dgamma = _channel_sums(gz * centred) * ivar
    routed = gz * scale.reshape(1, -1, 1)
    if m is None:
        return routed, None, None, dgamma, dbeta
    # scale * (-dbeta / m - xhat * dgamma / m), with xhat = (x - mu) * ivar
    return routed, scale * (-dgamma * ivar / m), scale * (-dbeta / m), dgamma, dbeta


def linear_norm_pool(x: Tensor, weight: Tensor, gamma: Tensor, beta: Tensor,
                     running_mean: Optional[np.ndarray], running_var: Optional[np.ndarray],
                     mode: str, slope: float = 0.2, momentum: float = 0.1,
                     epsilon: float = 1e-5) -> Tensor:
    """The embedding head in one op: with a = ``leaky_relu(batch_norm(
    pointwise_linear(x, weight), ...), slope)``, ``concat([reduce(a, 2,
    "max"), reduce(a, 2, "mean")], 1)``, (B, C, N) -> (B, 2E) for an (E, C)
    weight.

    The map is one GEMM into point-major (B * N, E) rows, reading x's
    channel-major columns (:func:`_columns`) transposed, so it copies
    nothing at B == 1. Train mode takes the batch mean and biased variance
    from float64 column sums and updates the running buffers as
    :func:`batch_norm` does. Each block of whole items is normalized,
    activated and pooled by :func:`_blocked_winners`, so the max routes to
    the first point holding it, as ``reduce`` does (a NaN max to point 0).
    Backward keeps the centred rows, their activation mask and the winners,
    forms the rows' gradient as one more (B * N, E) array, and runs one
    GEMM each for dx and the weight.
    """
    if x.ndim != 3:
        raise ShapeError(f"linear_norm_pool expects (B, C, N), got {x.shape}")
    b_dim, c, n = x.shape
    if weight.ndim != 2 or weight.shape[1] != c:
        raise ShapeError(f"weight must be (E, {c}), got {weight.shape}")
    if weight.dtype != x.dtype:
        raise UsageError(f"linear_norm_pool: dtype mismatch: {x.dtype} vs {weight.dtype}")
    e = weight.shape[0]
    if n == 0:
        raise InvalidInputError(f"cannot pool over the empty point axis of shape {x.shape}")
    _check_norm(e, gamma, beta, mode, epsilon, b_dim * n)
    dt = x.data.dtype
    s = _leaky_slope(slope, dt)
    parents = (x, weight, gamma, beta)
    recording = _recording(*parents)
    xm = _columns(x.data)
    rows = xm.T @ weight.data.T  # (B * N, E); BLAS reads both operands transposed
    m = rows.shape[0]
    blocks = [slice(i, j) for i, j, _, _ in _blocks(m, 1, e)]
    moments = None
    if mode == "train":
        mean = rows.sum(axis=0, dtype=np.float64) / m
        rows -= mean.astype(dt)
        squares = np.zeros(e)
        for blk in blocks:
            squares += np.square(rows[blk]).sum(axis=0, dtype=np.float64)
        moments = (mean, squares / m)
    mu, ivar, scale = _norm_scale(moments, gamma, running_mean, running_var, mode,
                                  momentum, epsilon, dt)
    if mode == "eval":
        rows -= mu
    centred = rows.reshape(b_dim, n, e)
    out = np.empty((b_dim, 2 * e), dtype=dt)
    neg = np.empty(centred.shape, dtype=bool) if recording else None

    def fill(block, lo, hi):
        """Items [lo, hi) activated into block, (N, items, E), and their mean."""
        np.multiply(centred[lo:hi].transpose(1, 0, 2), scale, out=block)
        block += beta.data
        if neg is not None:
            np.less(block, 0, out=neg[lo:hi].transpose(1, 0, 2))
        _leaky(block, s, out=block)
        np.add.reduce(block, axis=0, out=out[lo:hi, e:])

    out[:, :e], winners = _blocked_winners(fill, b_dim, e, n, dt, recording)
    out[:, e:] /= n
    if not recording:
        return _make(out, parents, None)
    neg = neg.reshape(m, e)
    winners = ((winners + (np.arange(b_dim) * n)[:, None]) * e + np.arange(e)).ravel()

    def back(g):
        d = np.empty_like(rows)  # the rows' gradient
        d.reshape(b_dim, n, e)[...] = (g[:, e:] / np.asarray(n, dtype=dt))[:, None, :]
        d.reshape(-1)[winners] += g[:, :e].ravel()
        dbeta, dgamma = np.zeros(e), np.zeros(e)
        for blk in blocks:
            gz = d[blk] = _leaky_grad(neg[blk], s, d[blk])
            dbeta += gz.sum(axis=0, dtype=np.float64)
            dgamma += np.multiply(gz, rows[blk]).sum(axis=0, dtype=np.float64)
        dgamma *= ivar  # sum of g * xhat
        if mode == "train":
            # as in batch_norm: gamma * ivar * (g - dbeta / m - xhat * dgamma / m)
            coef, shift = (-dgamma * ivar / m).astype(dt), (-dbeta / m).astype(dt)
            for blk in blocks:
                t = np.multiply(rows[blk], coef)
                t += d[blk]
                t += shift
                np.multiply(t, scale, out=d[blk])
        else:
            d *= scale
        dx = _uncolumns(weight.data.T @ d.T, x.shape)
        return dx, d.T @ xm.T, dgamma.astype(dt), dbeta.astype(dt)

    return _make(out, parents, back)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0 <= p < 1:
        raise InvalidInputError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0:
        return _make(x.data, (x,), lambda g: (g,))
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype)
    keep *= np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
    out = x.data * keep

    def back(g):
        return (g * keep,)

    return _make(out, (x,), back)


# ---------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------

def reduce(x: Tensor, axis: int, kind: str) -> Tensor:
    """Reduce one axis away. kind 'max' routes the gradient to the winning
    element (lowest index on ties); kind 'mean' spreads it uniformly."""
    axis = _check_axis(axis, x.ndim)
    n = x.shape[axis]
    if n == 0:
        raise InvalidInputError(f"cannot reduce empty axis {axis} of shape {x.shape}")
    if kind == "max":
        if not _recording(x):
            return _make(x.data.max(axis=axis), (x,), None)
        am = np.argmax(x.data, axis=axis)  # np.argmax takes the first maximum
        out = np.take_along_axis(x.data, np.expand_dims(am, axis), axis).squeeze(axis)

        def back(g):
            dx = np.zeros_like(x.data)
            np.put_along_axis(dx, np.expand_dims(am, axis), np.expand_dims(g, axis), axis)
            return (dx,)
    elif kind == "mean":
        out = x.data.mean(axis=axis)

        def back(g):
            scaled = np.expand_dims(g, axis) / np.asarray(n, dtype=g.dtype)
            return (np.broadcast_to(scaled, x.shape),)
    else:
        raise InvalidInputError(f"kind must be 'max' or 'mean', got {kind!r}")

    return _make(np.ascontiguousarray(out), (x,), back)


def reduce_sum(x: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    if axis is None:
        out = np.asarray(x.data.sum())

        def back(g):
            return (np.broadcast_to(g, x.shape),)
    else:
        ax = _check_axis(axis, x.ndim)
        out = x.data.sum(axis=ax, keepdims=keepdims)

        def back(g):
            gg = g if keepdims else np.expand_dims(g, ax)
            return (np.broadcast_to(gg, x.shape),)

    return _make(out, (x,), back)


# ---------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized.

    logits: (B, classes); labels: length-B integer vector. Returns a scalar.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (B, classes), got {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"labels must be a length-{logits.shape[0]} vector, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidInputError("labels must be integers")
    b_dim, classes = logits.shape
    if b_dim == 0:
        raise InvalidInputError("softmax_cross_entropy needs a non-empty batch")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise InvalidInputError(f"labels must lie in [0, {classes})")

    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(b_dim)
    loss = np.asarray(-logp[rows, labels].mean())

    def back(g):
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        return (p * (g / b_dim),)

    return _make(loss, (logits,), back)


# ---------------------------------------------------------------------
# reverse-mode sweep
# ---------------------------------------------------------------------

def _topo(root: Tensor) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        t, done = stack.pop()
        if done:
            order.append(t)
            continue
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t.node.parents:
            stack.append((p, False))
    return order


def _leaf_accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # C order: a transposed upstream gradient would otherwise make every
        # later in-place update stride through memory
        t.grad = np.array(g, dtype=t.data.dtype, copy=True, order="C")
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Gradients add into ``.grad`` of every reachable leaf with requires_grad;
    calling twice without zeroing accumulates. Intermediate gradients live in
    a scratch table keyed by node identity and are freed as soon as consumed.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if not loss.requires_grad:
            raise UsageError("backward on a tensor that is not tracked by the graph")
        _leaf_accumulate(loss, np.ones_like(loss.data))
        return

    order = _topo(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    owned = {id(loss)}
    for t in reversed(order):
        g = grads.pop(id(t), None)
        owned.discard(id(t))
        if g is None:
            continue
        for p, pg in zip(t.node.parents, t.node.backward_fn(g)):
            if pg is None:
                continue
            if p.node is None:
                if p.requires_grad:
                    _leaf_accumulate(p, pg)
                continue
            key = id(p)
            if key not in grads:
                grads[key] = pg  # may alias upstream scratch; copy on next add
            elif key in owned:
                grads[key] += pg
            else:
                grads[key] = grads[key] + pg
                owned.add(key)
