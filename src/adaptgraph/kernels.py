"""Multi-head adaptive kernels: per-neighbor filter matrices predicted on the fly.

A small generator network looks at geometric edge features and defines, for
every (point, neighbor) pair, H separate C_out x C_in filter matrices that
are applied to the content features and summed over heads. A residual path
(projected when channel counts differ) and output batch norm wrap the result.

The matrices are never formed. The generator's last layer is affine in its
mid-width output y, so each edge kernel is a y-weighted mix of a shared
basis, and the head sum folds into a sum of that layer's weights. One
contraction applies them, assembled as PAConv does: every point is
projected by the summed basis once, and each edge weights the projection of
the point it reads by its [y, 1], grouped by that point into rows of at
most k so that this is one batched matmul (gather-GEMM-scatter, as in
TorchSparse). Point features (B, C_p, N) with a neighbor index stand for
the edge features [x_j - x_i, x_i], linear in them: the x_j half is read
through the rows, the x_i half applied to each point's own k edges. The
network uses point features; edge features (B, C_in, N, k), each edge its
own point, serve as the reference form.

An identity residual is the constant kernel I. It adds to b, which each edge
weights by the 1 of its [y, 1], so the edge's features x_e are added
themselves, for both kinds (structural re-parameterisation, as in RepVGG). A
projected residual is folded into the basis the same way: its batch norm is,
per channel, alpha * (W x_e) + c, so the constant kernel alpha * W adds to
b. In train mode alpha comes from the batch moments of W x_e (per-point
products for point features), and c cancels under the output batch norm's
batch mean; in eval mode c shifts that norm's mean. No residual forms a
feature of its own.

The output batch norm, leaky relu and max over the neighbors run in the
contraction's blocked pass, and backward forms the responses again, so a
stage keeps only per-point state (:meth:`EdgeResponses.norm_leaky_max`): the
tiled reduction with recomputation of FlashAttention (Dao et al., 2022).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import graph
from . import tensor as T
from .errors import ConfigError, InvalidInputError, ShapeError, UsageError
from .nn import BatchNorm, Module, PointwiseLinear
from .tensor import Tensor


def _positive_int(v) -> bool:
    """True for an int >= 1. bool is an int subclass, so a true from a
    hand-edited manifest would otherwise read as 1."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


@dataclass(frozen=True)
class MakConfig:
    in_channels: int          # C_in of the filtered features
    out_channels: int         # C_out
    gen_in_channels: int      # channels of the kernel-generation input
    num_heads: int = 1
    mid_channels: int = 8     # hidden width of the generator
    residual: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for field in ("in_channels", "out_channels", "gen_in_channels",
                      "num_heads", "mid_channels"):
            v = getattr(self, field)
            if not _positive_int(v):
                raise ConfigError(f"{field} must be a positive integer, got {v!r}")
        if not isinstance(self.residual, bool):
            raise ConfigError(f"residual must be a bool, got {self.residual!r}")


class _KernelGenerator(Module):
    """conv0 -> BN -> LeakyReLU -> conv_mid -> BN -> LeakyReLU, plus the bare
    last layer conv1.

    ``forward`` returns the mid-width coefficients y; conv1 is not applied
    here but folded into :func:`apply_heads`. conv1 has no normalization or
    activation, so predicted kernels can take either sign, and it is affine
    in y: edge kernel channel c = conv1.weight[c] @ y + conv1.bias[c], where
    c encodes (out, in, head) as c = (out * C_in + in) * H + head.
    """

    def __init__(self, cfg: MakConfig, rng: np.random.Generator,
                 dtype: str = "f32", leaky_slope: float = 0.2):
        super().__init__()
        mid = cfg.mid_channels
        full = cfg.out_channels * cfg.in_channels * cfg.num_heads
        self.slope = leaky_slope
        self.conv0 = PointwiseLinear(cfg.gen_in_channels, mid, rng, bias=False, dtype=dtype)
        self.bn0 = BatchNorm(mid, dtype=dtype)
        self.conv_mid = PointwiseLinear(mid, mid, rng, bias=False, dtype=dtype)
        self.bn_mid = BatchNorm(mid, dtype=dtype)
        self.conv1 = PointwiseLinear(mid, full, rng, bias=True, dtype=dtype)

    def forward(self, geo: Tensor) -> Tensor:
        y0 = T.leaky_relu(self.bn0(self.conv0(geo)), self.slope)
        return T.leaky_relu(self.bn_mid(self.conv_mid(y0)), self.slope)


def apply_heads(coeffs: Tensor, x: Tensor, weight: Tensor, bias: Tensor,
                heads: int, out_channels: int,
                idx: Optional[graph.NeighborIndex] = None,
                held: Optional[tuple] = None) -> Tensor:
    """Apply every edge's generated kernels to its features and sum over heads,
    without forming the kernels.

    coeffs: (B, mid, N, k) generator coefficients y; weight: (C_out * C_in * H,
    mid) and bias: (C_out * C_in * H,), the generator's last layer in the
    channel layout c = (o * C_in + i) * H + h, with C_out = ``out_channels``.
    x holds the features in one of two kinds:

    - without ``idx``, edge features (B, C_in, N, k);
    - with ``idx``, point features (B, C_p, N), standing for the edge
      features ``graph_feature(x, idx)`` with C_in = 2 C_p. They are never
      formed, and the network uses this kind.

    Returns the :class:`EdgeResponses` (B, C_out, N, k), described, not formed:

        out[b,:,n,j] = sum_h W_h[b,n,j] @ x[b,:,n,j],
        W_h[b,n,j][o,i] = weight[(o*C_in+i)*H+h] @ y[b,:,n,j] + bias[(o*C_in+i)*H+h].

    Heads fold exactly into summed weights A = sum_h A_h, b = sum_h b_h, the
    basis [A | b] (C_out, C_in, mid + 1) (:func:`_head_sum`) that one
    contraction, :class:`_Contraction`, applies for both kinds, in memory
    that does not grow with H. ``held`` is the basis and its
    :func:`_layout` for this weight and bias, when the caller holds them.
    """
    if heads < 1:
        raise ConfigError("head count must be at least 1")
    if out_channels < 1:
        raise ConfigError("out_channels must be at least 1")
    if coeffs.ndim != 4:
        raise ShapeError(f"coefficients must be (B, mid, N, k), got {coeffs.shape}")
    b, mid, n, k = coeffs.shape
    c_out = out_channels
    if x.shape != (b,) + x.shape[1:2] + ((n, k) if idx is None else (n,)):
        kind = "features (B, C_in, N, k)" if idx is None else "point features (B, C_p, N)"
        raise ShapeError(f"{kind} {x.shape} do not match coefficients (B={b}, N={n}, k={k})")
    if not x.dtype == coeffs.dtype == weight.dtype == bias.dtype:
        raise UsageError(f"dtype mismatch: coefficients {coeffs.dtype}, features {x.dtype}, "
                         f"weight {weight.dtype}, bias {bias.dtype}")
    if idx is not None and idx.indices.shape != (b, n, k):
        raise ShapeError(
            f"neighbor index {idx.indices.shape} does not match coefficients "
            f"(B={b}, N={n}, k={k})")
    c_in = x.shape[1] if idx is None else 2 * x.shape[1]
    rows = c_out * c_in * heads
    if weight.shape != (rows, mid):
        raise ShapeError(
            f"weight must be ({c_out}*{c_in}*{heads}, {mid}) = ({rows}, {mid}), "
            f"got {weight.shape}")
    if bias.shape != (rows,):
        raise ShapeError(f"bias must be ({rows},), got {bias.shape}")
    if held is None:
        return EdgeResponses(coeffs, x, _head_sum(weight, bias, c_out, c_in, heads), idx)
    return EdgeResponses(coeffs, x, held[0], idx, held[1])


def _head_sum(weight: Tensor, bias: Tensor, c_out: int, c_in: int, heads: int) -> Tensor:
    """The basis [A | b], (C_out, C_in, mid + 1), of the generator's last
    layer ``weight`` and ``bias`` (in :func:`apply_heads`' channel layout)
    summed over its heads."""
    mid = weight.shape[1]
    a_sum = T.reduce_sum(T.reshape(weight, (c_out, c_in, heads, mid)), axis=2)
    b_sum = T.reduce_sum(T.reshape(bias, (c_out, c_in, heads, 1)), axis=2)
    return T.concat([a_sum, b_sum], axis=2)


def _layout(basis: np.ndarray, center: bool) -> np.ndarray:
    """The basis [A | b], (C_out, C_in, mid + 1), as the weight w of
    :class:`_Contraction`'s per-point projections x_pt @ w: columns (m, o)
    of Q = A x and, with ``center`` (point features, C_in / 2 channels),
    then of R = (A_b - A_a) x, A_a and A_b the halves of A's C_in."""
    c_out, c_in, m1 = basis.shape
    if not center:
        halves = [basis]
    elif c_in % 2:
        raise ShapeError(f"point features stand for an even C_in, got {c_in}")
    else:
        c = c_in // 2
        halves = [basis[:, :c], basis[:, c:] - basis[:, :c]]
    return np.concatenate([h.transpose(1, 2, 0).reshape(-1, m1 * c_out) for h in halves],
                          axis=1)


class _Contraction:
    """The contraction behind :func:`apply_heads`, a block of source points at
    a time: with y1 = [y, 1] and the basis [A | b] (C_out, C_in, mid+1) as
    maps A_m, edge e responds r_e = sum_m y1_e[m] A_m x_e. With ``idx``,
    x_e = [x_p - x_i, x_i] for the edge from center i to neighbor p, so
    r_e = y1_e Q[p] + y1_e R[i] with Q = A_a x and R = (A_b - A_a) x,
    (mid+1, C_out) per point. The neighbor term is one batched matmul over
    ``idx.rows``, (rows, k, mid+1) @ (rows, mid+1, C_out), a ``T._blocks``
    block of rows at a time: a point's first row reads its Q in place,
    overflow rows gather it, and each row's slots are scattered to their
    edges. The center term is added per block of source points, each
    source point's k edges getting its R. Without ``idx`` every edge is its
    own point in a one-slot row, with Q = A x_e and no R term. Forward and
    :meth:`backward` each form the responses, so nothing edge-sized is kept
    between them.
    """

    def __init__(self, coeffs: Tensor, x: Tensor, basis: Tensor,
                 idx: Optional[graph.NeighborIndex], layout: Optional[np.ndarray] = None):
        b, mid, n, k = coeffs.shape
        c_out, _, m1 = basis.shape
        c = x.shape[1]
        self.coeffs, self.x, self.basis, self.shape = coeffs, x, basis, (b, c_out, n, k)
        self.m1, self.q_cols = m1, m1 * c_out  # one point's Q, columns (m, o)
        self.center = idx is not None
        self.rows = (idx.rows if self.center else
                     graph.NeighborRows(np.arange(b * n * k), np.arange(0), b * n * k, 1))
        self.x_pt = x.data.reshape(b, c, -1).transpose(0, 2, 1).reshape(-1, c)  # point-major
        # x_pt @ w = [Q | R]
        self.w = _layout(basis.data, self.center) if layout is None else layout

    def _row_blocks(self, q: np.ndarray, y1: np.ndarray):
        """(lo, hi, slots, y, q) per ``T._blocks`` block of rows [lo, hi):
        their slots' edges, flat, the slots' [y, 1], (rows, width, mid+1),
        and the rows' points' Q."""
        rows, pts = self.rows, self.rows.points
        for start, end in ((0, pts), (pts, pts + rows.over.size)):
            for i, j, _, _ in T._blocks(end - start, 1, rows.width * self.shape[1]):
                lo, hi = start + i, start + j
                slots = rows.edges[lo * rows.width:hi * rows.width]
                q_rows = q[lo:hi] if hi <= pts else q[rows.over[lo - pts:hi - pts]]
                yield lo, hi, slots, np.take(y1, slots, 0).reshape(hi - lo, rows.width, -1), q_rows

    def responses(self):
        """(out, y1, q): every edge's neighbor term, to which :meth:`block`
        adds the center term, and [y, 1], both edge-major with a zero last
        row that padding slots read, and every point's Q."""
        b, mid, n, k = self.coeffs.shape
        y1 = np.zeros((b * n * k + 1, mid + 1), dtype=self.x.data.dtype)
        y1[:-1].reshape(b, n, k, mid + 1)[..., :mid] = self.coeffs.data.transpose(0, 2, 3, 1)
        y1[:-1, mid] = 1
        q = np.matmul(self.x_pt, self.w[:, :self.q_cols]).reshape(-1, self.m1, self.shape[1])
        out = np.empty((y1.shape[0], self.shape[1]), dtype=q.dtype)
        for _, _, slots, y_rows, q_rows in self._row_blocks(q, y1):
            out[slots] = np.matmul(y_rows, q_rows).reshape(-1, self.shape[1])
        out[-1] = 0  # padding slots wrote their zero products there
        return out, y1, q

    def block(self, out: np.ndarray, y1: np.ndarray, lo: int, hi: int):
        """The responses of source points [lo, hi)'s edges, completed in
        place in :meth:`responses`' ``out``: a (points, k, C_out) view, and
        the points' R (None without ``idx``)."""
        k, c_out = self.shape[3], self.shape[1]
        blk = out[lo * k:hi * k].reshape(hi - lo, k, c_out)
        if not self.center:
            return blk, None
        r = np.matmul(self.x_pt[lo:hi], self.w[:, self.q_cols:]).reshape(hi - lo, -1, c_out)
        blk += np.matmul(y1[lo * k:hi * k].reshape(hi - lo, k, -1), r)
        return blk, r

    def backward(self, to_grad):
        """Gradients (coeffs, x, basis), given ``to_grad(blk, lo, hi)``,
        which turns :meth:`block`'s responses into their gradient G in place.

        Each block, formed again, takes the center term's d_y1 = G Rᵀ and
        dR = y1ᵀ G, added into dx and the basis gradient a chunk of source
        points at a time. Then each block of rows gathers its slots' G for
        dQ = y1ᵀ G and d_y1 = G Qᵀ, and dQ takes one GEMM each for dx and
        the basis gradient.
        """
        b, c_out, n, k = self.shape
        g_em, y1, q = self.responses()
        x_pt, w, center, rows = self.x_pt, self.w, self.center, self.rows
        dt, c, m1 = g_em.dtype, x_pt.shape[1], self.m1
        q_cols, pts, over = self.q_cols, rows.points, rows.over
        d_y1_center = np.empty((b * n * k, m1), dtype=dt) if center else None
        dx_pt = np.empty((pts, c), dtype=dt)
        dw_r = np.zeros((c, q_cols), dtype=dt) if center else None
        # chunks of source points whose dR is held at once, at q_cols // 16
        # values a point: about 16 blocks' worth of dR
        chunks = T._blocks(b * n, 1, q_cols // 16)
        d_r = np.empty((chunks[0][1] if chunks else 0, q_cols), dtype=dt) if center else None
        for first, last, _, _ in chunks:
            for i, j, _, _ in T._blocks(last - first, 1, k * c_out):
                lo, hi = first + i, first + j
                g_pt, r = self.block(g_em, y1, lo, hi)
                to_grad(g_pt, lo, hi)
                if center:
                    np.matmul(g_pt, r.transpose(0, 2, 1),
                              out=d_y1_center[lo * k:hi * k].reshape(-1, k, m1))
                    np.matmul(y1[lo * k:hi * k].reshape(-1, k, m1).transpose(0, 2, 1), g_pt,
                              out=d_r[i:j].reshape(-1, m1, c_out))
            if center:  # the chunk's dR goes straight into dx and dW
                held = d_r[:last - first]
                np.matmul(held, w[:, q_cols:].T, out=dx_pt[first:last])
                dw_r += x_pt[first:last].T @ held
        # the neighbor term by rows: each row's slots gather the edges' gradient
        d_q = np.empty((pts, m1, c_out), dtype=dt)
        d_y1_rows = np.empty((pts + over.size, rows.width, m1), dtype=dt)
        for lo, hi, slots, y_rows, q_rows in self._row_blocks(q, y1):
            d_rows = np.take(g_em, slots, 0).reshape(hi - lo, -1, c_out)
            np.matmul(d_rows, q_rows.transpose(0, 2, 1), out=d_y1_rows[lo:hi])
            y_t = y_rows.transpose(0, 2, 1)
            if hi <= pts:
                np.matmul(y_t, d_rows, out=d_q[lo:hi])
            else:  # a point's overflow rows are adjacent
                point = over[lo - pts:hi - pts]
                heads = np.flatnonzero(np.diff(point, prepend=-1))
                d_q[point[heads]] += np.add.reduceat(np.matmul(y_t, d_rows), heads, axis=0)
        d_y1 = d_y1_rows.reshape(-1, m1)[rows.slots]
        if center:
            d_y1 += d_y1_center
        d_coeffs = np.ascontiguousarray(
            d_y1.reshape(b, n * k, m1)[:, :, :-1].transpose(0, 2, 1)).reshape(self.coeffs.shape)
        d_q = d_q.reshape(pts, q_cols)
        if center:
            dx_pt += d_q @ w[:, :q_cols].T
        else:
            np.matmul(d_q, w.T, out=dx_pt)
        dx = dx_pt.reshape(b, -1, c).transpose(0, 2, 1)
        dw = (x_pt.T @ d_q).reshape(c, m1, c_out).transpose(2, 0, 1)
        if center:  # A_a gets dQ - dR, A_b gets dR
            dw_r = dw_r.reshape(c, m1, c_out).transpose(2, 0, 1)
            dw = np.concatenate([dw - dw_r, dw_r], axis=1)
        return d_coeffs, np.ascontiguousarray(dx).reshape(self.x.shape), dw


class EdgeResponses:
    """The (B, C_out, N, k) edge responses of :func:`apply_heads`, held as
    the operands that define them and never formed whole: the coefficients,
    the features, the head-summed basis [A | b] and the neighbor index
    (None for edge features), and the basis' :func:`_layout` when it is
    held. :meth:`norm_leaky_max` pools them."""

    def __init__(self, coeffs: Tensor, x: Tensor, basis: Tensor,
                 idx: Optional[graph.NeighborIndex], layout: Optional[np.ndarray] = None):
        self.coeffs, self.x, self.basis, self.idx, self.layout = coeffs, x, basis, idx, layout
        self.shape = coeffs.shape[:1] + basis.shape[:1] + coeffs.shape[2:]

    def norm_leaky_max(self, gamma: Tensor, beta: Tensor, running_mean: Optional[np.ndarray],
                       running_var: Optional[np.ndarray], mode: str, slope: float = 0.2,
                       momentum: float = 0.1, epsilon: float = 1e-5,
                       shift: Optional[Tensor] = None, norm: Optional[tuple] = None) -> Tensor:
        """``leaky_relu(batch_norm(r), slope)`` of the responses r, maxed
        over each point's k edges, (B, C_out, N); edge features are one-edge
        neighbourhoods, (B, C_out, N, k). Batch norm takes ``T.batch_norm``'s
        arguments; a (C_out,) ``shift`` normalizes r + shift without forming
        it, and a held ``norm`` already has it.

        One pass over blocks of source points forms each block's responses,
        adds them to float64 channel sums about the first block's mean, and
        takes each point's winner of r * sign(gamma) (``T._blocked_winners``):
        batch norm then leaky relu is monotone per channel, rising when
        gamma >= 0, even after rounding. A zero gamma or a NaN max takes
        edge 0. Only the (B, C_out, N) winners are normalized and activated.
        Backward keeps per-point state: the winners' edge, centred values
        and activation mask. It forms the responses again as the gradient
        a (r - mu) + b per channel in train mode, where every edge feeds the
        statistics, plus the routed gradient at the winners.
        """
        coeffs, x = self.coeffs, self.x
        if self.idx is None:  # one-edge neighbourhoods
            b, mid, n, k = coeffs.shape
            coeffs = T.reshape(coeffs, (b, mid, n * k, 1))
            x = T.reshape(x, x.shape[:2] + (n * k, 1))
        elif coeffs.shape[3] == 0:
            raise InvalidInputError(f"cannot pool the empty neighbor axis of {self.shape}")
        plan = _Contraction(coeffs, x, self.basis, self.idx, self.layout)  # backward builds its own
        b, c_out, n, k = plan.shape
        m = b * n * k
        T._check_norm(c_out, gamma, beta, mode, epsilon, m)
        dt = x.data.dtype
        s = T._leaky_slope(slope, dt)
        parents = (coeffs, x, self.basis, gamma, beta) + (() if shift is None else (shift,))
        recording = T._recording(*parents)
        sign = np.sign(gamma.data)
        flip, zero = np.where(sign == 0, 1, sign).astype(dt), np.flatnonzero(sign == 0)
        train = mode == "train"
        resp, y1 = plan.responses()[:2]  # Q is not needed past the neighbor term
        # float64 sums of r - origin and (r - origin)^2, origin the first block's mean
        sums, origin, ones = np.zeros((2, c_out)), None, None

        def fill(block, lo, hi):
            nonlocal origin, ones
            r, _ = plan.block(resp, y1, lo, hi)
            if train:
                flat = r.reshape(-1, c_out)
                if origin is None:  # the first block is the largest
                    ones = np.ones(len(flat), dtype=dt)
                    origin = (ones @ flat) / ones.sum()
                d = flat - origin
                sums[0] += ones[:len(flat)] @ d
                sums[1] += ones[:len(flat)] @ np.square(d, out=d)
            np.multiply(r.transpose(1, 0, 2), flip, out=block)
            block[1:, :, zero] = block[:1, :, zero]  # a zero gamma takes edge 0

        best, edge = T._blocked_winners(fill, b * n, c_out, k, dt, recording)
        del plan, resp, y1
        moments = None
        if train:
            mean = sums[0] / m
            moments = (origin + mean, np.maximum(sums[1] / m - mean * mean, 0.0))
        mu, ivar, scale = norm or T._norm_scale(moments, gamma, running_mean, running_var, mode,
                                                momentum, epsilon, dt,
                                                None if shift is None else shift.data)
        best *= flip
        picked = np.ascontiguousarray(best.reshape(b, n, c_out).transpose(0, 2, 1))
        centred, z, out = T._activate_winners(picked, mu, scale, beta, s)
        back = None
        if recording:
            neg_mask, edge = z < 0, edge.astype(np.min_scalar_type(k))
            operands, edges = (coeffs, x, self.basis, self.idx), m if train else None

            def back(g):
                routed, a, bias, dgamma, dbeta = T._pooled_grads(g, neg_mask, s, centred, ivar,
                                                                 scale, edges)
                routed = routed.transpose(0, 2, 1).reshape(b * n, c_out)
                if a is not None:  # every edge feeds the statistics: a * (r - mu) + b
                    a, bias = a.astype(dt), (bias - a * mu).astype(dt)
                channels = np.arange(c_out)

                def to_grad(blk, lo, hi):
                    if a is None:
                        blk[...] = 0
                    else:
                        blk *= a
                        blk += bias
                    at = (np.arange(hi - lo)[:, None] * k + edge[lo:hi]) * c_out + channels
                    blk.reshape(-1)[at] += routed[lo:hi]

                grads = _Contraction(*operands).backward(to_grad)
                grads += (dgamma.astype(dt), dbeta.astype(dt))
                if shift is not None:  # train mode's batch mean removes the shift
                    grads += (np.zeros_like(shift.data) if train else (dbeta * scale).astype(dt),)
                return grads

        out = T._make(out, parents, back)
        return out if self.idx is not None else T.reshape(out, self.shape)


def _projection_scale(x: Tensor, idx: Optional[graph.NeighborIndex], weight: Tensor,
                      bn: BatchNorm):
    """The per-channel scale alpha = gamma / sqrt(var + epsilon) of the batch
    norm ``bn`` over the projected edges z_e = weight @ x_e, and their mean mu.

    x holds edge features (B, C_in, N, k) or, with ``idx``, point features
    (B, C_in / 2, N) as in :func:`apply_heads`. Train mode takes mean and
    biased variance from the batch and updates the running buffers; with
    point features they come from the per-point P = W_a x and
    C = (W_b - W_a) x (``graph._edge_moments``), and no edge is formed. Eval
    mode reads the running buffers. Returns (alpha, mu): alpha a Tensor on
    (x, weight, gamma), mu an array. In train mode alpha's gradient reaches
    the edges through the variance alone, as -g alpha ivar^2 (z_e - mu) / m.
    """
    gamma, beta, running_mean, running_var, mode = bn._state()
    dt = x.data.dtype
    c_out = weight.shape[0]
    parents = (x, weight, gamma)
    moments = None
    if mode == "train":
        if idx is None:  # the reference form: project every edge
            if x.ndim != 4 or weight.shape[1] != x.shape[1]:
                raise ShapeError(f"features (B, {weight.shape[1]}, N, k) expected, "
                                 f"got {x.shape}")
            xm = T._columns(x.data)
            z = weight.data @ xm  # (C_out, edges)
            m = z.shape[1]
            T._check_norm(c_out, gamma, beta, mode, bn.epsilon, m)
            mean = T._channel_sums(z[None]) / m
            z -= mean.astype(dt)[:, None]
            moments = (mean, T._channel_sums(np.square(z)[None]) / m)

            def edge_grads(a):
                dz = z * a[:, None]
                return T._uncolumns(weight.data.T @ dz, x.shape), dz @ xm.T
        else:
            graph._check_points(x, idx, "projected residual")
            graph._check_weight(x, weight, "projected residual")
            m = idx.indices.size
            T._check_norm(c_out, gamma, beta, mode, bn.epsilon, m)
            stacked, per_point = graph._per_point(x, weight)
            moments, terms = graph._edge_moments(per_point[:, :c_out], per_point[:, c_out:], idx)

            def edge_grads(a):
                _, u, v = terms
                a = a.reshape(1, c_out, 1)
                return graph._per_point_back(np.concatenate([a * u, a * v], axis=1),
                                             stacked, x)
    mu, ivar, alpha = T._norm_scale(moments, gamma, running_mean, running_var, mode,
                                    bn.momentum, bn.epsilon, dt)

    def back(g):
        d_gamma = g * ivar
        if moments is None:  # eval mode: the running buffers are constants
            return None, None, d_gamma
        dx, dw = edge_grads((-g * alpha * ivar * ivar / m).astype(dt))
        return dx, dw, d_gamma

    return T._make(alpha, parents, back), mu


class MultiHeadAdaptiveKernel(Module):
    """The full operator: generate kernels from geometry, filter the features
    with them plus the (possibly projected) residual, normalize, activate."""

    def __init__(self, cfg: MakConfig, rng: np.random.Generator,
                 dtype: str = "f32", leaky_slope: float = 0.2):
        super().__init__()
        self.cfg = cfg
        self.slope = leaky_slope
        self.gen = _KernelGenerator(cfg, rng, dtype=dtype, leaky_slope=leaky_slope)
        self.eye_rows = None
        if cfg.residual and cfg.in_channels == cfg.out_channels:
            # the identity residual as a constant kernel: 1 at conv1's bias
            # rows (o * C_in + o) * H + 0, added before the heads are summed
            eye = np.zeros(cfg.out_channels * cfg.in_channels * cfg.num_heads)
            eye[np.arange(cfg.out_channels) * (cfg.in_channels + 1) * cfg.num_heads] = 1
            self.eye_rows = Tensor(eye, dtype=dtype)
        elif cfg.residual:
            self.proj = PointwiseLinear(cfg.in_channels, cfg.out_channels, rng,
                                        bias=False, dtype=dtype)
            self.proj_bn = BatchNorm(cfg.out_channels, dtype=dtype)
        self.bn_out = BatchNorm(cfg.out_channels, dtype=dtype)

    def generate_kernels(self, geo: Tensor) -> Tensor:
        """(B, C_geo, N, k) -> per-edge kernel coefficients y, (B, mid, N, k).

        Edge (n, j)'s kernels are the generator's last layer applied to
        y[:, :, n, j]; :func:`apply_heads` uses them without forming them.
        """
        if geo.ndim != 4:
            raise ShapeError(f"generator input must be (B, C, N, k), got {geo.shape}")
        if geo.shape[1] != self.cfg.gen_in_channels:
            raise ShapeError(
                f"generator expects {self.cfg.gen_in_channels} channels, got {geo.shape[1]}")
        return self.gen(geo)

    def _folded_projection(self, feat: Tensor, idx: Optional[graph.NeighborIndex]):
        """The projected residual proj_bn(proj(x_e)) = alpha * (W x_e) + c
        per channel, as (alpha W, c): a constant kernel (C_out * C_in * H,)
        in conv1's bias layout, at head 0, and the offset
        c = beta - alpha * mu, (C_out,)."""
        cfg = self.cfg
        weight = self.proj.weight.value
        alpha, mu = _projection_scale(feat, idx, weight, self.proj_bn)
        kernel = T.mul(T.reshape(alpha, (cfg.out_channels, 1)), weight)
        head0 = np.eye(1, cfg.num_heads, dtype=feat.data.dtype)  # (1, H): 1 at head 0
        rows = T.reshape(T.mul(T.reshape(kernel, kernel.shape + (1,)), head0), (-1,))
        return rows, T.add(self.proj_bn.beta.value, T.mul(alpha, -mu))

    def forward(self, geo: Tensor, feat: Tensor,
                idx: Optional[graph.NeighborIndex] = None) -> Tensor:
        """geo: (B, C_geo, N, k) generator input.

        Without ``idx``, feat holds edge features (B, C_in, N, k) and the
        result is per edge, (B, C_out, N, k). With it, the stage maps points
        to points, as the network uses it: feat holds point features
        (B, C_in / 2, N) whose edge features ``graph_feature(feat, idx)`` are
        filtered without being formed, and the result is the edge result's
        max over the neighbor axis, (B, C_out, N), with BN, activation and
        max in one op that normalizes only the edges the max keeps.

        Both residuals ride in conv1's bias as constant kernels: the identity
        I, or a projection's alpha W with proj_bn's scale alpha, so no edge
        tensor of the residual is formed. The projection's per-channel
        offset c enters ``bn_out`` as a shift of its mean. In eval mode
        under no_grad the bias, shift, basis and layout are held
        (``Module._constant``)."""
        cfg = self.cfg
        conv1 = self.gen.conv1
        coeffs = self.generate_kernels(geo)
        held = self._constant(idx is None, lambda: self._constants_of(feat, idx),
                              self._sources())
        # apply_heads takes the held basis only in a held forward, so a
        # stand-in for it is called as a recording forward calls it
        bias, shift, *summed = held or self._residual_bias(feat, idx)
        out = apply_heads(coeffs, feat, conv1.weight.value, bias, cfg.num_heads,
                          cfg.out_channels, idx, *summed)
        return self.bn_out.leaky_max(out, self.slope, shift)

    def _residual_bias(self, feat: Tensor, idx: Optional[graph.NeighborIndex]):
        """(bias, shift): conv1's bias with the residual's constant kernel
        added, and the projection's offset c (None without a projection)."""
        bias = self.gen.conv1.bias.value
        if self.eye_rows is not None:
            return T.add(bias, self.eye_rows), None
        if not self.cfg.residual:
            return bias, None
        rows, shift = self._folded_projection(feat, idx)
        return T.add(bias, rows), shift

    def _sources(self) -> tuple:
        """The arrays the eval-mode bias, shift and basis are computed from."""
        conv1 = self.gen.conv1
        arrays = (conv1.weight.value.data, conv1.bias.value.data)
        if self.eye_rows is not None:
            return arrays + (self.eye_rows.data,)
        if not self.cfg.residual:
            return arrays
        bn = self.proj_bn
        return arrays + (self.proj.weight.value.data, bn.gamma.value.data, bn.beta.value.data,
                         bn._buffers["running_mean"], bn._buffers["running_var"])

    def _constants_of(self, feat: Tensor, idx: Optional[graph.NeighborIndex]):
        """(bias, shift, (basis, layout)) of :meth:`forward` in eval mode."""
        bias, shift = self._residual_bias(feat, idx)
        cfg = self.cfg
        basis = _head_sum(self.gen.conv1.weight.value, bias, cfg.out_channels, cfg.in_channels,
                          cfg.num_heads)
        return bias, shift, (basis, _layout(basis.data, idx is not None))
