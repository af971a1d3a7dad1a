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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import graph
from . import tensor as T
from .errors import ConfigError, ShapeError, UsageError
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
                idx: Optional[graph.NeighborIndex] = None) -> Tensor:
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

    Returns (B, C_out, N, k) with

        out[b,:,n,j] = sum_h W_h[b,n,j] @ x[b,:,n,j],
        W_h[b,n,j][o,i] = weight[(o*C_in+i)*H+h] @ y[b,:,n,j] + bias[(o*C_in+i)*H+h].

    Heads fold exactly into summed weights A = sum_h A_h, b = sum_h b_h, the
    basis [A | b] (C_out, C_in, mid + 1) that one operator, :func:`_contract`,
    applies for both kinds, in memory that does not grow with H.
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
    a_sum = T.reduce_sum(T.reshape(weight, (c_out, c_in, heads, mid)), axis=2)
    b_sum = T.reduce_sum(T.reshape(bias, (c_out, c_in, heads, 1)), axis=2)
    return _contract(coeffs, x, T.concat([a_sum, b_sum], axis=2), idx)


def _contract(coeffs: Tensor, x: Tensor, basis: Tensor,
              idx: Optional[graph.NeighborIndex]) -> Tensor:
    """The contraction behind :func:`apply_heads`: with y1 = [y, 1] and the
    basis [A | b] (C_out, C_in, mid+1) as maps A_m, out_e = sum_m y1_e[m]
    A_m x_e. With ``idx``, x_e = [x_p - x_i, x_i] for the edge from center i
    to neighbor p, so out_e = y1_e Q[p] + y1_e R[i] with Q = A_a x and
    R = (A_b - A_a) x, (mid+1, C_out) per point. The neighbor term is one
    batched matmul over ``idx.rows``, (rows, k, mid+1) @ (rows, mid+1, C_out):
    a point's first row reads its Q in place, overflow rows gather it. Per
    ``T._blocks`` block of output values, the block's edges are gathered
    from the rows, each source point's k edges get its R term, and the sum
    is written into (B, C_out, N, k). Without ``idx`` every edge is its own
    point in a one-slot row, with Q = A x_e and no R term. Backward copies the
    gradient G edge-major on the same blocks and takes dR = y1ᵀ G per block,
    adding it into dx and the basis gradient a chunk of source points at a
    time; then each block of rows gathers its slots' G for dQ = y1ᵀ G and
    d_y1 = G Qᵀ, and dQ takes one GEMM each for dx and the basis gradient.
    """
    b, mid, n, k = coeffs.shape
    c_out, _, m1 = basis.shape
    e = n * k
    dt = x.data.dtype
    q_cols = m1 * c_out  # one point's Q, columns (m, o)
    center, c = idx is not None, x.shape[1]
    rows = idx.rows if center else graph.NeighborRows(np.arange(b * e), np.arange(0), b * e, 1)
    x_pt = x.data.reshape(b, c, -1).transpose(0, 2, 1).reshape(-1, c)  # point-major
    halves = [basis.data[:, :c], basis.data[:, c:] - basis.data[:, :c]] if center else [basis.data]
    w = np.concatenate([h.transpose(1, 2, 0).reshape(c, q_cols) for h in halves], axis=1)
    pts, over = rows.points, rows.over  # x_pt @ w = [Q | R]

    def by_row(lhs, per_point):
        """lhs[r] @ per_point[point of row r] for every row r."""
        res = np.empty(lhs.shape[:2] + per_point.shape[2:], dtype=dt)
        np.matmul(lhs[:pts], per_point, out=res[:pts])
        np.matmul(lhs[pts:], per_point[over], out=res[pts:])
        return res

    def center_rows(sources):
        """R of the source points ``sources``, (points, mid+1, C_out)."""
        return np.matmul(x_pt[sources], w[:, q_cols:]).reshape(-1, m1, c_out)

    y1 = np.concatenate([coeffs.data.reshape(b, mid, e), np.ones((b, 1, e), dtype=dt)], axis=1)
    y1_pt = y1.transpose(0, 2, 1).reshape(b * n, k, m1)  # each source point's k edges
    y_rows = rows.spread(y1_pt.reshape(b * e, m1))
    q = np.matmul(x_pt, w[:, :q_cols]).reshape(pts, m1, c_out)
    prod = by_row(y_rows, q).reshape(-1, c_out)
    # each block of output values is (its items, their edges, the same
    # edges flat, their source points)
    spans = T._blocks(b, n, c_out * k)
    blocks = [(slice(i, j), slice(lo * k, hi * k), slice((i * n + lo) * k, ((j - 1) * n + hi) * k),
               slice(i * n + lo, (j - 1) * n + hi)) for i, j, lo, hi in spans]
    per_block = max([(j - i) * (hi - lo) for i, j, lo, hi in spans], default=0)
    size = per_block * k
    buf, term = np.empty((size, c_out), dtype=dt), np.empty((size, c_out), dtype=dt)
    out = np.empty((b, c_out, e), dtype=dt)
    for its, edges, flat, sources in blocks:
        # mode "clip" lets np.take write into buf; every slot is in range
        blk = np.take(prod, rows.slots[flat], 0, buf[:flat.stop - flat.start], "clip")
        if center:
            t = term[:len(blk)]
            np.matmul(y1_pt[sources], center_rows(sources), out=t.reshape(-1, k, c_out))
            blk += t
        out[its, :, edges] = blk.reshape(its.stop - its.start, -1, c_out).transpose(0, 2, 1)
    # consecutive blocks whose source points' dR is held at once in backward:
    # the points of one block at q_cols // 16 values a point (about 16
    # blocks' worth of dR), or of one output block at least
    cap = max([per_block] + [j - i for i, j, _, _ in T._blocks(b * n, 1, q_cols // 16)[:1]])
    chunks = []
    for blk in blocks:
        if chunks and blk[3].stop - chunks[-1][0][3].start <= cap:
            chunks[-1].append(blk)
        else:
            chunks.append([blk])
    n_rows, width = y_rows.shape[:2]
    row_blocks = [(start + i, start + j) for start, end in ((0, pts), (pts, n_rows))
                  for i, j, _, _ in T._blocks(end - start, 1, width * c_out)]

    def back(g):
        g = g.reshape(b, c_out, e)
        # the gradient edge-major, plus a zero row that the padding slots read
        g_em = np.empty((b * e + 1, c_out), dtype=dt)
        g_em[-1] = 0
        d_y1_center = np.empty((b * e, m1), dtype=dt) if center else None
        dx_pt = np.empty((pts, c), dtype=dt)
        dw_r = np.zeros((c, q_cols), dtype=dt) if center else None
        d_r = np.empty((cap, q_cols), dtype=dt) if center else None
        for chunk in chunks:
            first = chunk[0][3].start
            for its, edges, flat, sources in chunk:
                gb = g_em[flat]
                np.copyto(gb.reshape(its.stop - its.start, -1, c_out),
                          g[its, :, edges].transpose(0, 2, 1))
                if center:
                    g_pt = gb.reshape(-1, k, c_out)
                    np.matmul(g_pt, center_rows(sources).transpose(0, 2, 1),
                              out=d_y1_center[flat].reshape(-1, k, m1))
                    np.matmul(y1_pt[sources].transpose(0, 2, 1), g_pt,
                              out=d_r[sources.start - first:sources.stop - first]
                              .reshape(-1, m1, c_out))
            if center:  # the chunk's dR goes straight into dx and dW
                last = chunk[-1][3].stop
                held = d_r[:last - first]
                np.matmul(held, w[:, q_cols:].T, out=dx_pt[first:last])
                dw_r += x_pt[first:last].T @ held
        # the neighbor term by rows: each row's slots gather the edges' gradient
        slot_edge = np.full(n_rows * width, b * e)
        slot_edge[rows.slots] = np.arange(b * e)
        d_q = np.empty((pts, m1, c_out), dtype=dt)
        d_y1_rows = np.empty((n_rows, width, m1), dtype=dt)
        for lo, hi in row_blocks:
            d_rows = np.take(g_em, slot_edge[lo * width:hi * width], 0).reshape(-1, width, c_out)
            q_rows = q[lo:hi] if hi <= pts else q[over[lo - pts:hi - pts]]
            np.matmul(d_rows, q_rows.transpose(0, 2, 1), out=d_y1_rows[lo:hi])
            y_t = y_rows[lo:hi].transpose(0, 2, 1)
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
            d_y1.reshape(b, e, m1)[:, :, :mid].transpose(0, 2, 1)).reshape(coeffs.shape)
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
        return d_coeffs, np.ascontiguousarray(dx).reshape(x.shape), dw

    return T._make(out.reshape(b, c_out, n, k), (coeffs, x, basis), back)


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
        filtered without being formed, and the result is
        ``reduce(edge result, 3, "max")``, (B, C_out, N), with BN, activation
        and max in one op that normalizes only the edges the max keeps.

        Both residuals ride in conv1's bias as constant kernels: the identity
        I, or a projection's alpha W with proj_bn's scale alpha, so no edge
        tensor of the residual is formed. The projection's per-channel
        offset c enters ``bn_out`` as a shift of its mean."""
        cfg = self.cfg
        conv1 = self.gen.conv1
        bias = conv1.bias.value
        shift = None
        if self.eye_rows is not None:
            bias = T.add(bias, self.eye_rows)
        elif cfg.residual:
            rows, shift = self._folded_projection(feat, idx)
            bias = T.add(bias, rows)
        out = apply_heads(self.generate_kernels(geo), feat, conv1.weight.value, bias,
                          cfg.num_heads, cfg.out_channels, idx)
        if idx is None:
            # per edge: the max over one-edge neighbourhoods, so both kinds
            # end in the op the network runs
            b, c, n, k = out.shape
            edges = self.bn_out.leaky_max(T.reshape(out, (b, c, n * k, 1)), self.slope, shift)
            return T.reshape(edges, (b, c, n, k))
        return self.bn_out.leaky_max(out, self.slope, shift)
