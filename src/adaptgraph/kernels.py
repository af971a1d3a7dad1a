"""Multi-head adaptive kernels: per-neighbor filter matrices predicted on the fly.

A small generator network looks at geometric edge features and defines, for
every (point, neighbor) pair, H separate C_out x C_in filter matrices that
are applied to the content features and summed over heads. A residual path
(projected when channel counts differ) and output batch norm wrap the result.

The matrices are never formed. The generator's last layer is affine in its
mid-width output y, so each edge kernel is a y-weighted mix of a shared
basis, and the head sum folds into a sum of that layer's weights. One
contraction applies them: an edge operand outer [y, 1] against the summed
basis [A | b] (the assembly PAConv uses), one cache-sized chunk at a time, in
working memory independent of H and C_out. The operand comes in two kinds.
Edge features (B, C_in, N, k) are their own operand. Point features
(B, C_p, N) with a neighbor index stand for the edge features
[x_j - x_i, x_i], which are linear in them: the gathered neighbors x_j are
the operand, the x_i half becomes a per-point product, and working memory
falls to B*N*k*C_p*(mid+1) with C_in = 2*C_p. The network uses point
features; edge features serve as the reference form.

An identity residual is the constant kernel I. It adds to b, so the ones
channel of the operand adds each edge's features x_e themselves, for both
kinds (structural re-parameterisation, as in RepVGG). A projected residual
is folded into the basis the same way: its batch norm is, per channel,
alpha * (W x_e) + c, so the constant kernel alpha * W adds to b. In train
mode alpha comes from the batch moments of W x_e (per-point products for
point features), and c cancels under the output batch norm's batch mean;
in eval mode c shifts that norm's mean. No residual forms a feature of its
own.
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

    Heads fold exactly into summed weights A = sum_h A_h, b = sum_h b_h, and
    out is the basis [A | b] (C_out, C_in, mid + 1) contracted with
    x outer [y, 1]: one operator, :func:`_contract`, for both kinds. Memory
    does not grow with H.
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


# Values per chunk of the edge operand outer y1: about 1 MB in f32, so a
# chunk's product stays in cache and its buffers are reused.
_CHUNK_VALUES = 1 << 18


def _contract(coeffs: Tensor, x: Tensor, basis: Tensor,
              idx: Optional[graph.NeighborIndex]) -> Tensor:
    """The contraction behind :func:`apply_heads`: with y1 = [y, 1] and the
    basis [A | b] (C_out, C_in, mid+1), out = basis . (x_e outer y1), summed
    over the C_in * (mid+1) channels of each edge.

    Without ``idx`` the edge features x_e are x itself, and the edge operand
    is x. With it, x_e = [x_j - x_i, x_i] with C_in = 2C. The basis splits
    into A_a, acting on x_j - x_i, and A_b, acting on x_i:

        out = A_a (x_j outer y1) + sum_m y1_m ((A_b - A_a)_m x)_i,

    so the edge operand is the gathered neighbors x_j (B, C, N, k), and the
    center term is a per-point product (C_out*(mid+1), C) @ x, then per
    point a (C_out, mid+1) @ (mid+1, k) matmul with that point's
    coefficients.

    The edge term is one matmul over the C * (mid+1) channels of the edge
    operand outer y1, built one chunk at a time in one scratch buffer: a run
    of at most ``_CHUNK_VALUES`` // (C * (mid+1)) edges inside one batch item
    (at least one edge, at most the item's N * k). Backward keeps the edge
    operand and y1 (B, mid+1, N, k) and rebuilds each chunk's outer product
    from them. Only the basis gradient is summed across chunks, so it alone
    depends on the chunk size, in the order of its sum.
    """
    b, mid, n, k = coeffs.shape
    c_out, c_in, m1 = basis.shape
    c = c_in if idx is None else c_in // 2
    e = n * k
    dt = x.data.dtype
    a_nb = np.ascontiguousarray(basis.data[:, :c]).reshape(c_out, c * m1)  # columns (i, m)
    y1 = np.empty((b, m1, n, k), dtype=dt)
    y1[:, :mid] = coeffs.data
    y1[:, mid] = 1
    y1_edges = y1.reshape(b, 1, m1, e)
    nb = (x.data if idx is None else graph._gather(x.data, idx.indices)).reshape(b, c, 1, e)
    per_edge = c * m1
    step = min(e, max(1, _CHUNK_VALUES // per_edge))
    chunks = [(i, slice(lo, lo + step)) for i in range(b) for lo in range(0, e, step)]
    scratch = np.empty(per_edge * step, dtype=dt)

    def outer(item, edges):
        """Edge operand outer y1 of one chunk, (C, mid+1, edges), written
        into the front of ``scratch``."""
        src = nb[item, :, :, edges]
        o = scratch[:src.size * m1].reshape(c, m1, src.shape[2])
        np.multiply(src, y1_edges[item, :, :, edges], out=o)
        return o

    out = np.empty((b, c_out, e), dtype=dt)
    for item, edges in chunks:
        o = outer(item, edges)
        np.matmul(a_nb, o.reshape(per_edge, o.shape[2]), out=out[item, :, edges])
    out = out.reshape(b, c_out, n, k)
    if idx is not None:
        # rows (o, m): the center map, one (C_out, mid+1) block per input channel
        center_w = (basis.data[:, c:] - basis.data[:, :c]).transpose(0, 2, 1).reshape(
            c_out * m1, c)
        y1_pt = y1.transpose(0, 2, 1, 3)  # (B, N, mid+1, k)
        x_pt = x.data.transpose(0, 2, 1)  # (B, N, C)
        center = np.matmul(x_pt, center_w.T).reshape(b, n, c_out, m1)
        term = np.empty_like(out)  # in out's layout, so the add runs contiguously
        np.matmul(center, y1_pt, out=term.transpose(0, 2, 1, 3))
        out += term

    def back(g):
        g3 = g.reshape(b, c_out, e)
        d_a = np.zeros((c_out, c * m1), dtype=dt)  # columns (i, m), like a_nb
        d_y1 = np.empty((b, m1, e), dtype=dt)
        d_nb = np.empty((b, c, e), dtype=dt)
        d_outer = np.empty_like(scratch)
        for item, edges in chunks:
            o = outer(item, edges)
            o2 = o.reshape(per_edge, o.shape[2])
            g_chunk = g3[item, :, edges]
            d_a += np.matmul(g_chunk, o2.T)
            d = d_outer[:o.size].reshape(o.shape)
            np.matmul(a_nb.T, g_chunk, out=d.reshape(o2.shape))
            np.multiply(d, nb[item, :, :, edges], out=o)
            o.sum(axis=0, out=d_y1[item, :, edges])
            d *= y1_edges[item, :, :, edges]
            d.sum(axis=1, out=d_nb[item, :, edges])
        d_a = d_a.reshape(c_out, c, m1)
        if idx is None:
            return d_y1[:, :mid].reshape(b, mid, n, k), d_nb.reshape(x.shape), d_a
        dx = graph._scatter_add(d_nb.reshape(b, c, n, k), idx.indices, n)

        g_pt = g.transpose(0, 2, 1, 3)  # (B, N, C_out, k)
        d_center = np.matmul(g_pt, y1_pt.transpose(0, 1, 3, 2))  # (B, N, C_out, mid+1)
        d_y1 += np.matmul(center.transpose(0, 1, 3, 2), g_pt).transpose(0, 2, 1, 3).reshape(
            b, m1, e)
        d_center = d_center.reshape(b * n, c_out * m1)
        dx += np.matmul(d_center, center_w).reshape(b, n, c).transpose(0, 2, 1)
        d_cw = np.matmul(d_center.T, x_pt.reshape(b * n, c))  # (C_out*(mid+1), C)
        d_cw = d_cw.reshape(c_out, m1, c).transpose(0, 2, 1)
        d_basis = np.concatenate([d_a - d_cw, d_cw], axis=1)
        return d_y1[:, :mid].reshape(b, mid, n, k), dx, d_basis

    return T._make(out, (coeffs, x, basis), back)


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
    gamma, _, running_mean, running_var, mode = bn._state()
    dt = x.data.dtype
    c_out = weight.shape[0]
    parents = (x, weight, gamma)
    moments = None
    if mode == "train":
        recording = T._recording(*parents)
        if idx is None:  # the reference form: project every edge
            if x.ndim != 4 or weight.shape[1] != x.shape[1]:
                raise ShapeError(f"features (B, {weight.shape[1]}, N, k) expected, "
                                 f"got {x.shape}")
            xm = T._columns(x.data)
            z = weight.data @ xm  # (C_out, edges)
            m = z.shape[1]
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
            stacked, per_point = graph._per_point(x, weight)
            moments, terms = graph._edge_moments(per_point[:, :c_out], per_point[:, c_out:],
                                                 idx.indices, recording)

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
