"""Multi-head adaptive kernels: per-neighbor filter matrices predicted on the fly.

A small generator network looks at geometric edge features and defines, for
every (point, neighbor) pair, H separate C_out x C_in filter matrices that
are applied to the content features and summed over heads. A residual path
(projected when channel counts differ) and output batch norm wrap the result.

The matrices are never formed. The generator's last layer is affine in its
mid-width output y, so each edge kernel is a y-weighted mix of a shared
basis, and the head sum folds into a sum of that layer's weights. The
operator contracts the outer product of features and [y, 1] with the summed
basis in one pointwise linear map (the assembly PAConv uses). On edge
features that takes B*N*k*C_in*(mid+1) values of working memory,
independent of H and C_out. The network passes point features (B, C_p, N)
and the neighbor index instead: the edge features [x_j - x_i, x_i] are
linear in them, so only the neighbor half needs an edge operand, and
working memory falls to B*N*k*C_p*(mid+1) with C_in = 2*C_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import graph
from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import BatchNorm, Module, PointwiseLinear
from .tensor import Tensor


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
            if not isinstance(v, int) or v < 1:
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

    coeffs: (B, mid, N, k) generator coefficients y; x: (B, C_in, N, k) edge
    features; weight: (C_out * C_in * H, mid) and bias: (C_out * C_in * H,),
    the generator's last layer in the channel layout c = (o * C_in + i) * H + h,
    with C_out = ``out_channels``. Returns (B, C_out, N, k) with

        out[b,:,n,j] = sum_h W_h[b,n,j] @ x[b,:,n,j],
        W_h[b,n,j][o,i] = weight[(o*C_in+i)*H+h] @ y[b,:,n,j] + bias[(o*C_in+i)*H+h].

    Heads fold exactly into summed weights A = sum_h A_h, b = sum_h b_h, and
    out = (x outer [y, 1]) contracted with [A, b]: one pointwise linear map
    over C_in * (mid + 1) channels. Memory does not grow with H.

    With ``idx``, x holds point features (B, C_p, N) and the result equals
    ``apply_heads(coeffs, graph_feature(x, idx), ...)`` with C_in = 2 C_p,
    but neither edge tensor is formed: working memory is B*N*k*C_p*(mid+1)
    values, half of the edge form's, and the network uses this form. See
    :func:`_apply_heads_to_points`.
    """
    if heads < 1:
        raise ConfigError("head count must be at least 1")
    if out_channels < 1:
        raise ConfigError("out_channels must be at least 1")
    if coeffs.ndim != 4:
        raise ShapeError(f"coefficients must be (B, mid, N, k), got {coeffs.shape}")
    b, mid, n, k = coeffs.shape
    c_out = out_channels
    if idx is None:
        if x.ndim != 4:
            raise ShapeError(f"features must be (B, C_in, N, k), got {x.shape}")
        c_in = x.shape[1]
        if x.shape != (b, c_in, n, k):
            raise ShapeError(
                f"features {x.shape} do not match coefficients (B={b}, N={n}, k={k})")
    else:
        if x.ndim != 3:
            raise ShapeError(f"point features must be (B, C_p, N), got {x.shape}")
        c_in = 2 * x.shape[1]
        if x.shape != (b, x.shape[1], n):
            raise ShapeError(
                f"point features {x.shape} do not match coefficients (B={b}, N={n})")
        if idx.indices.shape != (b, n, k):
            raise ShapeError(
                f"neighbor index {idx.indices.shape} does not match coefficients "
                f"(B={b}, N={n}, k={k})")
    rows = c_out * c_in * heads
    if weight.shape != (rows, mid):
        raise ShapeError(
            f"weight must be ({c_out}*{c_in}*{heads}, {mid}) = ({rows}, {mid}), "
            f"got {weight.shape}")
    if bias.shape != (rows,):
        raise ShapeError(f"bias must be ({rows},), got {bias.shape}")
    if idx is not None:
        return _apply_heads_to_points(coeffs, x, weight, bias, heads, c_out, idx)

    a_sum = T.reduce_sum(T.reshape(weight, (c_out, c_in, heads, mid)), axis=2)
    b_sum = T.reduce_sum(T.reshape(bias, (c_out, c_in, heads, 1)), axis=2)
    basis = T.reshape(T.concat([a_sum, b_sum], axis=2), (c_out, c_in * (mid + 1)))
    ones = Tensor(np.ones((b, 1, n, k)), dtype=coeffs.dtype)
    y1 = T.reshape(T.concat([coeffs, ones], axis=1), (b, 1, mid + 1, n, k))
    outer = T.mul(T.reshape(x, (b, c_in, 1, n, k)), y1)  # (B, C_in, mid+1, N, k)
    return T.pointwise_linear(T.reshape(outer, (b, c_in * (mid + 1), n, k)), basis)


# Values per batch chunk of the neighbor term's edge operand: about 1 MB in
# f32, so a chunk's product stays in cache and its buffers are reused.
_CHUNK_VALUES = 1 << 18


def _apply_heads_to_points(coeffs: Tensor, x: Tensor, weight: Tensor, bias: Tensor,
                           heads: int, c_out: int, idx: graph.NeighborIndex) -> Tensor:
    """``apply_heads(coeffs, graph_feature(x, idx), ...)`` from point features.

    The head-summed basis [A | b] (C_out, 2C, mid+1) splits into A_a, acting
    on x_j - x_i, and A_b, acting on x_i. With y1 = [y, 1]:

        out = A_a (x_j outer y1) + sum_m y1_m ((A_b - A_a)_m x)_i.

    The neighbor term is one pointwise map over C * (mid+1) edge channels,
    half of the edge form's, built and applied a few batch items at a time.
    The center term is a per-point product (C_out*(mid+1), C) @ x, then per
    point a (C_out, mid+1) @ (mid+1, k) matmul with that point's
    coefficients. Backward keeps the gathered neighbors (B, C, N, k) and y1
    (B, mid+1, N, k) and rebuilds each chunk's outer product from them.
    """
    b, mid, n, k = coeffs.shape
    c = x.shape[1]
    m1, e = mid + 1, n * k
    dt = x.data.dtype
    summed = np.empty((c_out, 2 * c, m1), dtype=dt)
    summed[..., :mid] = weight.data.reshape(c_out, 2 * c, heads, mid).sum(axis=2)
    summed[..., mid] = bias.data.reshape(c_out, 2 * c, heads).sum(axis=2)
    a_nb = np.ascontiguousarray(summed[:, :c]).reshape(c_out, c * m1)  # columns (i, m)
    # rows (o, m): the center map, one (C_out, mid+1) block per input channel
    center_w = (summed[:, c:] - summed[:, :c]).transpose(0, 2, 1).reshape(c_out * m1, c)
    y1 = np.empty((b, m1, n, k), dtype=dt)
    y1[:, :mid] = coeffs.data
    y1[:, mid] = 1
    y1_pt = y1.transpose(0, 2, 1, 3)  # (B, N, mid+1, k)
    y1_edges = y1.reshape(b, 1, m1, e)
    nb = T._gather(x.data, idx.indices).reshape(b, c, 1, e)
    step = max(1, _CHUNK_VALUES // (c * m1 * e))
    chunks = [(lo, min(lo + step, b)) for lo in range(0, b, step)]
    scratch = np.empty((min(step, b), c, m1, e), dtype=dt)

    def outer(lo, hi):
        """x_j outer y1 of batch items [lo, hi), written into ``scratch``."""
        o = scratch[:hi - lo]
        np.multiply(nb[lo:hi], y1_edges[lo:hi], out=o)
        return o

    out = np.empty((b, c_out, e), dtype=dt)
    for lo, hi in chunks:
        np.matmul(a_nb, outer(lo, hi).reshape(hi - lo, c * m1, e), out=out[lo:hi])
    out = out.reshape(b, c_out, n, k)
    x_pt = x.data.transpose(0, 2, 1)  # (B, N, C)
    center = np.matmul(x_pt, center_w.T).reshape(b, n, c_out, m1)
    out += np.matmul(center, y1_pt).transpose(0, 2, 1, 3)

    def back(g):
        g3 = g.reshape(b, c_out, e)
        d_a = np.zeros((c_out, c * m1), dtype=dt)  # columns (i, m), like a_nb
        d_y1 = np.empty((b, m1, e), dtype=dt)
        d_nb = np.empty((b, c, e), dtype=dt)
        d_outer = np.empty_like(scratch)
        for lo, hi in chunks:
            o = outer(lo, hi)
            d_a += np.matmul(g3[lo:hi], o.reshape(hi - lo, c * m1, e).transpose(0, 2, 1)).sum(
                axis=0)
            d = d_outer[:hi - lo]
            np.matmul(a_nb.T, g3[lo:hi], out=d.reshape(hi - lo, c * m1, e))
            np.multiply(d, nb[lo:hi], out=o)
            o.sum(axis=1, out=d_y1[lo:hi])
            d *= y1_edges[lo:hi]
            d.sum(axis=2, out=d_nb[lo:hi])
        dx = T._scatter_add(d_nb.reshape(b, c, n, k), idx.indices, n)

        g_pt = g.transpose(0, 2, 1, 3)  # (B, N, C_out, k)
        d_center = np.matmul(g_pt, y1_pt.transpose(0, 1, 3, 2))  # (B, N, C_out, mid+1)
        d_y1 += np.matmul(center.transpose(0, 1, 3, 2), g_pt).transpose(0, 2, 1, 3).reshape(
            b, m1, e)
        d_center = d_center.reshape(b * n, c_out * m1)
        dx += np.matmul(d_center, center_w).reshape(b, n, c).transpose(0, 2, 1)
        d_cw = np.matmul(d_center.T, x_pt.reshape(b * n, c))  # (C_out*(mid+1), C)
        d_cw = d_cw.reshape(c_out, m1, c).transpose(0, 2, 1)
        d_summed = np.concatenate([d_a.reshape(c_out, c, m1) - d_cw, d_cw], axis=1)
        d_heads = np.broadcast_to(d_summed[:, :, None], (c_out, 2 * c, heads, m1))
        d_w = d_heads[..., :mid].reshape(c_out * 2 * c * heads, mid)
        d_b = d_heads[..., mid].reshape(c_out * 2 * c * heads)
        return d_y1[:, :mid].reshape(b, mid, n, k), dx, d_w, d_b

    return T._make(out, (coeffs, x, weight, bias), back)


class MultiHeadAdaptiveKernel(Module):
    """The full operator: generate kernels from geometry, filter the features,
    add the (possibly projected) residual, normalize, activate."""

    def __init__(self, cfg: MakConfig, rng: np.random.Generator,
                 dtype: str = "f32", leaky_slope: float = 0.2):
        super().__init__()
        self.cfg = cfg
        self.slope = leaky_slope
        self.gen = _KernelGenerator(cfg, rng, dtype=dtype, leaky_slope=leaky_slope)
        if cfg.residual and cfg.in_channels != cfg.out_channels:
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

    def forward(self, geo: Tensor, feat: Tensor,
                idx: Optional[graph.NeighborIndex] = None) -> Tensor:
        """geo: (B, C_geo, N, k) generator input.

        Without ``idx``, feat holds edge features (B, C_in, N, k) and the
        result is per edge, (B, C_out, N, k). With it, the stage maps points
        to points, as the network uses it: feat holds point features
        (B, C_in / 2, N) whose edge features ``graph_feature(feat, idx)`` are
        filtered without being formed (the residual forms them only for an
        identity path), and the result is ``reduce(edge result, 3, "max")``,
        (B, C_out, N), with BN, activation and max in one op that normalizes
        only the edges the max keeps."""
        cfg = self.cfg
        conv1 = self.gen.conv1
        if idx is None:
            if feat.ndim != 4 or feat.shape[1] != cfg.in_channels:
                raise ShapeError(
                    f"features must be (B, {cfg.in_channels}, N, k), got {feat.shape}")
            if feat.shape[0] != geo.shape[0] or feat.shape[2:] != geo.shape[2:]:
                raise ShapeError(
                    f"geometry {geo.shape} and features {feat.shape} disagree on B/N/k")
            out = apply_heads(self.generate_kernels(geo), feat, conv1.weight.value,
                              conv1.bias.value, cfg.num_heads, cfg.out_channels)
        else:
            if feat.ndim != 3 or 2 * feat.shape[1] != cfg.in_channels:
                raise ShapeError(
                    f"point features must be (B, {cfg.in_channels // 2}, N), "
                    f"got {feat.shape}")
            out = apply_heads(self.generate_kernels(geo), feat, conv1.weight.value,
                              conv1.bias.value, cfg.num_heads, cfg.out_channels, idx)
        if cfg.residual:
            if cfg.in_channels == cfg.out_channels:
                identity = feat if idx is None else graph.graph_feature(feat, idx)
            elif idx is None:
                identity = self.proj_bn(self.proj(feat))
            else:
                identity = self.proj_bn(graph.edge_linear(feat, idx, self.proj.weight.value))
            out = T.add(out, identity)
        if idx is None:
            return T.leaky_relu(self.bn_out(out), self.slope)
        return self.bn_out.leaky_max(out, self.slope)
