"""Multi-head adaptive kernels: per-neighbor filter matrices predicted on the fly.

A small generator network looks at geometric edge features and defines, for
every (point, neighbor) pair, H separate C_out x C_in filter matrices that
are applied to the content features and summed over heads. A residual path
(projected when channel counts differ) and output batch norm wrap the result.

The matrices are never formed. The generator's last layer is affine in its
mid-width output y, so each edge kernel is a y-weighted mix of a shared
basis, and the head sum folds into a sum of that layer's weights. The
operator contracts the outer product of features and [y, 1] with the summed
basis in one pointwise linear map (the assembly PAConv uses). Working memory
is B*N*k*C_in*(mid+1) values, independent of H and C_out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
                heads: int, out_channels: int) -> Tensor:
    """Apply every edge's generated kernels to its features and sum over heads,
    without forming the kernels.

    coeffs: (B, mid, N, k) generator coefficients y; x: (B, C_in, N, k);
    weight: (C_out * C_in * H, mid) and bias: (C_out * C_in * H,), the
    generator's last layer in the channel layout c = (o * C_in + i) * H + h,
    with C_out = ``out_channels``. Returns (B, C_out, N, k) with

        out[b,:,n,j] = sum_h W_h[b,n,j] @ x[b,:,n,j],
        W_h[b,n,j][o,i] = weight[(o*C_in+i)*H+h] @ y[b,:,n,j] + bias[(o*C_in+i)*H+h].

    Heads fold exactly into summed weights A = sum_h A_h, b = sum_h b_h, and
    out = (x outer [y, 1]) contracted with [A, b]: one pointwise linear map
    over C_in * (mid + 1) channels. Memory does not grow with H.
    """
    if heads < 1:
        raise ConfigError("head count must be at least 1")
    if out_channels < 1:
        raise ConfigError("out_channels must be at least 1")
    if coeffs.ndim != 4:
        raise ShapeError(f"coefficients must be (B, mid, N, k), got {coeffs.shape}")
    if x.ndim != 4:
        raise ShapeError(f"features must be (B, C_in, N, k), got {x.shape}")
    b, mid, n, k = coeffs.shape
    c_in = x.shape[1]
    c_out = out_channels
    if x.shape != (b, c_in, n, k):
        raise ShapeError(
            f"features {x.shape} do not match coefficients (B={b}, N={n}, k={k})")
    rows = c_out * c_in * heads
    if weight.shape != (rows, mid):
        raise ShapeError(
            f"weight must be ({c_out}*{c_in}*{heads}, {mid}) = ({rows}, {mid}), "
            f"got {weight.shape}")
    if bias.shape != (rows,):
        raise ShapeError(f"bias must be ({rows},), got {bias.shape}")

    a_sum = T.reduce_sum(T.reshape(weight, (c_out, c_in, heads, mid)), axis=2)
    b_sum = T.reduce_sum(T.reshape(bias, (c_out, c_in, heads, 1)), axis=2)
    basis = T.reshape(T.concat([a_sum, b_sum], axis=2), (c_out, c_in * (mid + 1)))
    ones = Tensor(np.ones((b, 1, n, k)), dtype=coeffs.dtype)
    y1 = T.reshape(T.concat([coeffs, ones], axis=1), (b, 1, mid + 1, n, k))
    outer = T.mul(T.reshape(x, (b, c_in, 1, n, k)), y1)  # (B, C_in, mid+1, N, k)
    return T.pointwise_linear(T.reshape(outer, (b, c_in * (mid + 1), n, k)), basis)


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

    def forward(self, geo: Tensor, feat: Tensor) -> Tensor:
        cfg = self.cfg
        if feat.ndim != 4 or feat.shape[1] != cfg.in_channels:
            raise ShapeError(
                f"features must be (B, {cfg.in_channels}, N, k), got {feat.shape}")
        if feat.shape[0] != geo.shape[0] or feat.shape[2:] != geo.shape[2:]:
            raise ShapeError(
                f"geometry {geo.shape} and features {feat.shape} disagree on B/N/k")
        conv1 = self.gen.conv1
        out = apply_heads(self.generate_kernels(geo), feat, conv1.weight.value,
                          conv1.bias.value, cfg.num_heads, cfg.out_channels)
        if cfg.residual:
            if cfg.in_channels == cfg.out_channels:
                identity = feat
            else:
                identity = self.proj_bn(self.proj(feat))
            out = T.add(out, identity)
        return T.leaky_relu(self.bn_out(out), self.slope)
