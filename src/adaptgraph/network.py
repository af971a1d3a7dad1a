"""Five-stage point-cloud activity classifier and its ablation variants.

The input cloud (B, C, N) is turned into edge features over a single shared
KNN structure. Four stages (adaptive-kernel or conventional graph-conv,
depending on the variant) each map points to points, from the previous
stage's (B, C, N) features and the neighbor index. An adaptive stage
computes per-edge responses, then batch-normalizes, activates and max-pools
them over the neighbor axis in one op that normalizes only the edges the max
keeps. A conventional stage does the same from per-point products alone and
forms no per-edge array. Stage outputs are fused by channel concatenation,
embedded, globally max+mean pooled, and classified by a small FC stack.

Kernel-generating stages always see the edge features of the raw input
coordinates, so geometry stays anchored to the original cloud no matter how
deep the feature path gets.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

from . import graph
from . import tensor as T
from .errors import ConfigError, InvalidInputError, ShapeError, UsageError
from .kernels import MakConfig, MultiHeadAdaptiveKernel, _positive_int
from .nn import BatchNorm, Module, PointwiseLinear
from .tensor import Tensor


class Variant(Enum):
    """Stage layouts from the ablation study, in report order."""
    MAK_ONLY = "mak-only"            # four adaptive stages, classifier on stage 4
    MAK_FF = "mak-ff"                # four adaptive stages + fusion
    SANDWICH_FF = "sandwich-ff"      # adaptive/conv alternating + fusion
    SEQUENTIAL_FF = "sequential-ff"  # two adaptive then two conv + fusion

    @classmethod
    def from_string(cls, s: str) -> "Variant":
        for v in cls:
            if v.value == s:
                return v
        choices = ", ".join(v.value for v in cls)
        raise ConfigError(f"unknown variant {s!r}; choose one of: {choices}")


_STAGE_KINDS = {
    Variant.MAK_ONLY: ("mak", "mak", "mak", "mak"),
    Variant.MAK_FF: ("mak", "mak", "mak", "mak"),
    Variant.SANDWICH_FF: ("mak", "conv", "mak", "conv"),
    Variant.SEQUENTIAL_FF: ("mak", "mak", "conv", "conv"),
}


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 3
    k: int = 20
    num_heads: int = 1
    stage_widths: tuple = (64, 64, 128, 256)
    emb_dims: int = 1024
    fc_widths: tuple = (512, 256)
    num_classes: int = 5
    variant: Variant = Variant.SEQUENTIAL_FF
    dropout: float = 0.5
    leaky_slope: float = 0.2
    mak_mid_channels: int = 8

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("in_channels", "k", "num_heads", "emb_dims", "mak_mid_channels"):
            v = getattr(self, name)
            if not _positive_int(v):
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if len(self.stage_widths) != 4:
            raise ConfigError(
                f"stage_widths needs exactly 4 entries, got {len(self.stage_widths)}")
        if not all(_positive_int(w) for w in self.stage_widths):
            raise ConfigError(f"stage_widths entries must be positive, got {self.stage_widths}")
        if not self.fc_widths or not all(_positive_int(w) for w in self.fc_widths):
            raise ConfigError(f"fc_widths must be non-empty positive ints, got {self.fc_widths}")
        if not _positive_int(self.num_classes) or self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes!r}")
        if not isinstance(self.variant, Variant):
            raise ConfigError(f"variant must be a Variant, got {self.variant!r}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0 <= self.leaky_slope < 1:
            raise ConfigError(f"leaky_slope must be in [0, 1), got {self.leaky_slope}")


@dataclass(frozen=True)
class _Stage:
    name: str
    kind: str          # "mak" or "conv"
    in_channels: int   # channels of the edge-feature input (2 * previous width)
    out_channels: int


def _stage_plan(cfg: ModelConfig) -> list:
    stages = []
    prev = cfg.in_channels
    for pos, (kind, width) in enumerate(zip(_STAGE_KINDS[cfg.variant], cfg.stage_widths), 1):
        stages.append(_Stage(name=f"{kind}{pos}", kind=kind,
                             in_channels=2 * prev, out_channels=width))
        prev = width
    return stages


def _fusion_width(cfg: ModelConfig) -> int:
    if cfg.variant is Variant.MAK_ONLY:
        return cfg.stage_widths[-1]
    return sum(cfg.stage_widths)


class ActivityNet(Module):
    """The assembled classifier. Build through :func:`build` for seeded init."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype: str = "f32"):
        super().__init__()
        self.cfg = cfg
        self.dtype = dtype
        self.slope = cfg.leaky_slope
        plan = _stage_plan(cfg)
        self._stages = [(s.name, s.kind) for s in plan]
        gen_in = 2 * cfg.in_channels
        for s in plan:
            if s.kind == "mak":
                mak_cfg = MakConfig(
                    in_channels=s.in_channels, out_channels=s.out_channels,
                    gen_in_channels=gen_in, num_heads=cfg.num_heads,
                    mid_channels=cfg.mak_mid_channels, residual=True)
                setattr(self, s.name,
                        MultiHeadAdaptiveKernel(mak_cfg, rng, dtype=dtype,
                                                leaky_slope=cfg.leaky_slope))
            else:
                setattr(self, s.name, _ConvBlock(s.in_channels, s.out_channels,
                                                 rng, dtype, cfg.leaky_slope))
        self.fuse = PointwiseLinear(_fusion_width(cfg), cfg.emb_dims, rng,
                                    bias=False, dtype=dtype)
        self.fuse_bn = BatchNorm(cfg.emb_dims, dtype=dtype)
        prev = 2 * cfg.emb_dims
        self._fc_names = []
        for i, w in enumerate(cfg.fc_widths, 1):
            setattr(self, f"fc{i}", PointwiseLinear(prev, w, rng, bias=False, dtype=dtype))
            setattr(self, f"fc_bn{i}", BatchNorm(w, dtype=dtype))
            self._fc_names.append((f"fc{i}", f"fc_bn{i}"))
            prev = w
        self.head = PointwiseLinear(prev, cfg.num_classes, rng, bias=True, dtype=dtype)

    def forward(self, x: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        cfg = self.cfg
        if x.ndim != 3:
            raise ShapeError(f"input must be (B, C, N), got {x.shape}")
        if x.shape[1] != cfg.in_channels:
            raise InvalidInputError(
                f"input has {x.shape[1]} channels, model expects {cfg.in_channels}")
        if x.shape[2] < cfg.k:
            raise InvalidInputError(f"N={x.shape[2]} is smaller than k={cfg.k}")
        if self.training and cfg.dropout > 0 and rng is None:
            raise UsageError("training-mode forward with dropout needs an rng")

        idx = graph.knn(x, cfg.k)              # computed once, shared below
        geo = graph.graph_feature(x, idx)      # (B, 2C, N, k), anchored to x

        outs = []
        prev = None
        for name, kind in self._stages:
            stage = getattr(self, name)
            points = x if prev is None else prev
            y = stage(geo, points, idx) if kind == "mak" else stage(points, idx)
            outs.append(y)                     # (B, width, N)
            prev = y

        fused = outs[-1] if cfg.variant is Variant.MAK_ONLY else T.concat(outs, 1)
        # embed, normalize, activate, then max and mean over points: (B, 2 emb)
        h = self.fuse_bn.linear_pool(fused, self.fuse.weight.value, self.slope)
        for fc_name, bn_name in self._fc_names:
            h = T.leaky_relu(getattr(self, bn_name)(getattr(self, fc_name)(h)), self.slope)
            if self.training and cfg.dropout > 0:
                h = T.dropout(h, cfg.dropout, rng)
        return self.head(h)


class _ConvBlock(Module):
    """Conventional stage (DGCNN's EdgeConv): pointwise conv + BN + LeakyReLU
    on edge features, max-pooled over the neighbors.

    Maps points (B, C_in / 2, N) to points (B, C_out, N) in one op,
    :func:`graph.edge_conv` (via :meth:`BatchNorm.edge_conv`): the conv is
    applied per point instead of per edge, and the max, the batch-norm
    statistics and the gradients come from per-point products, so no
    (B, C_out, N, k) edge tensor is formed."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator, dtype: str, slope: float):
        super().__init__()
        self.slope = slope
        self.conv = PointwiseLinear(in_channels, out_channels, rng, bias=False, dtype=dtype)
        self.bn = BatchNorm(out_channels, dtype=dtype)

    def forward(self, points: Tensor, idx: graph.NeighborIndex) -> Tensor:
        return self.bn.edge_conv(points, idx, self.conv.weight.value, self.slope)


def build(cfg: ModelConfig, seed: int, dtype: str = "f32") -> ActivityNet:
    """Construct a model with deterministic, seed-keyed initialization."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return ActivityNet(cfg, rng, dtype=dtype)


def config_to_dict(cfg) -> dict:
    """JSON-ready form of a config dataclass (ModelConfig, PipelineConfig,
    SynthSpec, TrainConfig, ...): enums by value, tuples as lists."""
    d = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, Enum):
            v = v.value
        elif isinstance(v, tuple):
            v = list(v)
        d[f.name] = v
    return d


def _decode_field(v, default):
    """Coerce one JSON value to the type of a field's default, refusing lossy
    coercions: a bool or a string for a number, a fractional float for an int."""
    if isinstance(default, Variant):
        return Variant.from_string(v)
    if isinstance(default, tuple):
        if not isinstance(v, (list, tuple)):
            raise TypeError(f"expected a list, got {type(v).__name__}")
        return tuple(_decode_field(w, default[0]) for w in v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    if isinstance(default, int) and isinstance(v, float) and not v.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return type(default)(v)


def config_from_dict(d: dict, cls=ModelConfig):
    """Inverse of :func:`config_to_dict` for the dataclass ``cls``.

    The dict usually comes from a checkpoint or run manifest, so every field
    is required, an unknown key is an error, and each value is coerced to the
    type of its field's default (tuple elements to the type of the default's
    elements). Any failure, including the config's own validation, raises
    ConfigError naming the field."""
    name = cls.__name__
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(d).__name__}")
    known = [f.name for f in fields(cls)]
    for key in d:
        if key not in known:
            raise ConfigError(f"{name} has unknown field {key!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            raise ConfigError(f"{name} is missing field {f.name!r}")
        try:
            kwargs[f.name] = _decode_field(d[f.name], f.default)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"{name} field {f.name!r} is malformed: {e}") from None
    return cls(**kwargs)


# ---------------------------------------------------------------------
# analytical cost model
# ---------------------------------------------------------------------

def count_params(cfg: ModelConfig) -> int:
    """Closed-form trainable-parameter total; equals the built model exactly."""
    mid = cfg.mak_mid_channels
    gen_in = 2 * cfg.in_channels
    total = 0
    for s in _stage_plan(cfg):
        ci, co = s.in_channels, s.out_channels
        if s.kind == "mak":
            full = co * ci * cfg.num_heads
            total += gen_in * mid + 2 * mid          # conv0 + bn0
            total += mid * mid + 2 * mid             # conv_mid + bn_mid
            total += mid * full + full               # conv1 weight + bias
            if ci != co:
                total += ci * co + 2 * co            # residual projection + bn
            total += 2 * co                          # bn_out
        else:
            total += ci * co + 2 * co
    total += _fusion_width(cfg) * cfg.emb_dims + 2 * cfg.emb_dims
    prev = 2 * cfg.emb_dims
    for w in cfg.fc_widths:
        total += prev * w + 2 * w
        prev = w
    total += prev * cfg.num_classes + cfg.num_classes
    return total


def count_macs(cfg: ModelConfig, n_points: int) -> int:
    """Multiply-accumulate count for one sample with N points.

    Only true multiply-accumulates are counted: the pairwise-distance matmul,
    every pointwise affine map over its grid, and the per-neighbor kernel
    application. Comparisons (top-k, max-pool) and BN/activation arithmetic
    are excluded.

    This is the paper's cost formula, which generates every edge's H kernels
    and applies them; it is not the work executed. An adaptive stage folds
    the heads and the generator's last stage into one map, and works from
    its input points (C_p = C_in / 2 channels) rather than their edge
    features: about C_p * (mid + 1) * C_out MACs per edge for the neighbor
    term plus (mid + 1) * C_out for the center term, instead of
    mid * full + full, and its projected residual is folded into that map
    as a constant kernel, costing nothing per edge. A conv
    stage applies its weight per point (:func:`graph.edge_conv`),
    C_in * C_out MACs per point instead of per edge, k times fewer; in
    training its batch statistics add two (N, N) neighbor-adjacency
    products, 2 N^2 C_out MACs per sample. The count is of one forward: in
    training an adaptive stage's backward forms its edge responses again
    (one GEMM for the projections Q, then the neighbor and center terms of
    every edge), work a backward count would add. A throughput computed
    from this count (GMAC/s) therefore reads higher than the arithmetic
    actually done.
    """
    if n_points < cfg.k:
        raise InvalidInputError(f"N={n_points} is smaller than k={cfg.k}")
    mid = cfg.mak_mid_channels
    gen_in = 2 * cfg.in_channels
    grid = n_points * cfg.k
    total = cfg.in_channels * n_points * n_points    # pairwise similarity
    for s in _stage_plan(cfg):
        ci, co = s.in_channels, s.out_channels
        if s.kind == "mak":
            full = co * ci * cfg.num_heads
            total += gen_in * mid * grid             # generator conv0
            total += mid * mid * grid                # generator conv_mid
            total += mid * full * grid               # generator final stage
            total += full * grid                     # kernel application
            if ci != co:
                total += ci * co * grid              # residual projection
        else:
            total += ci * co * grid
    total += _fusion_width(cfg) * cfg.emb_dims * n_points
    prev = 2 * cfg.emb_dims
    for w in cfg.fc_widths:
        total += prev * w
        prev = w
    total += prev * cfg.num_classes
    return total
