"""Parameters, plain-attribute modules and the two layer primitives the
network is built from.

A module holds its parameters and submodules as ordinary attributes; no
registry or attribute hook tracks them, and a walk of ``vars`` finds them.

In eval mode under ``no_grad`` a module holds the arrays that depend only on
its parameters and running statistics (:meth:`Module._constant`), as RepVGG
folds inference-time structure once at deploy time, and marks the arrays
they came from read-only until ``train()``, ``eval()`` or
``checkpoint.load_state`` drops them (:meth:`Module.release`)."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from . import graph
from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple, dtype: str = "f32") -> np.ndarray:
    """uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-a, a, size=shape).astype(T._DTYPES[dtype])


class Parameter:
    """A trainable tensor plus its optimizer state."""

    __slots__ = ("value", "momentum_buffer")

    def __init__(self, value: Tensor):
        value.requires_grad = True  # grad stays None until the first backward
        self.value = value
        self.momentum_buffer: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self):
        return f"Parameter(shape={self.shape})"


class Module:
    """Composable layer base with plain attributes.

    A module's parameters and submodules are its attributes whose values are
    a Parameter or a Module; running statistics go through register_buffer.
    named_parameters() lists a module's own parameters, then each
    submodule's, each in assignment order, so the dotted paths are stable
    across rebuilds with the same configuration.
    """

    def __init__(self):
        self._buffers = {}
        self._constants = {}
        self.training = True

    def _attrs(self, kind: type) -> list:
        return [(n, v) for n, v in vars(self).items() if isinstance(v, kind)]

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        self._buffers[name] = array

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for n, p in self._attrs(Parameter):
            yield prefix + n, p
        for n, m in self._attrs(Module):
            yield from m.named_parameters(prefix + n + ".")

    def parameters(self) -> list:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for n, b in self._buffers.items():
            yield prefix + n, b
        for n, m in self._attrs(Module):
            yield from m.named_buffers(prefix + n + ".")

    def modules(self) -> Iterator["Module"]:
        """This module, then every submodule, depth first in assignment order."""
        yield self
        for _, m in self._attrs(Module):
            yield from m.modules()

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self.release()

    def eval(self) -> "Module":
        return self.train(False)

    def release(self) -> "Module":
        """Drop the constants this module and its submodules hold, making
        the arrays they came from writable again."""
        for m in self.modules():
            for _, _, frozen in m._constants.values():
                for a in frozen:
                    a.flags.writeable = True
            m._constants.clear()
        return self

    def _holding(self) -> bool:
        """True in a forward that holds constants: eval mode under no_grad."""
        return not self.training and not T._grad_enabled

    def _constant(self, name, build, sources: tuple):
        """``build()``, held under ``name`` from the first forward in eval
        mode under ``no_grad`` on, for as long as every array in ``sources``
        (the parameters and buffers it is computed from) is the same array
        and read-only; they are marked read-only when it is built, so an
        in-place write raises instead of leaving it stale. Returns None in a
        forward that trains or records a graph: the ops then compute it per
        call."""
        if not self._holding():
            return None
        held = self._constants.get(name)
        if (held is not None and len(held[1]) == len(sources)
                and all(a is b and not a.flags.writeable for a, b in zip(held[1], sources))):
            return held[0]
        value = build()
        frozen = [a for a in sources if a.flags.writeable]  # release() thaws only these
        for a in frozen:
            a.flags.writeable = False
        self._constants[name] = (value, sources, frozen)
        return value

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class PointwiseLinear(Module):
    """1x1 convolution: an affine map applied independently at each grid cell."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator,
                 bias: bool = True, dtype: str = "f32"):
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ConfigError("channel counts must be positive")
        w = glorot_uniform(rng, in_channels, out_channels, (out_channels, in_channels), dtype)
        self.weight = Parameter(Tensor(w, dtype=dtype))
        self.bias = Parameter(Tensor(np.zeros(out_channels), dtype=dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        b = self.bias.value if self.bias is not None else None
        return T.pointwise_linear(x, self.weight.value, b)


class BatchNorm(Module):
    """Per-channel batch normalization with running statistics."""

    def __init__(self, channels: int, dtype: str = "f32",
                 momentum: float = 0.1, epsilon: float = 1e-5):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.epsilon = epsilon
        np_dtype = T._DTYPES[dtype]
        self.gamma = Parameter(Tensor(np.ones(channels), dtype=dtype))
        self.beta = Parameter(Tensor(np.zeros(channels), dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np_dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=np_dtype))

    def _state(self) -> tuple:
        return (self.gamma.value, self.beta.value,
                self._buffers["running_mean"], self._buffers["running_var"],
                "train" if self.training else "eval")

    def _norm(self, dt, shift: Optional[Tensor] = None):
        """The eval-mode (mu, ivar, scale) of ``T._norm_scale`` in dtype dt,
        held (:meth:`Module._constant`), or None when the forward trains or
        records. A (C,) ``shift`` is the one :meth:`leaky_max` takes."""
        gamma = self.gamma.value
        mean, var = self._buffers["running_mean"], self._buffers["running_var"]
        sources = (gamma.data, mean, var) + (() if shift is None else (shift.data,))
        return self._constant(("norm", dt), lambda: T._norm_scale(
            None, gamma, mean, var, "eval", self.momentum, self.epsilon, dt,
            None if shift is None else shift.data), sources)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim >= 2 and x.shape[1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape}")
        return T.batch_norm(x, *self._state(), momentum=self.momentum, epsilon=self.epsilon,
                            norm=self._norm(x.data.dtype))

    def leaky_max(self, responses, slope: float, shift: Optional[Tensor] = None) -> Tensor:
        """The max over the neighbor axis of ``leaky_relu(self(r), slope)``
        for the edge responses r that ``responses`` (``kernels.EdgeResponses``)
        describes, (B, C, N, k) -> (B, C, N), in one op that forms no edge
        array. A (C,) ``shift`` normalizes r + shift without forming it."""
        # the norm goes only to a held forward's op, so a stand-in for the
        # responses (the formed reference of tests/reference.py) is called
        # as a recording forward calls it
        held = {"norm": self._norm(responses.x.data.dtype, shift)} if self._holding() else {}
        return responses.norm_leaky_max(*self._state(), slope=slope, momentum=self.momentum,
                                        epsilon=self.epsilon, shift=shift, **held)

    def linear_pool(self, x: Tensor, weight: Tensor, slope: float) -> Tensor:
        """[max | mean] over points of ``leaky_relu(self(T.pointwise_linear(x,
        weight)), slope)``, (B, C, N) -> (B, 2 * channels), in one op."""
        return T.linear_norm_pool(x, weight, *self._state(), slope=slope,
                                  momentum=self.momentum, epsilon=self.epsilon,
                                  norm=self._norm(x.data.dtype))

    def edge_conv(self, points: Tensor, idx: graph.NeighborIndex, weight: Tensor,
                  slope: float) -> Tensor:
        """The max over ``idx``'s neighbors of ``leaky_relu(self(r), slope)``,
        r the 1x1 map ``weight`` of each edge's features [x_j - x_i, x_i],
        (B, C, N) -> (B, channels, N), forming no edge array. The stage's
        stacked weight (``graph._stacked``) is held with the norm."""
        stacked = self._constant("stacked", lambda: graph._stacked(weight.data), (weight.data,))
        return graph.edge_conv(points, idx, weight, *self._state(), slope=slope,
                               momentum=self.momentum, epsilon=self.epsilon,
                               norm=self._norm(points.data.dtype), stacked=stacked)
