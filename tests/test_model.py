"""Assembled-network tests: the cost model against built models and a
hand-enumerated configuration, shared-graph plumbing, and symmetry checks."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptgraph
from adaptgraph import graph, kernels, network
from adaptgraph import tensor as T
from adaptgraph.checkpoint import load_state, state_dict
from adaptgraph.data import PipelineConfig, SynthSpec
from adaptgraph.errors import ConfigError, InvalidInputError, UsageError
from adaptgraph.kernels import MultiHeadAdaptiveKernel
from adaptgraph.nn import BatchNorm, Deferred, Module, Parameter
from adaptgraph.network import (ActivityNet, ModelConfig, Variant, build,
                                config_from_dict, config_to_dict, count_macs,
                                count_params)
from adaptgraph.tensor import Tensor
import reference as ref

SMALL = dict(in_channels=3, k=4, stage_widths=(6, 6, 8, 8), emb_dims=16,
             fc_widths=(12, 10), num_classes=4, mak_mid_channels=4)


def small_cfg(**over):
    merged = {**SMALL, **over}
    return ModelConfig(**merged)


def cloud(b=2, n=10, c=3, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(b, c, n)).astype(dtype)


def test_variant_round_trip_and_unknown():
    for v in Variant:
        assert Variant.from_string(v.value) is v
    with pytest.raises(ConfigError, match="unknown variant"):
        Variant.from_string("resnet")


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="k must be a positive integer"):
        small_cfg(k=0).validate()
    with pytest.raises(ConfigError, match="num_classes"):
        small_cfg(num_classes=1).validate()
    with pytest.raises(ConfigError, match="stage_widths"):
        small_cfg(stage_widths=(6, 6)).validate()
    with pytest.raises(ConfigError, match="dropout"):
        small_cfg(dropout=1.0).validate()


def test_config_dict_round_trip():
    cfg = small_cfg(variant=Variant.SANDWICH_FF, num_heads=3)
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    # every field away from its default, so each one must survive on its own
    odd = ModelConfig(in_channels=4, k=7, num_heads=2, stage_widths=(5, 6, 7, 8),
                      emb_dims=9, fc_widths=(11, 3), num_classes=3,
                      variant=Variant.MAK_FF, dropout=0.25, leaky_slope=0.1,
                      mak_mid_channels=6)
    default = ModelConfig()
    assert all(getattr(odd, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(ModelConfig))
    assert config_from_dict(json.loads(json.dumps(config_to_dict(odd)))) == odd
    with pytest.raises(ConfigError, match="missing field"):
        config_from_dict({"k": 5})
    with pytest.raises(ConfigError, match="'k' is malformed"):
        config_from_dict({**config_to_dict(cfg), "k": "five"})


def test_config_codec_names_unknown_and_malformed_fields():
    d = config_to_dict(PipelineConfig())
    with pytest.raises(ConfigError, match="unknown field 'colour'"):
        config_from_dict({**d, "colour": "red"}, PipelineConfig)
    with pytest.raises(ConfigError, match="'split_ratios' is malformed"):
        config_from_dict({**d, "split_ratios": 5}, PipelineConfig)
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict(None, SynthSpec)
    # lossy coercions are refused, not rounded: a bool for a number, a
    # fractional float for an int, in scalars and list elements alike
    m = config_to_dict(ModelConfig())
    for field, v in (("k", 2.5), ("k", True), ("dropout", False),
                     ("stage_widths", [64, 64.5, 128, 256]), ("fc_widths", [512, True]),
                     ("k", "5"), ("dropout", "0.25"), ("stage_widths", ["8", "8", "8", "8"])):
        with pytest.raises(ConfigError, match=f"'{field}' is malformed"):
            config_from_dict({**m, field: v})
    with pytest.raises(ConfigError, match="'window_frames' is malformed: expected an integer"):
        config_from_dict({**d, "window_frames": 59.7}, PipelineConfig)
    # a numeric string is a string, not a number
    for field, v in (("window_frames", " 7 "), ("split_ratios", ["0.8", "0.1", "0.1"])):
        with pytest.raises(ConfigError, match=f"'{field}' is malformed: expected a number"):
            config_from_dict({**d, field: v}, PipelineConfig)
    with pytest.raises(ConfigError, match="'frames' is malformed: expected a number"):
        config_from_dict({**config_to_dict(SynthSpec()), "frames": True}, SynthSpec)
    # an integral float is exact, so it still decodes
    assert config_from_dict({**m, "k": 7.0}).k == 7


# --- codec properties: every config the checkpoints and manifests carry ---

_POS = st.integers(1, 10**6)
_UNIT = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def _ratios(draw):
    parts = [draw(st.integers(1, 1000)) for _ in range(3)]
    return tuple(p / sum(parts) for p in parts)


_VALID = {
    ModelConfig: st.builds(
        ModelConfig, in_channels=_POS, k=_POS, num_heads=_POS,
        stage_widths=st.tuples(_POS, _POS, _POS, _POS), emb_dims=_POS,
        fc_widths=st.lists(_POS, min_size=1, max_size=4).map(tuple),
        num_classes=st.integers(2, 10**6), variant=st.sampled_from(Variant),
        dropout=_UNIT, leaky_slope=_UNIT, mak_mid_channels=_POS),
    PipelineConfig: st.builds(
        PipelineConfig, window_frames=_POS, window_stride=_POS,
        points_per_frame=_POS, split_ratios=_ratios(), seed=st.integers(0, 2**63)),
    SynthSpec: st.builds(
        SynthSpec, classes=st.integers(2, 10**6), sequences_per_class=_POS,
        frames=_POS, points=_POS, noise=st.floats(0.0, 1e6),
        frame_rate=st.floats(1e-3, 1e6)),
}

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
           | st.sampled_from([10**400, "5", "0.5", "1e999", "nan", "five", "mak-ff"]))
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8)


def _like(v):
    """Arbitrary JSON values, and lists as long as v when v is a list."""
    if isinstance(v, list):
        return st.lists(_SCALAR, min_size=len(v), max_size=len(v)) | _JSON
    return _SCALAR | _JSON


@st.composite
def _json_objects(draw, cls):
    """A valid config's dict with one float (or float list element) made
    non-finite, or with one or two fields replaced by arbitrary JSON and
    sometimes a field dropped or an unknown key added; or, one time in ten,
    a wholly arbitrary JSON object."""
    branch = draw(st.integers(0, 9))
    if branch == 0:
        return draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=4))
    d = config_to_dict(draw(_VALID[cls]))
    if branch <= 3:
        slots = [(k, None) for k, v in d.items() if isinstance(v, float)]
        slots += [(k, i) for k, v in d.items() if isinstance(v, list)
                  for i, w in enumerate(v) if isinstance(w, float)]
        name, i = draw(st.sampled_from(slots))
        if i is None:
            d[name] = draw(_NON_FINITE)
        else:
            d[name][i] = draw(_NON_FINITE)
        return d
    for name in draw(st.lists(st.sampled_from(sorted(d)), min_size=1, max_size=2,
                              unique=True)):
        d[name] = draw(_like(d[name]))
    if draw(st.integers(0, 7)) == 0:
        d.pop(draw(st.sampled_from(sorted(d))))
    if draw(st.integers(0, 7)) == 0:
        d[draw(st.text(max_size=6))] = draw(_JSON)
    return d


def _floats(v):
    return list(v) if isinstance(v, tuple) else [v]


@pytest.mark.parametrize("cls", list(_VALID), ids=lambda c: c.__name__)
@settings(deadline=None)
@given(data=st.data())
def test_config_codec_round_trips_valid_configs_through_json(cls, data):
    cfg = data.draw(_VALID[cls])
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg))), cls) == cfg


@pytest.mark.parametrize("cls", list(_VALID), ids=lambda c: c.__name__)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_config_codec_decodes_any_json_to_a_finite_config_or_config_error(cls, data):
    d = data.draw(_json_objects(cls))
    try:
        cfg = config_from_dict(json.loads(json.dumps(d)), cls)
    except ConfigError:
        return
    assert type(cfg) is cls
    for f in dataclasses.fields(cfg):
        for v in _floats(getattr(cfg, f.name)):
            assert not isinstance(v, float) or math.isfinite(v), (f.name, v)


@pytest.mark.parametrize("variant", list(Variant))
def test_count_params_equals_built_model(variant):
    cfg = small_cfg(variant=variant, num_heads=2)
    model = build(cfg, seed=1)
    built = sum(p.value.size for _, p in model.named_parameters())
    assert count_params(cfg) == built


DEFAULT_PARAMETER_NAMES = [
    "mak1.gen.conv0.weight", "mak1.gen.bn0.gamma", "mak1.gen.bn0.beta",
    "mak1.gen.conv_mid.weight", "mak1.gen.bn_mid.gamma", "mak1.gen.bn_mid.beta",
    "mak1.gen.conv1.weight", "mak1.gen.conv1.bias", "mak1.proj.weight",
    "mak1.proj_bn.gamma", "mak1.proj_bn.beta", "mak1.bn_out.gamma", "mak1.bn_out.beta",
    "mak2.gen.conv0.weight", "mak2.gen.bn0.gamma", "mak2.gen.bn0.beta",
    "mak2.gen.conv_mid.weight", "mak2.gen.bn_mid.gamma", "mak2.gen.bn_mid.beta",
    "mak2.gen.conv1.weight", "mak2.gen.conv1.bias", "mak2.proj.weight",
    "mak2.proj_bn.gamma", "mak2.proj_bn.beta", "mak2.bn_out.gamma", "mak2.bn_out.beta",
    "conv3.conv.weight", "conv3.bn.gamma", "conv3.bn.beta", "conv4.conv.weight",
    "conv4.bn.gamma", "conv4.bn.beta", "fuse.weight", "fuse_bn.gamma", "fuse_bn.beta",
    "fc1.weight", "fc_bn1.gamma", "fc_bn1.beta", "fc2.weight", "fc_bn2.gamma",
    "fc_bn2.beta", "head.weight", "head.bias"
]
DEFAULT_BUFFER_NAMES = [
    "mak1.gen.bn0.running_mean", "mak1.gen.bn0.running_var", "mak1.gen.bn_mid.running_mean",
    "mak1.gen.bn_mid.running_var", "mak1.proj_bn.running_mean", "mak1.proj_bn.running_var",
    "mak1.bn_out.running_mean", "mak1.bn_out.running_var", "mak2.gen.bn0.running_mean",
    "mak2.gen.bn0.running_var", "mak2.gen.bn_mid.running_mean",
    "mak2.gen.bn_mid.running_var", "mak2.proj_bn.running_mean", "mak2.proj_bn.running_var",
    "mak2.bn_out.running_mean", "mak2.bn_out.running_var", "conv3.bn.running_mean",
    "conv3.bn.running_var", "conv4.bn.running_mean", "conv4.bn.running_var",
    "fuse_bn.running_mean", "fuse_bn.running_var", "fc_bn1.running_mean",
    "fc_bn1.running_var", "fc_bn2.running_mean", "fc_bn2.running_var"
]


def test_default_model_names_its_parameters_and_buffers_in_order():
    # a module's own parameters first, then each submodule's, in assignment
    # order: the names and order checkpoints are keyed by
    model = build(ModelConfig(), seed=0)
    assert [n for n, _ in model.named_parameters()] == DEFAULT_PARAMETER_NAMES
    assert [n for n, _ in model.named_buffers()] == DEFAULT_BUFFER_NAMES


@pytest.mark.parametrize("variant", [Variant.MAK_ONLY, Variant.MAK_FF, Variant.SANDWICH_FF])
def test_variants_name_every_parameter_and_buffer_once(variant):
    model = build(ModelConfig(variant=variant), seed=0)
    params = [n for n, _ in model.named_parameters()]
    buffers = [n for n, _ in model.named_buffers()]
    assert (len(params), len(buffers)) == {Variant.MAK_ONLY: (57, 34), Variant.MAK_FF: (57, 34),
                                           Variant.SANDWICH_FF: (40, 24)}[variant]
    assert len(set(params)) == len(params) and len(set(buffers)) == len(buffers)


def test_module_lists_its_parameters_before_its_submodules():
    class Outer(Module):
        def __init__(self):
            super().__init__()
            self.inner = BatchNorm(2)
            self.label = "not a parameter"
            self.scale = Parameter(Tensor(np.ones(2)))

    outer = Outer()
    assert [n for n, _ in outer.named_parameters()] == ["scale", "inner.gamma", "inner.beta"]
    assert [n for n, _ in outer.named_buffers()] == ["inner.running_mean",
                                                     "inner.running_var"]
    assert outer.parameters() == [outer.scale, outer.inner.gamma, outer.inner.beta]


def test_eval_and_train_reach_nested_modules():
    model = build(small_cfg(), seed=0)
    nested = [model.mak1, model.mak1.gen, model.mak1.gen.bn0, model.mak1.bn_out,
              model.conv3.bn, model.fc_bn1, model.head]
    assert model.eval() is model
    assert not any(m.training for m in [model] + nested)
    model.train()
    assert all(m.training for m in [model] + nested)


def test_count_params_default_config_frozen_total():
    assert count_params(ModelConfig()) == 1_878_053


def test_count_macs_hand_enumerated_minimal_config():
    # every width 1, one point, one neighbor: each term is auditable by hand.
    # pairwise 1; two kernel stages 9 each (generator 2+1+2, application 2,
    # projected residual 2); two conv stages 2 each; fusion 4; classifier 5.
    cfg = ModelConfig(in_channels=1, k=1, num_heads=1, stage_widths=(1, 1, 1, 1),
                      emb_dims=1, fc_widths=(1, 1), num_classes=2,
                      mak_mid_channels=1)
    assert count_macs(cfg, 1) == 32


def test_count_macs_default_config_frozen_total():
    assert count_macs(ModelConfig(), 1024) == 3_979_871_488


def test_params_ignore_k_but_macs_do_not():
    totals = {count_params(small_cfg(k=k)) for k in (2, 5, 8)}
    assert len(totals) == 1
    macs = [count_macs(small_cfg(k=k), 64) for k in (2, 5, 8)]
    assert macs[0] < macs[1] < macs[2]
    # affine in k: equal second differences of an arithmetic k grid
    assert macs[2] - macs[1] == (macs[1] - macs[0])


def test_params_and_macs_affine_in_heads():
    p = [count_params(small_cfg(num_heads=h)) for h in (1, 2, 3)]
    m = [count_macs(small_cfg(num_heads=h), 32) for h in (1, 2, 3)]
    assert p[1] - p[0] == p[2] - p[1] > 0
    assert m[1] - m[0] == m[2] - m[1] > 0


def test_count_macs_rejects_too_few_points():
    with pytest.raises(InvalidInputError):
        count_macs(small_cfg(k=8), 4)


def test_variant_stage_layout():
    plans = {v: [s.kind for s in network._stage_plan(small_cfg(variant=v))]
             for v in Variant}
    assert plans[Variant.MAK_ONLY] == ["mak", "mak", "mak", "mak"]
    assert plans[Variant.MAK_FF] == ["mak", "mak", "mak", "mak"]
    assert plans[Variant.SANDWICH_FF] == ["mak", "conv", "mak", "conv"]
    assert plans[Variant.SEQUENTIAL_FF] == ["mak", "mak", "conv", "conv"]


def capture_fused(model, x, monkeypatch):
    """Run model on x and return the fused stage outputs: the input of its
    embedding head, ``fuse_bn.linear_pool``."""
    seen = []
    real = model.fuse_bn.linear_pool

    def recording(v, *args, **kwargs):
        seen.append(v)
        return real(v, *args, **kwargs)

    monkeypatch.setattr(model.fuse_bn, "linear_pool", recording)
    model(x)
    return seen[0]


def test_fusion_width_depends_on_variant(monkeypatch):
    cfg_all = small_cfg(variant=Variant.MAK_FF)
    cfg_last = small_cfg(variant=Variant.MAK_ONLY)
    model_all = build(cfg_all, seed=0)
    model_last = build(cfg_last, seed=0)
    x = Tensor(cloud())
    fused_all = capture_fused(model_all.eval(), x, monkeypatch)
    fused_last = capture_fused(model_last.eval(), x, monkeypatch)
    assert fused_all.shape[1] == sum(SMALL["stage_widths"])
    assert fused_last.shape[1] == SMALL["stage_widths"][-1]


def composed_head(bn, x, weight, slope):
    """``BatchNorm.linear_pool`` as the five ops it fuses."""
    emb = T.leaky_relu(bn(T.pointwise_linear(x, weight)), slope)
    return T.concat([ref.reduce(emb, 2, kind) for kind in ("max", "mean")], 1)


@pytest.mark.parametrize("variant", [Variant.MAK_ONLY, Variant.SEQUENTIAL_FF])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_network_head_matches_the_five_op_composition(variant, dtype, monkeypatch):
    # a train step's logits, every parameter's gradient and every running
    # buffer, then eval logits, with the fused head and with the composition
    cfg = small_cfg(variant=variant, dropout=0.0)
    x = cloud(b=3, n=10, dtype=np.float64 if dtype == "f64" else np.float32)
    runs = []
    for head in (None, composed_head):
        with monkeypatch.context() as m:
            if head is not None:
                m.setattr(BatchNorm, "linear_pool", head)
            model = build(cfg, seed=4, dtype=dtype)
            train_logits = model(Tensor(x))
            T.softmax_cross_entropy(train_logits, [0, 1, 3]).backward()
            eval_logits = model.eval()(Tensor(x))
        runs.append([train_logits.data, eval_logits.data]
                    + [p.value.grad for _, p in model.named_parameters()]
                    + [b for _, b in model.named_buffers()])
    rtol = 1e-4 if dtype == "f32" else 1e-9
    for got, want in zip(*runs):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


def test_build_is_seed_deterministic():
    cfg = small_cfg()
    a, b = build(cfg, seed=5), build(cfg, seed=5)
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_array_equal(pa.value.data, pb.value.data)
    c = build(cfg, seed=6)
    diffs = [not np.array_equal(pa.value.data, pc.value.data)
             for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters())]
    assert any(diffs)


def eager_build(cfg, seed, dtype="f32"):
    """The model ``build`` gives, drawing every weight at construction: a
    module built from a Generator draws from it at once."""
    return ActivityNet(cfg, np.random.default_rng(np.random.SeedSequence(seed)), dtype=dtype)


def bitwise_equal_states(a, b):
    return a.keys() == b.keys() and all(
        a[n].dtype == b[n].dtype and a[n].tobytes() == b[n].tobytes() for n in a)


@pytest.mark.parametrize("variant", list(Variant))
def test_build_draws_on_first_read_bitwise_as_an_eager_build(variant):
    # build allocates the weights and draws them all at the first value
    # read, whichever parameter that read reaches first
    x = cloud(b=2, n=10, seed=3)
    for heads, dtype in ((1, "f32"), (2, "f32"), (1, "f64"), (2, "f64")):
        cfg = small_cfg(variant=variant, num_heads=heads)
        eager = eager_build(cfg, 11, dtype).eval()
        want = state_dict(eager)
        head_in = Tensor(np.random.default_rng(4).normal(size=(3, cfg.fc_widths[-1])),
                         dtype=dtype)
        reads = {
            "state_dict": lambda m: state_dict(m),
            "named_parameters": lambda m: [p.value for _, p in m.named_parameters()][::-1],
            "forward": lambda m: m.eval()(Tensor(x, dtype=dtype)).data,
            "submodule": lambda m: m.head(head_in).data,
        }
        for path, read in reads.items():
            model = build(cfg, 11, dtype)
            got = read(model)
            assert bitwise_equal_states(state_dict(model), want), (path, heads, dtype)
            if path == "forward":
                assert got.tobytes() == eager(Tensor(x, dtype=dtype)).data.tobytes()
            if path == "submodule":
                assert got.tobytes() == eager.head(head_in).data.tobytes()


def test_failed_load_state_leaves_the_seeded_draws_owed():
    cfg = small_cfg(variant=Variant.SANDWICH_FF, num_heads=2)
    want = state_dict(eager_build(cfg, 2))
    broken = state_dict(eager_build(cfg, 9))
    del broken["head.bias"]
    model = build(cfg, 2)
    with pytest.raises(ConfigError, match="missing.*head.bias"):
        load_state(model, broken)
    assert bitwise_equal_states(state_dict(model), want)


def test_load_state_leaves_the_builds_generator_unreferenced():
    # only pending parameters refer to a build's Deferred, so once every
    # parameter is settled its Generator and queued draws are freed
    cfg = small_cfg()
    deferred = Deferred(np.random.default_rng(np.random.SeedSequence(3)))
    ref = weakref.ref(deferred)
    model = ActivityNet(cfg, deferred)
    del deferred
    assert ref() is not None
    load_state(model, state_dict(eager_build(cfg, 4)))
    assert ref() is None


def test_restoring_one_stage_keeps_the_rest_of_the_build_in_step():
    # a settled parameter's draw is taken and discarded, so the weights
    # drawn after it are still the seeded ones
    cfg = small_cfg()
    want = state_dict(eager_build(cfg, 6))
    stage = state_dict(eager_build(cfg, 7).mak2)
    model = build(cfg, 6)
    load_state(model.mak2, stage)
    got = state_dict(model)
    for name in want:
        if name.startswith("mak2."):
            assert got[name].tobytes() == stage[name[len("mak2."):]].tobytes(), name
        else:
            assert got[name].tobytes() == want[name].tobytes(), name


def test_knn_runs_once_per_forward(monkeypatch):
    calls = []
    real = graph.knn

    def counting(x, k):
        calls.append(k)
        return real(x, k)

    monkeypatch.setattr(graph, "knn", counting)
    model = build(small_cfg(), seed=0).eval()
    model(Tensor(cloud()))
    assert calls == [SMALL["k"]]


def test_forward_refuses_an_input_that_records_a_graph():
    # the raw points feed knn and graph_feature, which have no backward
    model = build(small_cfg(), seed=0).eval()
    with pytest.raises(UsageError, match="graph_feature"):
        model(Tensor(cloud(), requires_grad=True))


def test_every_kernel_stage_reads_raw_geometry(monkeypatch):
    model = build(small_cfg(variant=Variant.MAK_ONLY), seed=0).eval()
    features, stage_inputs = [], {}
    real_feature = graph.graph_feature
    real_forward = MultiHeadAdaptiveKernel.forward

    def recording_feature(x, idx):
        features.append(real_feature(x, idx))
        return features[-1]

    def recording_forward(stage, geo, feat, idx=None):
        stage_inputs[stage] = (geo, feat, idx)
        return real_forward(stage, geo, feat, idx)

    monkeypatch.setattr(graph, "graph_feature", recording_feature)
    monkeypatch.setattr(MultiHeadAdaptiveKernel, "forward", recording_forward)
    x = Tensor(cloud())
    model(x)
    geo = features[0]  # the edge features of the raw input
    for pos in (1, 2, 3, 4):
        assert stage_inputs[getattr(model, f"mak{pos}")][0] is geo
    # while the content features are the previous stage's points, not
    # geometry, filtered through the one shared neighbor index
    assert stage_inputs[model.mak1][1] is x
    feat2 = stage_inputs[model.mak2][1]
    assert feat2 is not geo
    assert feat2.shape == (x.shape[0], SMALL["stage_widths"][0], x.shape[2])
    idx = stage_inputs[model.mak1][2]
    assert idx is not None
    for pos in (2, 3, 4):
        assert stage_inputs[getattr(model, f"mak{pos}")][2] is idx


@pytest.mark.parametrize("variant", list(Variant))
def test_stages_pool_before_they_normalize(variant, monkeypatch):
    # each stage ends in one batch norm -> leaky relu -> max-over-k op (a
    # MAK stage's bn_out.leaky_max, a conv stage's bn.edge_conv), so no
    # (B, C, N, k) stage output is normalized or activated; a projected
    # residual is folded into the adaptive kernel, so no batch norm runs per
    # edge at all
    model = build(small_cfg(variant=variant), seed=0)
    widths = set(SMALL["stage_widths"])
    assert SMALL["mak_mid_channels"] not in widths
    per_edge, pooled = [], []
    real_leaky = T.leaky_relu
    real_forward, real_leaky_max = BatchNorm.forward, BatchNorm.leaky_max
    real_edge_conv = BatchNorm.edge_conv

    def leaky_relu(x, slope=0.2):
        assert not (x.ndim == 4 and x.shape[1] in widths), x.shape
        return real_leaky(x, slope)

    def forward(bn, x):
        if x.ndim == 4 and x.shape[1] in widths:
            per_edge.append(bn)
        return real_forward(bn, x)

    def leaky_max(bn, x, slope, shift=None):
        pooled.append(bn)
        return real_leaky_max(bn, x, slope, shift)

    def edge_conv(bn, points, idx, weight, slope):
        pooled.append(bn)
        return real_edge_conv(bn, points, idx, weight, slope)

    monkeypatch.setattr(T, "leaky_relu", leaky_relu)
    monkeypatch.setattr(BatchNorm, "forward", forward)
    monkeypatch.setattr(BatchNorm, "leaky_max", leaky_max)
    monkeypatch.setattr(BatchNorm, "edge_conv", edge_conv)
    model(Tensor(cloud()), rng=np.random.default_rng(0))
    stages = [getattr(model, name) for name, _ in model._stages]
    assert pooled == [s.bn_out if kind == "mak" else s.bn
                      for s, (_, kind) in zip(stages, model._stages)]
    assert per_edge == []


def test_logits_invariant_to_point_permutation():
    cfg = small_cfg()
    model = build(cfg, seed=3, dtype="f64").eval()
    x = cloud(b=2, n=12, dtype=np.float64)
    perm = np.random.default_rng(5).permutation(12)
    base = model(Tensor(x)).data
    shuffled = model(Tensor(x[:, :, perm])).data
    np.testing.assert_allclose(shuffled, base, atol=1e-10)


def test_logits_permutation_invariance_f32():
    model = build(small_cfg(), seed=3).eval()
    x = cloud(b=2, n=12)
    perm = np.random.default_rng(6).permutation(12)
    np.testing.assert_allclose(model(Tensor(x[:, :, perm])).data,
                               model(Tensor(x)).data, atol=1e-5)


@pytest.mark.parametrize("variant", list(Variant))
def test_forward_backward_all_variants(variant):
    cfg = small_cfg(variant=variant, num_heads=2, dropout=0.0)
    model = build(cfg, seed=2)
    x = Tensor(cloud(b=2, n=9), requires_grad=False)
    logits = model(x, rng=np.random.default_rng(0))
    assert logits.shape == (2, SMALL["num_classes"])
    loss = T.softmax_cross_entropy(logits, np.array([0, 2]))
    assert np.isfinite(loss.item())
    loss.backward()
    missing = [n for n, p in model.named_parameters() if p.value.grad is None]
    assert missing == []


def test_eval_forward_mutates_nothing_and_is_repeatable():
    model = build(small_cfg(), seed=4).eval()
    stats_before = {n: b.copy() for n, b in model.named_buffers()}
    x = Tensor(cloud(seed=9))
    with T.no_grad():
        a = model(x)
        b = model(x)
    np.testing.assert_array_equal(a.data, b.data)
    assert a.node is None
    for n, buf in model.named_buffers():
        np.testing.assert_array_equal(buf, stats_before[n])


def test_train_forward_with_dropout_needs_rng():
    model = build(small_cfg(dropout=0.5), seed=0)
    model.train()
    with pytest.raises(UsageError):
        model(Tensor(cloud()))


def test_forward_input_validation():
    model = build(small_cfg(), seed=0).eval()
    with pytest.raises(InvalidInputError):
        model(Tensor(cloud(c=4)))
    with pytest.raises(InvalidInputError):
        model(Tensor(cloud(n=3)))  # fewer points than k


def test_dtype_threads_through_model():
    model = build(small_cfg(), seed=0, dtype="f64")
    assert all(p.value.dtype == "f64" for _, p in model.named_parameters())
    out = model.eval()(Tensor(cloud(dtype=np.float64)))
    assert out.dtype == "f64"


# one mak-only H=4 train step at the synth preset's batch, in a child process
# capped at 4 GB of address space; prints the child's peak RSS in KiB
_MEMORY_PROBE = textwrap.dedent("""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
    import numpy as np
    from adaptgraph import tensor as T
    from adaptgraph.network import ModelConfig, Variant, build
    from adaptgraph.tensor import Tensor
    cfg = ModelConfig(num_heads=4, variant=Variant.MAK_ONLY)
    model = build(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(32, 3, 20)).astype(np.float32))
    logits = model(x, rng=rng)
    T.softmax_cross_entropy(logits, np.arange(32) % cfg.num_classes).backward()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
""")


def test_mak_only_four_heads_trains_at_synth_batch_in_bounded_memory():
    # B=32 N=20 k=20: a dense per-edge kernel bank for stage 4 alone would
    # take 13 GB, so this also pins that the bank is never formed
    src = os.path.dirname(os.path.dirname(os.path.abspath(adaptgraph.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak_gb = int(done.stdout.split()[-1]) / (1 << 20)
    assert peak_gb < 2.0, f"peak RSS {peak_gb:.2f} GB"


def spread_buffers(model, seed):
    """Running statistics away from their initial 0 and 1, so that every
    eval-mode batch norm shifts and scales."""
    rng = np.random.default_rng(seed)
    for name, buf in model.named_buffers():
        buf[...] = (rng.uniform(0.5, 2.0, buf.shape) if name.endswith("var")
                    else rng.normal(scale=0.3, size=buf.shape))


@pytest.mark.parametrize("variant", list(Variant))
def test_eval_logits_under_no_grad_equal_recorded_forward_bitwise(variant):
    # no_grad skips backward-only state (argmax, masks) and holds the
    # eval-mode constants from its first call on; the values must not move
    for heads, dtype in ((1, "f32"), (2, "f32"), (1, "f64"), (2, "f64")):
        model = build(small_cfg(variant=variant, num_heads=heads), seed=5, dtype=dtype).eval()
        spread_buffers(model, seed=6)
        x = Tensor(cloud(b=3, n=12, seed=9), dtype=dtype)
        recorded = model(x)
        assert recorded.node is not None
        for _ in range(2):  # the second call reads the held constants
            with T.no_grad():
                untracked = model(x)
            assert untracked.node is None
            assert untracked.data.tobytes() == recorded.data.tobytes(), (heads, dtype)


def count_constant_builders(monkeypatch):
    """Wraps every builder of an eval-mode constant; returns the counts."""
    counts = {}
    targets = [(T, "_norm_scale"), (kernels, "_projection_scale"), (kernels, "_head_sum"),
               (kernels, "_layout"), (graph, "_stacked")]
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("variant", list(Variant))
def test_second_eval_window_builds_no_constant(variant, monkeypatch):
    model = build(small_cfg(variant=variant, num_heads=2), seed=7).eval()
    counts = count_constant_builders(monkeypatch)
    windows = [Tensor(cloud(b=1, n=12, seed=s)) for s in (1, 2)]
    stages = [getattr(model, name) for name, _ in model._stages]
    maks = [s for s in stages if isinstance(s, MultiHeadAdaptiveKernel)]
    want = {"_norm_scale": sum(isinstance(m, BatchNorm) for m in model.modules()),
            "_projection_scale": sum(hasattr(s, "proj") for s in maks),
            "_head_sum": len(maks), "_layout": len(maks), "_stacked": len(stages) - len(maks)}
    with T.no_grad():
        model(windows[0])
        assert counts == {name: n for name, n in want.items() if n}
        counts.clear()
        model(windows[1])
    assert counts == {}


def named_arrays(model):
    return ([(n, p.value.data) for n, p in model.named_parameters()]
            + list(model.named_buffers()))


def held_sources(model):
    """(name, array) of every parameter and buffer a held constant comes
    from: each batch norm's gamma and running statistics, each adaptive
    stage's conv1, projection and projection batch norm, each conv stage's
    weight."""
    def source(name):
        return (name.endswith((".gamma", ".running_mean", ".running_var"))
                or any(part in name for part in (".gen.conv1.", ".proj.", ".proj_bn."))
                or re.fullmatch(r"conv\d\.conv\.weight", name) is not None)

    return [(n, a) for n, a in named_arrays(model) if source(n)]


@pytest.mark.parametrize("variant", list(Variant))
def test_held_constants_make_their_sources_read_only_until_released(variant):
    model = build(small_cfg(variant=variant), seed=8).eval()
    spread_buffers(model, seed=9)
    state = state_dict(model)
    x = Tensor(cloud(b=2, n=12, seed=10))
    sources = held_sources(model)
    assert any(".gen.conv1.weight" in n for n, _ in sources)
    assert any(n.endswith("running_var") for n, _ in sources)
    for release in ("train", "eval", "load_state"):
        with T.no_grad():
            before = model(x).data
        frozen = [n for n, a in named_arrays(model) if not a.flags.writeable]
        assert frozen == [n for n, _ in sources]
        for name, a in sources:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        if release == "load_state":
            load_state(model, state)
        else:
            getattr(model, release)()
        for name, a in sources:
            assert a.flags.writeable, (release, name)
            a *= 1.25  # a new value for every source
        if release == "train":
            model.eval()
        with T.no_grad():
            after = model(x).data
        assert after.tobytes() == model(x).data.tobytes(), release
        assert not np.array_equal(after, before), release
