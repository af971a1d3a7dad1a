"""Adaptive-kernel operator checked against an explicit scalar loop nest and
against the dense per-edge kernel bank, plus head decomposition, residual
behaviour, and parameter-count structure."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from adaptgraph import graph, kernels
from adaptgraph import tensor as T
from adaptgraph.errors import ConfigError, InvalidInputError, ShapeError, UsageError
from adaptgraph.kernels import MakConfig, MultiHeadAdaptiveKernel, apply_heads
from adaptgraph.tensor import Tensor
import reference as ref
from reference import check_grads, edge_linear

EPS = 1e-5
SLOPE = 0.2


def leaky(v):
    return np.where(v > 0, v, SLOPE * v)


def bn_eval(v, mod):
    g = mod.gamma.value.data
    b = mod.beta.value.data
    rm = mod._buffers["running_mean"]
    rv = mod._buffers["running_var"]
    return (v - rm) / np.sqrt(rv + mod.epsilon) * g + b


def randomize_bn(mod, rng):
    mod.gamma.value.data[:] = rng.uniform(0.5, 1.5, mod.channels)
    mod.beta.value.data[:] = rng.normal(size=mod.channels)
    mod._buffers["running_mean"][:] = rng.normal(scale=0.3, size=mod.channels)
    mod._buffers["running_var"][:] = rng.uniform(0.5, 2.0, mod.channels)


def build_op(ci=3, co=4, gen_in=6, heads=2, mid=4, residual=True, seed=0, dtype="f64"):
    cfg = MakConfig(in_channels=ci, out_channels=co, gen_in_channels=gen_in,
                    num_heads=heads, mid_channels=mid, residual=residual)
    op = MultiHeadAdaptiveKernel(cfg, np.random.default_rng(seed), dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    for name in ("bn0", "bn_mid"):
        randomize_bn(getattr(op.gen, name), rng)
    randomize_bn(op.bn_out, rng)
    if hasattr(op, "proj_bn"):
        randomize_bn(op.proj_bn, rng)
    op.eval()
    return op


def loop_nest_forward(op, geo, feat):
    """Recompute the whole operator one scalar vector at a time."""
    cfg = op.cfg
    ci, co, heads = cfg.in_channels, cfg.out_channels, cfg.num_heads
    w0 = op.gen.conv0.weight.value.data
    wm = op.gen.conv_mid.weight.value.data
    w1 = op.gen.conv1.weight.value.data
    b1 = op.gen.conv1.bias.value.data
    b_dim, _, n, k = geo.shape
    out = np.zeros((b_dim, co, n, k))
    for b in range(b_dim):
        for p in range(n):
            for j in range(k):
                v = geo[b, :, p, j]
                h0 = leaky(bn_eval(w0 @ v, op.gen.bn0))
                h1 = leaky(bn_eval(wm @ h0, op.gen.bn_mid))
                flat = w1 @ h1 + b1
                acc = np.zeros(co)
                for o in range(co):
                    for i in range(ci):
                        for h in range(heads):
                            kernel = flat[(o * ci + i) * heads + h]
                            acc[o] += kernel * feat[b, i, p, j]
                if cfg.residual:
                    if ci == co:
                        acc += feat[b, :, p, j]
                    else:
                        proj = op.proj.weight.value.data @ feat[b, :, p, j]
                        acc += bn_eval(proj, op.proj_bn)
                out[b, :, p, j] = leaky(bn_eval(acc, op.bn_out))
    return out


def rand_inputs(op, b=2, n=5, k=3, seed=7):
    rng = np.random.default_rng(seed)
    geo = rng.normal(size=(b, op.cfg.gen_in_channels, n, k))
    feat = rng.normal(size=(b, op.cfg.in_channels, n, k))
    return geo, feat


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_forward_matches_scalar_loop_nest(heads):
    op = build_op(heads=heads, seed=heads)
    geo, feat = rand_inputs(op, seed=heads + 50)
    got = op(Tensor(geo), Tensor(feat)).data
    want = loop_nest_forward(op, geo, feat)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_matches_loop_nest_with_projected_residual():
    op = build_op(ci=3, co=5, seed=9)
    assert hasattr(op, "proj")
    geo, feat = rand_inputs(op, seed=77)
    np.testing.assert_allclose(op(Tensor(geo), Tensor(feat)).data,
                               loop_nest_forward(op, geo, feat), atol=1e-10)


def test_forward_matches_loop_nest_without_residual():
    op = build_op(residual=False, seed=4)
    assert not hasattr(op, "proj")
    geo, feat = rand_inputs(op, seed=78)
    np.testing.assert_allclose(op(Tensor(geo), Tensor(feat)).data,
                               loop_nest_forward(op, geo, feat), atol=1e-10)


def dense_bank(coeffs, weight, bias, heads, c_in, c_out):
    """Every edge's kernels, formed explicitly: (B, C_out, C_in, H, N, k) with
    bank[b,o,i,h,n,j] = weight[c] @ y[b,:,n,j] + bias[c], c = (o*C_in+i)*H+h."""
    b, _, n, k = coeffs.shape
    flat = T.pointwise_linear(coeffs, weight, bias)  # (B, C_out*C_in*H, N, k)
    return T.reshape(flat, (b, c_out, c_in, heads, n, k))


def dense_edges(coeffs, x, weight, bias, heads, c_out, idx=None):
    """Oracle for the edge responses of ``apply_heads``: expand the bank,
    multiply every edge's kernels by its features, then sum over inputs and
    heads. With ``idx``, x holds point features and the edge features are
    formed explicitly."""
    if idx is not None:
        x = ref.graph_feature(x, idx)
    b, c_in, n, k = x.shape
    bank = dense_bank(coeffs, weight, bias, heads, c_in, c_out)
    products = T.mul(bank, T.reshape(x, (b, 1, c_in, 1, n, k)))
    return T.reduce_sum(T.reduce_sum(products, axis=3), axis=2)  # (B, C_out, N, k)


def dense_apply_heads(coeffs, x, weight, bias, heads, c_out, idx=None):
    """A stand-in for ``apply_heads`` that shares no code with it: the
    dense bank's responses, pooled by the reference batch norm, leaky relu
    and max."""
    return ref.Formed(dense_edges(coeffs, x, weight, bias, heads, c_out, idx), idx is None)


def formed_apply_heads(*args, **kwargs):
    """``apply_heads`` with its responses formed, then pooled as the stage
    op's reference composition (``reference.composed``)."""
    return ref.composed(apply_heads(*args, **kwargs))


def rand_head_inputs(b, mid, n, k, ci, co, heads, seed):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(b, mid, n, k))), Tensor(rng.normal(size=(b, ci, n, k))),
            Tensor(rng.normal(size=(co * ci * heads, mid))),
            Tensor(rng.normal(size=(co * ci * heads,))))


def test_kernel_bank_shape():
    op = build_op(ci=6, co=64, gen_in=6, heads=3, mid=8)
    geo = np.random.default_rng(0).normal(size=(2, 6, 32, 20))
    coeffs = op.generate_kernels(Tensor(geo))
    assert coeffs.shape == (2, 8, 32, 20)
    conv1 = op.gen.conv1
    bank = dense_bank(coeffs, conv1.weight.value, conv1.bias.value, 3, 6, 64)
    assert bank.shape == (2, 64, 6, 3, 32, 20)
    feat = Tensor(np.zeros((2, 6, 32, 20)))
    out = apply_heads(coeffs, feat, conv1.weight.value, conv1.bias.value, 3, 64)
    assert out.shape == (2, 64, 32, 20)


def test_apply_heads_fixture():
    # single position, mid 1 with y = 2. Head 0's kernel [[1,2],[3,4]] comes
    # from the weight (half of it, times y), head 1's all-ones kernel from the
    # bias. Applied to [5,6]: [1*5+2*6, 3*5+4*6] + [11, 11] = [28, 50].
    coeffs = np.full((1, 1, 1, 1), 2.0)
    weight = np.zeros((8, 1))   # row (o*2 + i)*2 + h
    bias = np.zeros(8)
    for o in range(2):
        for i in range(2):
            weight[(o * 2 + i) * 2 + 0, 0] = [[1.0, 2.0], [3.0, 4.0]][o][i] / 2.0
            bias[(o * 2 + i) * 2 + 1] = 1.0
    x = np.array([5.0, 6.0]).reshape(1, 2, 1, 1)
    out = ref.contract(apply_heads(Tensor(coeffs), Tensor(x), Tensor(weight), Tensor(bias), 2, 2))
    np.testing.assert_array_equal(out.data.ravel(), [28.0, 50.0])


def test_apply_heads_sums_over_heads():
    coeffs, x, weight, bias = rand_head_inputs(2, 4, 4, 3, ci=3, co=5, heads=3, seed=12)
    full = ref.contract(apply_heads(coeffs, x, weight, bias, 3, 5)).data
    # rows h::H are head h's generator layer in the one-head layout
    parts = sum(ref.contract(apply_heads(coeffs, x, Tensor(weight.data[h::3]),
                                         Tensor(bias.data[h::3]), 1, 5)).data
                for h in range(3))
    np.testing.assert_allclose(full, parts, atol=1e-12)


def test_apply_heads_is_linear_in_features():
    coeffs, _, weight, bias = rand_head_inputs(1, 3, 3, 2, ci=3, co=4, heads=2, seed=13)
    xa, xb = np.random.default_rng(14).normal(size=(2, 1, 3, 3, 2))

    def run(x):
        return ref.contract(apply_heads(coeffs, Tensor(x), weight, bias, 2, 4)).data

    np.testing.assert_allclose(run(xa + 2.0 * xb), run(xa) + 2.0 * run(xb), atol=1e-12)


def test_apply_heads_takes_edge_features_without_edges():
    # k = 0: a (B, C_out, N, 0) result, and a zero gradient for the
    # generator's last layer
    inputs = rand_head_inputs(2, 3, 4, 0, ci=2, co=5, heads=2, seed=15)
    for t in inputs:
        t.requires_grad = True
    out = ref.contract(apply_heads(*inputs, 2, 5))
    assert out.shape == (2, 5, 4, 0)
    T.reduce_sum(out).backward()
    coeffs, x, weight, bias = inputs
    assert coeffs.grad.shape == coeffs.shape and x.grad.shape == x.shape
    assert not weight.grad.any() and not bias.grad.any()


@pytest.mark.parametrize("kind", ["edges", "points"])
def test_train_mode_without_edges_raises_before_dividing(kind):
    # with k = 0 the projected residual's batch norm has no values; the
    # shared empty-batch guard raises before any mean divides by zero
    rng = np.random.default_rng(16)
    if kind == "edges":
        op = MultiHeadAdaptiveKernel(MakConfig(3, 5, 6), rng)
        feat, idx = np.zeros((2, 3, 4, 0)), None
    else:
        op = MultiHeadAdaptiveKernel(MakConfig(4, 5, 6), rng)
        feat = np.zeros((2, 2, 4))
        idx = graph.NeighborIndex(indices=np.zeros((2, 4, 0), dtype=np.int64), k=0, n_points=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="non-empty batch"):
            op(Tensor(np.zeros((2, 6, 4, 0)), dtype="f32"), Tensor(feat, dtype="f32"), idx)


def test_apply_heads_validation():
    # C_in=2, C_out=3, H=1, mid=4 over B=1, N=2, k=2
    coeffs = Tensor(np.zeros((1, 4, 2, 2)))
    x = Tensor(np.zeros((1, 2, 2, 2)))
    weight, bias = Tensor(np.zeros((6, 4))), Tensor(np.zeros(6))
    assert apply_heads(coeffs, x, weight, bias, 1, 3).shape == (1, 3, 2, 2)
    with pytest.raises(ShapeError):
        apply_heads(coeffs, Tensor(np.zeros((1, 2, 2, 2, 1))), weight, bias, 1, 3)
    with pytest.raises(ShapeError):
        apply_heads(coeffs, Tensor(np.zeros((1, 4, 2, 2))), weight, bias, 1, 3)  # C_in mismatch
    with pytest.raises(ShapeError):
        apply_heads(coeffs, Tensor(np.zeros((1, 2, 3, 2))), weight, bias, 1, 3)  # N mismatch
    with pytest.raises(ShapeError):
        apply_heads(Tensor(np.zeros((1, 4, 2))), x, weight, bias, 1, 3)
    with pytest.raises(ShapeError):
        apply_heads(coeffs, x, Tensor(np.zeros((6, 3))), bias, 1, 3)  # mid mismatch
    with pytest.raises(ShapeError):
        apply_heads(coeffs, x, weight, Tensor(np.zeros(5)), 1, 3)
    with pytest.raises(ShapeError):
        apply_heads(coeffs, x, weight, bias, 2, 3)  # 6 rows are not 3 * 2 * 2
    with pytest.raises(ShapeError):
        apply_heads(coeffs, x, weight, bias, 1, 2)  # 6 rows are not 2 * 2 * 1
    with pytest.raises(ShapeError):
        # 3-channel features with H=2 divide the 6 rows (1 * 3 * 2), so only
        # the caller's C_out=3 can tell them apart from the C_in=2, H=1 layout
        apply_heads(coeffs, Tensor(np.zeros((1, 3, 2, 2))), weight, bias, 2, 3)
    with pytest.raises(UsageError):
        apply_heads(Tensor(np.zeros((1, 4, 2, 2)), dtype="f32"), x, weight, bias, 1, 3)
    with pytest.raises(UsageError):
        apply_heads(coeffs, x, Tensor(np.zeros((6, 4)), dtype="f32"), bias, 1, 3)
    with pytest.raises(ConfigError):
        apply_heads(coeffs, x, weight, bias, 0, 3)
    with pytest.raises(ConfigError):
        apply_heads(coeffs, x, weight, bias, 1, 0)


def assert_runs_match(got, want, **tol):
    """Compare (output, *input grads, {name: parameter grad}) of two runs."""
    for a, b in zip(got[:-1], want[:-1]):
        np.testing.assert_allclose(a, b, **tol)
    assert got[-1].keys() == want[-1].keys()
    for name in want[-1]:
        assert want[-1][name] is not None, name
        np.testing.assert_allclose(got[-1][name], want[-1][name], err_msg=name, **tol)


LAYOUTS = ("complete", "hub", "isolated")
TOLERANCE = {"f64": dict(rtol=1e-9, atol=1e-10), "f32": dict(rtol=2e-4, atol=2e-5)}


def layout_index(name, b, seed):
    """A neighbor index for each way the contraction's rows can fill: a
    complete graph (every point read by exactly k edges, one full row each),
    a cloud of repeated points whose copies all read the same few copies
    (in-degree above 2k, so those points span three or more rows), and an
    index some points of which no edge reads (rows of padding only)."""
    rng = np.random.default_rng(seed)
    if name == "complete":
        n = k = 5
        idx = graph.knn(Tensor(rng.normal(size=(b, 3, n))), k)
    elif name == "hub":
        n, k = 10, 3
        cloud = rng.normal(size=(b, 3, n))
        cloud[:, :, 2:] = cloud[:, :, 2:3]  # eight copies of point 2
        idx = graph.knn(Tensor(cloud), k)
    else:
        n, k = 6, 3
        idx = graph.NeighborIndex(indices=rng.integers(0, n // 2, size=(b, n, k)), k=k,
                                  n_points=n)
    in_degree = np.stack([np.bincount(i.ravel(), minlength=n) for i in idx.indices])
    assert {"complete": (in_degree == k).all(), "hub": in_degree.max() > 2 * k,
            "isolated": in_degree.min() == 0}[name]
    return idx


def layout_cases():
    """(dtype, mode, layout) triples, f64 first."""
    for dtype in ("f64", "f32"):
        for mode in ("train", "eval"):
            for name in LAYOUTS:
                yield dtype, mode, name


@pytest.mark.parametrize("heads", [1, 3])
@pytest.mark.parametrize("residual", ["projected", "identity", "none"])
def test_operator_matches_dense_bank_values_and_gradients(heads, residual, monkeypatch):
    # edge and point features over each neighbor layout, f64 and f32, train
    # and eval mode: output, input and every parameter gradient against the
    # dense bank, which shares no code with the contraction
    cp, b = 2, 2
    ci = 2 * cp
    co = 5 if residual == "projected" else ci
    ops = {dt: build_op(ci=ci, co=co, heads=heads, residual=residual != "none",
                        seed=heads + 40, dtype=dt) for dt in ("f64", "f32")}
    for dtype, mode, name in layout_cases():
        op = ops[dtype]
        op.train(mode == "train")
        buffers = {key: buf.copy() for key, buf in op.named_buffers()}
        idx = layout_index(name, b, seed=heads + 60)
        n, k = idx.n_points, idx.k
        rng = np.random.default_rng(61)
        geo = rng.normal(size=(b, op.cfg.gen_in_channels, n, k))
        points = rng.normal(size=(b, cp, n))
        for kind in ("edges", "points"):
            feat, f_idx = ((graph.graph_feature(Tensor(points), idx).data, None)
                           if kind == "edges" else (points, idx))
            weights = Tensor(rng.normal(size=(b, co, n, k) if kind == "edges" else (b, co, n)),
                             dtype=dtype)

            def run():
                for key, buf in op.named_buffers():
                    buf[:] = buffers[key]
                for _, p in op.named_parameters():
                    p.value.grad = None
                g = Tensor(geo, dtype=dtype, requires_grad=True)
                f = Tensor(feat, dtype=dtype, requires_grad=True)
                out = op(g, f, f_idx)
                T.reduce_sum(T.mul(out, weights)).backward()
                grads = {key: p.value.grad for key, p in op.named_parameters()}
                return out.data, g.grad, f.grad, grads

            with monkeypatch.context() as m:
                got = run()
                m.setattr(kernels, "apply_heads", dense_apply_heads)
                want = run()
            tol = dict(rtol=0, atol=1e-10) if dtype == "f64" else TOLERANCE["f32"]
            assert_runs_match(got, want, **tol)


@pytest.mark.parametrize("block", [None, 1], ids=["default-blocks", "one-point-blocks"])
@pytest.mark.parametrize("ties", [False, True], ids=["generated", "tied"])
@pytest.mark.parametrize("gammas", ["positive", "mixed"])
@pytest.mark.parametrize("residual", ["projected", "identity", "none"])
def test_stage_op_matches_the_reference_composition(residual, gammas, ties, block,
                                                    monkeypatch):
    # the stage op against the composition it replaced: the responses formed
    # (reference.contract), then batch norm, leaky relu and max over them
    # (reference.batch_norm_leaky_max). Edge and point features over each
    # neighbor layout, f64 and f32, train and eval mode: outputs, running
    # buffers and every gradient. Eval mode gives the same bits, as the
    # responses, winners and routed gradients are the same; train mode's
    # one-pass statistics differ by rounding. bn_out's gamma is positive, or
    # of mixed signs with a zero; "tied" zeroes conv1's weight, so that the
    # edges reading copies of one point tie exactly; one-point blocks spread
    # the statistics, the winners and the backward over many blocks
    if block is not None:
        monkeypatch.setattr(T, "_MAX_BLOCK_VALUES", block)
    cp, b = 2, 2
    ci = 2 * cp
    co = 5 if residual == "projected" else ci
    ops = {dt: build_op(ci=ci, co=co, heads=2, residual=residual != "none", seed=130,
                        dtype=dt) for dt in ("f64", "f32")}
    for op in ops.values():
        if gammas == "mixed":
            op.bn_out.gamma.value.data[:] = [0.5, -1.0, 0.0, 2.0, -0.25][:co]
        if ties:
            op.gen.conv1.weight.value.data[:] = 0.0
    for dtype, mode, name in layout_cases():
        op = ops[dtype]
        op.train(mode == "train")
        buffers = {key: buf.copy() for key, buf in op.named_buffers()}
        idx = layout_index(name, b, seed=131)
        n, k = idx.n_points, idx.k
        rng = np.random.default_rng(132)
        geo = rng.normal(size=(b, op.cfg.gen_in_channels, n, k))
        points = rng.normal(size=(b, cp, n))
        for kind in ("edges", "points"):
            feat, f_idx = ((graph.graph_feature(Tensor(points), idx).data, None)
                           if kind == "edges" else (points, idx))
            weights = Tensor(rng.normal(size=(b, co, n, k) if kind == "edges" else (b, co, n)),
                             dtype=dtype)

            def run():
                for key, buf in op.named_buffers():
                    buf[:] = buffers[key]
                for _, p in op.named_parameters():
                    p.value.grad = None
                g = Tensor(geo, dtype=dtype, requires_grad=True)
                f = Tensor(feat, dtype=dtype, requires_grad=True)
                out = op(g, f, f_idx)
                T.reduce_sum(T.mul(out, weights)).backward()
                grads = {key: p.value.grad for key, p in op.named_parameters()}
                grads.update((key, buf.copy()) for key, buf in op.named_buffers())
                return out.data, g.grad, f.grad, grads

            with monkeypatch.context() as m:
                got = run()
                m.setattr(kernels, "apply_heads", formed_apply_heads)
                want = run()
            if mode == "eval":
                for a, w in zip(got[:3] + tuple(got[3].values()),
                                want[:3] + tuple(want[3].values())):
                    assert a is None and w is None or a.tobytes() == w.tobytes()
            else:
                assert_runs_match(got, want, **TOLERANCE[dtype])


def test_zeroed_generator_leaves_only_the_residual():
    op = build_op(ci=4, co=4, seed=2)
    op.gen.conv1.weight.value.data[:] = 0.0
    op.gen.conv1.bias.value.data[:] = 0.0
    geo, feat = rand_inputs(op, seed=21)
    got = op(Tensor(geo), Tensor(feat)).data
    np.testing.assert_allclose(
        got, leaky(bn_eval(feat.transpose(0, 2, 3, 1), op.bn_out)).transpose(0, 3, 1, 2),
        atol=1e-12)


def test_zeroed_generator_without_residual_is_constant():
    op = build_op(residual=False, seed=3)
    op.gen.conv1.weight.value.data[:] = 0.0
    op.gen.conv1.bias.value.data[:] = 0.0
    geo, feat = rand_inputs(op, seed=22)
    got = op(Tensor(geo), Tensor(feat)).data
    want = leaky(bn_eval(np.zeros(op.cfg.out_channels), op.bn_out))
    np.testing.assert_allclose(
        got, np.broadcast_to(want.reshape(1, -1, 1, 1), got.shape), atol=1e-12)


def test_parameter_count_affine_in_heads():
    def n_params(heads):
        op = build_op(ci=3, co=4, mid=5, heads=heads)
        return sum(p.value.size for _, p in op.named_parameters())

    counts = [n_params(h) for h in (1, 2, 3)]
    slope = counts[1] - counts[0]
    assert counts[2] - counts[1] == slope
    assert slope == 4 * 3 * (5 + 1)  # conv1 weight rows + bias per extra head


def test_gradients_reach_the_generator():
    op = build_op(seed=6)
    op.train()
    geo, feat = rand_inputs(op, b=4, seed=23)
    out = op(Tensor(geo), Tensor(feat))
    T.reduce_sum(out).backward()
    for name in ("conv0", "conv_mid", "conv1"):
        g = getattr(op.gen, name).weight.value.grad
        assert g is not None and np.abs(g).sum() > 0, name


def test_config_validation_names_the_field():
    with pytest.raises(ConfigError, match="out_channels"):
        MakConfig(in_channels=3, out_channels=0, gen_in_channels=6).validate()
    with pytest.raises(ConfigError, match="num_heads"):
        MakConfig(in_channels=3, out_channels=4, gen_in_channels=6,
                  num_heads=-1).validate()
    with pytest.raises(ConfigError):
        MultiHeadAdaptiveKernel(
            MakConfig(in_channels=3, out_channels=4, gen_in_channels=6, mid_channels=0),
            np.random.default_rng(0))
    # a truthy string would build an identity residual, 0 or None none at all
    for residual in ("no", 0, 1, None):
        with pytest.raises(ConfigError, match="residual"):
            MakConfig(4, 4, 8, residual=residual)
    assert not MakConfig(4, 4, 8, residual=False).residual


def test_forward_shape_validation():
    op = build_op()
    geo, feat = rand_inputs(op)
    with pytest.raises(ShapeError):
        op.generate_kernels(Tensor(geo[:, :4]))
    with pytest.raises(ShapeError):
        op(Tensor(geo), Tensor(feat[:, :2]))
    with pytest.raises(ShapeError):
        op(Tensor(geo), Tensor(feat[:, :, :4]))


def test_kernels_depend_on_geometry_not_features():
    op = build_op(seed=8)
    geo, feat = rand_inputs(op, seed=31)
    bank1 = op.generate_kernels(Tensor(geo)).data
    bank2 = op.generate_kernels(Tensor(geo)).data
    np.testing.assert_array_equal(bank1, bank2)
    other_geo = geo + 0.5
    bank3 = op.generate_kernels(Tensor(other_geo)).data
    assert np.abs(bank3 - bank1).max() > 1e-6


# ---------------------------------------------------------------------
# per-point form: point features plus the neighbor index
# ---------------------------------------------------------------------

def repeated_index(b, n, k, seed):
    """Neighbor index over n points whose rows repeat neighbors heavily."""
    indices = np.random.default_rng(seed).integers(0, max(2, n // 2), size=(b, n, k))
    indices[:, :, 0] = np.arange(n)  # every point sees itself first
    return graph.NeighborIndex(indices=indices, k=k, n_points=n)


def with_grads(fn, weights, dtype, *arrays):
    """fn's output and the gradients of sum(fn(*arrays) * weights) with
    respect to every argument, in ``dtype``."""
    leaves = [Tensor(a, dtype=dtype, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    T.reduce_sum(T.mul(out, Tensor(weights, dtype=dtype))).backward()
    return (out.data,) + tuple(leaf.grad for leaf in leaves)


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("heads", [1, 3])
def test_apply_heads_on_points_equals_edge_form(heads, block, monkeypatch):
    if block is not None:  # one source point per write-back block
        monkeypatch.setattr(T, "_MAX_BLOCK_VALUES", block)
    b, cp, mid, co = 2, 2, 3, 3
    for dtype in ("f64", "f32"):
        for name in LAYOUTS:
            idx = layout_index(name, b, seed=heads)
            n, k = idx.n_points, idx.k
            coeffs, _, weight, bias = rand_head_inputs(b, mid, n, k, ci=2 * cp, co=co,
                                                       heads=heads, seed=heads + 20)
            rng = np.random.default_rng(heads + 21)
            points, weights = rng.normal(size=(b, cp, n)), rng.normal(size=(b, co, n, k))
            args = (coeffs.data, points, weight.data, bias.data)

            def points_form(c, x, w, bi):
                return ref.contract(apply_heads(c, x, w, bi, heads, co, idx=idx))

            def edge_form(c, x, w, bi):
                return ref.contract(apply_heads(c, ref.graph_feature(x, idx), w, bi, heads, co))

            def dense(c, x, w, bi):
                # the dense bank shares no code with the contraction both forms run
                return dense_edges(c, x, w, bi, heads, co, idx)

            got = with_grads(points_form, weights, dtype, *args)
            assert got[0].shape == (b, co, n, k)
            for reference, f64_tol in ((edge_form, dict(rtol=1e-12, atol=0)),
                                       (dense, dict(rtol=1e-12, atol=1e-12))):
                want = with_grads(reference, weights, dtype, *args)
                for a, w in zip(got, want):
                    np.testing.assert_allclose(
                        a, w, **(f64_tol if dtype == "f64" else TOLERANCE["f32"]))
    # finite differences, on the index the contraction was first checked on
    idx = repeated_index(b, 5, 3, seed=heads)
    coeffs, _, weight, bias = rand_head_inputs(b, mid, 5, 3, ci=2 * cp, co=co, heads=heads,
                                               seed=heads + 20)
    points = np.random.default_rng(heads + 21).normal(size=(b, cp, 5))
    check_grads(lambda c, x, w, bi: ref.contract(apply_heads(c, x, w, bi, heads, co, idx=idx)),
                [coeffs.data, points, weight.data, bias.data])


def test_apply_heads_across_write_back_blocks():
    # at C_out = 64 a block holds 51 source points' 1020 edges, so blocks
    # straddle these 60-point items and the last block is a short one
    b, n, k, cp, mid, co = 2, 60, 20, 2, 3, 64
    idx = repeated_index(b, n, k, seed=n)
    coeffs, _, weight, bias = rand_head_inputs(b, mid, n, k, ci=2 * cp, co=co, heads=1,
                                               seed=n + 1)
    rng = np.random.default_rng(n + 2)
    args = (coeffs.data, rng.normal(size=(b, cp, n)), weight.data, bias.data)
    weights = rng.normal(size=(b, co, n, k))
    got = with_grads(lambda c, x, w, bi: ref.contract(apply_heads(c, x, w, bi, 1, co, idx=idx)),
                     weights, "f64", *args)
    want = with_grads(lambda c, x, w, bi: dense_edges(c, x, w, bi, 1, co, idx),
                      weights, "f64", *args)
    for a, w in zip(got, want):
        np.testing.assert_allclose(a, w, rtol=1e-12, atol=1e-12)


def test_apply_heads_across_multi_item_write_back_blocks():
    # at C_out = 64 a block holds 51 source points, so the first block
    # spans two whole 20-point items and part of a third, and the last of
    # these five items ends a short block
    b, n, k, cp, mid, co = 5, 20, 20, 2, 3, 64
    idx = repeated_index(b, n, k, seed=n)
    coeffs, _, weight, bias = rand_head_inputs(b, mid, n, k, ci=2 * cp, co=co, heads=1,
                                               seed=n + 1)
    rng = np.random.default_rng(n + 2)
    args = (coeffs.data, rng.normal(size=(b, cp, n)), weight.data, bias.data)
    weights = rng.normal(size=(b, co, n, k))
    got = with_grads(lambda c, x, w, bi: ref.contract(apply_heads(c, x, w, bi, 1, co, idx=idx)),
                     weights, "f64", *args)
    want = with_grads(lambda c, x, w, bi: dense_edges(c, x, w, bi, 1, co, idx),
                      weights, "f64", *args)
    for a, w in zip(got, want):
        np.testing.assert_allclose(a, w, rtol=1e-12, atol=1e-12)


def mmwave_stage(dtype, spread, mode):
    """mak2 of the default model on one mmactivity window (B=1, C_p=64,
    N=960, k=20, mid=8, C_out=64, a projected residual), its neighbors drawn
    among ``spread`` points, and its inputs: (op, geo, points, idx). With
    spread 3 every edge reads one of three points, whose rows hold all the
    edges, and the other points' rows are padding only."""
    cp, co, b, n, k = 64, 64, 1, 960, 20
    cfg = MakConfig(in_channels=2 * cp, out_channels=co, gen_in_channels=6, mid_channels=8)
    op = MultiHeadAdaptiveKernel(cfg, np.random.default_rng(0), dtype=dtype)
    op.train(mode == "train")
    rng = np.random.default_rng(1)
    idx = graph.NeighborIndex(indices=rng.integers(0, spread, size=(b, n, k)), k=k, n_points=n)
    idx.rows.edges  # built once per input and shared by every stage
    geo = Tensor(rng.normal(size=(b, 6, n, k)), dtype=dtype)
    return op, geo, Tensor(rng.normal(size=(b, cp, n)), dtype=dtype), idx


def test_no_grad_apply_heads_memory_at_the_mmwave_window():
    # in eval mode under no_grad the stage op forms each edge's response
    # once, edge-major, with the points' projections Q and the rows'
    # coefficients beside it, and keeps only its (B, C_out, N) output: the
    # traced peak stays under twice the 4.9 MB of one (B, C_out, N, k) array
    for spread in (960, 3):
        op, geo, points, idx = mmwave_stage("f32", spread, "eval")
        coeffs = op.generate_kernels(geo)
        conv1 = op.gen.conv1
        edge_bytes = 4 * math.prod(coeffs.shape[:1] + (op.cfg.out_channels,) + coeffs.shape[2:])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with T.no_grad():
                out = op.bn_out.leaky_max(apply_heads(coeffs, points, conv1.weight.value,
                                                      conv1.bias.value, 1, 64, idx=idx), SLOPE)
            kept, peak = (v - start for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 64, 960) and out.node is None
        assert peak < 2 * edge_bytes, (f"neighbors among {spread} points: traced peak "
                                       f"{peak / 1e6:.1f} MB")
        assert kept < out.data.nbytes + 1e5, f"kept {kept / 1e6:.2f} MB"


@pytest.mark.parametrize("spread", [960, 3], ids=["spread", "hub"])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_stage_op_keeps_no_edge_array_from_forward_to_backward(dtype, mode, spread):
    # one MAK stage's apply_heads and pooling on one mmactivity window,
    # recording a graph: no array half as large as the points' projections
    # Q (N (mid + 1) C_out values), let alone a (B, C_out, N, k) one,
    # survives the forward. What does is per-point state and basis-sized
    # arrays, under four of each. Forward plus backward peaks under four
    # edge arrays: the backward's recomputed responses, turned into their
    # gradient in place, with Q, the coefficients and their gradients
    op, geo, points, idx = mmwave_stage(dtype, spread, mode)
    with T.no_grad():
        y = op.generate_kernels(geo).data
    conv1 = op.gen.conv1
    itemsize = np.dtype(T._DTYPES[dtype]).itemsize
    b, mid, n, k = y.shape
    co = op.cfg.out_channels
    edge_bytes, q_bytes = itemsize * b * co * n * k, itemsize * b * n * (mid + 1) * co
    per_point, basis_bytes = itemsize * b * co * n, itemsize * co * op.cfg.in_channels * (mid + 1)
    coeffs = Tensor(y, dtype=dtype, requires_grad=True)
    points.requires_grad = True
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = op.bn_out.leaky_max(apply_heads(coeffs, points, conv1.weight.value,
                                              conv1.bias.value, 1, co, idx=idx), SLOPE)
        kept = tracemalloc.get_traced_memory()[0] - start
        largest = max(t.size for t in tracemalloc.take_snapshot().traces)
        T.reduce_sum(out).backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.node is not None and coeffs.grad.shape == coeffs.shape
    assert largest < q_bytes / 2, f"a {largest / 1e6:.2f} MB array survived the forward"
    assert kept < 4 * (per_point + basis_bytes), f"kept {kept / 1e6:.2f} MB"
    assert peak < 4 * edge_bytes, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("residual", ["projected", "identity", "none"])
def test_operator_on_points_equals_edge_form(residual, monkeypatch):
    cp, b = 2, 3
    co = 5 if residual == "projected" else 2 * cp
    ops = {dt: build_op(ci=2 * cp, co=co, heads=2, residual=residual != "none", seed=70,
                        dtype=dt) for dt in ("f64", "f32")}
    for dtype, mode, name in layout_cases():
        op = ops[dtype]
        op.train(mode == "train")
        buffers = {key: buf.copy() for key, buf in op.named_buffers()}
        idx = layout_index(name, b, seed=71)
        n, k = idx.n_points, idx.k
        rng = np.random.default_rng(72)
        geo = rng.normal(size=(b, op.cfg.gen_in_channels, n, k))
        points = rng.normal(size=(b, cp, n))
        weights = Tensor(rng.normal(size=(b, co, n)), dtype=dtype)

        def run(per_point):
            for key, buf in op.named_buffers():
                buf[:] = buffers[key]
            for _, p in op.named_parameters():
                p.value.grad = None
            g = Tensor(geo, dtype=dtype, requires_grad=True)
            x = Tensor(points, dtype=dtype, requires_grad=True)
            if per_point:  # the network's form maps points to points
                out = op(g, x, idx)
                assert out.shape == (b, co, n)
            else:
                out = ref.reduce(op(g, ref.graph_feature(x, idx)), 3, "max")
            T.reduce_sum(T.mul(out, weights)).backward()
            return out.data, g.grad, x.grad, {key: p.value.grad
                                              for key, p in op.named_parameters()}

        with monkeypatch.context() as m:
            got = run(True)
            assert_runs_match(got, run(False), **TOLERANCE[dtype])
            # the network's form against the dense bank, which shares no code with it
            m.setattr(kernels, "apply_heads", dense_apply_heads)
            assert_runs_match(got, run(True), **TOLERANCE[dtype])


@pytest.mark.parametrize("heads", [1, 2])
def test_identity_fold_equals_separate_ops_in_train_mode(heads):
    # with conv1 zeroed, the folded identity is all that filters the features:
    # the network's form must equal graph_feature -> BN -> leaky ReLU -> max
    # built from separate ops, which share no code with the contraction
    cp, b, n, k = 2, 3, 6, 3
    c_in = 2 * cp
    op = build_op(ci=c_in, co=c_in, heads=heads, seed=90)
    op.train()
    op.gen.conv1.weight.value.data[:] = 0.0
    op.gen.conv1.bias.value.data[:] = 0.0
    rng = np.random.default_rng(91)
    geo, points = rng.normal(size=(b, op.cfg.gen_in_channels, n, k)), rng.normal(size=(b, cp, n))
    idx = graph.knn(Tensor(points), k)
    weights = Tensor(rng.normal(size=(b, c_in, n)))
    start = {name: buf.copy() for name, buf in op.bn_out.named_buffers()}

    def run(forward, *leaves):
        for name, buf in op.bn_out.named_buffers():
            buf[:] = start[name]
        for _, p in op.named_parameters():
            p.value.grad = None
        out = forward(*leaves)
        T.reduce_sum(T.mul(out, weights)).backward()
        return (out.data, {name: p.value.grad for name, p in op.named_parameters()},
                {name: buf.copy() for name, buf in op.bn_out.named_buffers()})

    def separate_ops(edges):
        return ref.reduce(T.leaky_relu(op.bn_out(edges), SLOPE), 3, "max")

    g, x = Tensor(geo, requires_grad=True), Tensor(points, requires_grad=True)
    out, grads, buffers = run(lambda g, x: op(g, x, idx), g, x)
    xr = Tensor(points, requires_grad=True)
    want, want_grads, want_buffers = run(lambda x: separate_ops(ref.graph_feature(x, idx)), xr)
    np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(x.grad, xr.grad, rtol=1e-9, atol=1e-10)
    np.testing.assert_array_equal(g.grad, 0.0)
    for name in buffers:
        np.testing.assert_allclose(buffers[name], want_buffers[name], rtol=1e-12, err_msg=name)
    for name in ("bn_out.gamma", "bn_out.beta"):
        np.testing.assert_allclose(grads[name], want_grads[name], rtol=1e-9, atol=1e-10,
                                   err_msg=name)
    for name, grad in grads.items():
        if name.startswith("gen.") and not name.startswith("gen.conv1"):
            np.testing.assert_array_equal(grad, 0.0, err_msg=name)
    # conv1's gradient is, per edge, the gradient at the pre-BN output times
    # the edge features (and, for the weight, the coefficients y), per head
    edges = Tensor(graph.graph_feature(Tensor(points), idx).data, requires_grad=True)
    run(separate_ops, edges)
    y = op.generate_kernels(Tensor(geo)).data
    want_b = np.einsum("bonk,bink->oi", edges.grad, edges.data)
    want_w = np.einsum("bonk,bink,bmnk->oim", edges.grad, edges.data, y)
    np.testing.assert_allclose(grads["gen.conv1.bias"].reshape(c_in, c_in, heads),
                               np.repeat(want_b[:, :, None], heads, axis=2),
                               rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(grads["gen.conv1.weight"].reshape(c_in, c_in, heads, -1),
                               np.repeat(want_w[:, :, None], heads, axis=2),
                               rtol=1e-9, atol=1e-10)


def test_point_features_must_match_the_index():
    b, cp, n, k, mid, co = 2, 2, 5, 3, 3, 3
    idx = repeated_index(b, n, k, seed=80)
    coeffs, _, weight, bias = rand_head_inputs(b, mid, n, k, ci=2 * cp, co=co, heads=1,
                                               seed=81)
    assert apply_heads(coeffs, Tensor(np.zeros((b, cp, n))), weight, bias, 1, co,
                       idx=idx).shape == (b, co, n, k)
    for shape in ((b, cp, n + 1), (b + 1, cp, n), (b, cp + 1, n), (b, cp, n, k)):
        with pytest.raises(ShapeError):
            apply_heads(coeffs, Tensor(np.zeros(shape)), weight, bias, 1, co, idx=idx)
    with pytest.raises(ShapeError):  # coefficients and points agree, the index does not
        apply_heads(coeffs, Tensor(np.zeros((b, cp, n))), weight, bias, 1, co,
                    idx=repeated_index(b + 1, n, k, seed=82))

    op = build_op(ci=2 * cp, co=co, seed=83)
    geo = Tensor(np.zeros((b, op.cfg.gen_in_channels, n, k)))
    assert op(geo, Tensor(np.zeros((b, cp, n))), idx).shape == (b, co, n)
    for shape in ((b, cp, n + 1), (b + 1, cp, n), (b, 2 * cp, n), (b, cp, n, k)):
        with pytest.raises(ShapeError):
            op(geo, Tensor(np.zeros(shape)), idx)


# ---------------------------------------------------------------------
# the projected residual folded into the adaptive kernel
# ---------------------------------------------------------------------

def unfolded_forward(op, geo, feat, idx=None):
    """The composition the fold replaces: the contraction with conv1's own
    bias, plus proj_bn of every projected edge, then bn_out."""
    cfg, conv1 = op.cfg, op.gen.conv1
    out = ref.contract(apply_heads(op.generate_kernels(geo), feat, conv1.weight.value,
                                   conv1.bias.value, cfg.num_heads, cfg.out_channels, idx))
    if idx is None:
        projected = op.proj_bn(op.proj(feat))
        return T.leaky_relu(op.bn_out(T.add(out, projected)), SLOPE)
    projected = op.proj_bn(edge_linear(feat, idx, op.proj.weight.value))
    return ref.batch_norm_leaky_max(T.add(out, projected), *op.bn_out._state(), SLOPE)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind", ["edges", "points"])
def test_projection_fold_equals_the_unfolded_composition(kind, mode, dtype):
    cp, co, b, n, k, heads = 3, 5, 3, 6, 3, 2
    cfg = MakConfig(in_channels=2 * cp, out_channels=co, gen_in_channels=6,
                    num_heads=heads, mid_channels=4)
    op = MultiHeadAdaptiveKernel(cfg, np.random.default_rng(110), dtype=dtype)
    rng = np.random.default_rng(111)
    for bn in (op.gen.bn0, op.gen.bn_mid, op.proj_bn, op.bn_out):
        randomize_bn(bn, rng)
    op.train(mode == "train")
    np_dt = T._DTYPES[dtype]
    geo = rng.normal(size=(b, 6, n, k)).astype(np_dt)
    points = rng.normal(size=(b, cp, n)).astype(np_dt)
    idx = repeated_index(b, n, k, seed=112)
    if kind == "edges":
        feat, idx = graph.graph_feature(Tensor(points), idx).data, None
    else:
        feat = points
    weights = Tensor(rng.normal(size=(b, co, n) if kind == "points" else (b, co, n, k)),
                     dtype=dtype)
    buffers = {name: buf.copy() for name, buf in op.named_buffers()}

    def run(forward):
        for name, buf in op.named_buffers():
            buf[:] = buffers[name]
        for _, p in op.named_parameters():
            p.value.grad = None
        g, f = Tensor(geo, requires_grad=True), Tensor(feat, requires_grad=True)
        out = forward(op, g, f, idx)
        T.reduce_sum(T.mul(out, weights)).backward()
        grads = {name: p.value.grad for name, p in op.named_parameters()}
        return (out.data, g.grad, f.grad, grads,
                {name: buf.copy() for name, buf in op.named_buffers()})

    got = run(MultiHeadAdaptiveKernel.forward)
    want = run(unfolded_forward)
    tol = dict(rtol=1e-9, atol=1e-10) if dtype == "f64" else dict(rtol=2e-4, atol=2e-5)
    assert_runs_match(got[:4], want[:4], **tol)
    for name in ("proj.weight", "proj_bn.gamma", "proj_bn.beta"):
        assert got[3][name] is not None, name
    assert got[4].keys() == want[4].keys()
    for name in want[4]:
        np.testing.assert_allclose(got[4][name], want[4][name], err_msg=name, **tol)
        if name.startswith(("proj_bn.", "bn_out.")) and mode == "train":
            assert not np.array_equal(got[4][name], buffers[name]), name


def test_projection_fold_forms_no_edge_tensor_of_its_own(monkeypatch):
    # mak2 of the default model on one mmactivity window (B=1, C_p=64,
    # N=960, k=20, C_out=64, f32), in eval mode: the fold runs before
    # apply_heads, which describes the responses without forming them, and
    # each stays under half the 4.9 MB of a (B, C_out, N, k) array
    op, geo, points, idx = mmwave_stage("f32", 960, "eval")
    assert hasattr(op, "proj")
    b, co, n, k = 1, 64, 960, 20
    edge_bytes = 4 * b * co * n * k
    real_apply = kernels.apply_heads
    marks = []  # traced peak before apply_heads, traced peak over it

    def apply_heads(*args):
        marks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = real_apply(*args)
        marks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(kernels, "apply_heads", apply_heads)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with T.no_grad():
            out = op(geo, points, idx)
    finally:
        tracemalloc.stop()
    assert out.shape == (b, co, n)
    before, during = marks[0] - start, marks[1]
    assert before < edge_bytes / 2, f"before apply_heads: {before / 1e6:.1f} MB"
    assert during < edge_bytes / 2, f"in apply_heads: {during / 1e6:.1f} MB"
