"""Neighborhood construction: similarity values against a naive double loop,
KNN against a brute-force sort, and the geometric invariances both must obey;
the EdgeConv stage op against the edge-tensor composition it replaces."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgraph import graph
from adaptgraph import tensor as T
from adaptgraph.errors import InvalidInputError, ShapeError, UsageError
from adaptgraph.graph import NeighborIndex, graph_feature, knn, pairwise_similarity
from adaptgraph.network import _ConvBlock
from adaptgraph.tensor import Tensor
import reference as ref
from reference import check_grads, edge_linear


def points(b, c, n, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(b, c, n)).astype(dtype)


def naive_similarity(x):
    """Negated squared Euclidean distance, one pair at a time."""
    b, c, n = x.shape
    out = np.zeros((b, n, n), dtype=np.float64)
    for bi in range(b):
        for i in range(n):
            for j in range(n):
                d = x[bi, :, i] - x[bi, :, j]
                out[bi, i, j] = -float(np.dot(d, d))
    return out


def brute_knn(x, k):
    """Stable per-row sort of squared distances; lowest index wins ties."""
    sim = naive_similarity(x)
    return np.argsort(-sim, axis=2, kind="stable")[:, :, :k]


def test_similarity_matches_naive_loop():
    x = points(2, 3, 12, seed=4)
    got = pairwise_similarity(Tensor(x)).data
    np.testing.assert_allclose(got, naive_similarity(x), atol=1e-10)
    x32 = x.astype(np.float32)
    got32 = pairwise_similarity(Tensor(x32)).data
    np.testing.assert_allclose(got32, naive_similarity(x32), atol=1e-4)


def test_similarity_is_symmetric_with_zero_diagonal_and_nonpositive():
    x = points(3, 5, 9, seed=8)
    sim = pairwise_similarity(Tensor(x)).data
    np.testing.assert_allclose(sim, sim.transpose(0, 2, 1), atol=1e-12)
    assert np.all(sim <= 0.0)
    # the factored form leaves the diagonal a rounding hair below zero
    np.testing.assert_allclose(np.diagonal(sim, axis1=1, axis2=2), 0.0, atol=1e-12)


def test_similarity_translation_invariance():
    x = points(1, 3, 10, seed=2)
    shift = np.array([1.5, -2.0, 0.75]).reshape(1, 3, 1)
    a = pairwise_similarity(Tensor(x)).data
    b = pairwise_similarity(Tensor(x + shift)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_knn_line_fixture():
    # points at 0, 1, 3 on a line: nearest-2 rows are (self, closer other)
    x = np.array([[[0.0, 1.0, 3.0]]])
    idx = knn(Tensor(x), 2)
    np.testing.assert_array_equal(idx.indices[0], [[0, 1], [1, 0], [2, 1]])
    assert idx.k == 2 and idx.n_points == 3


def test_knn_first_neighbor_is_self():
    x = points(2, 3, 15, seed=9)
    idx = knn(Tensor(x), 4)
    np.testing.assert_array_equal(idx.indices[:, :, 0],
                                  np.broadcast_to(np.arange(15), (2, 15)))


@pytest.mark.parametrize("k", [1, 3, 15])
def test_knn_matches_brute_force(k):
    x = points(2, 3, 15, seed=13)
    got = knn(Tensor(x), k).indices
    np.testing.assert_array_equal(got, brute_knn(x, k))


def test_knn_duplicate_points_tie_break():
    # identical points are all at distance 0; stable order keeps index order
    x = np.zeros((1, 2, 4))
    idx = knn(Tensor(x), 3)
    np.testing.assert_array_equal(idx.indices[0], np.tile([0, 1, 2], (4, 1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_knn_equals_full_stable_sort_on_tied_grids(dtype):
    # integer-grid clouds with many duplicate points: ties at the k-th
    # distance are common, and the lowest index must win every one of them
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(2, 30))
        x = rng.integers(-2, 3, size=(2, 2, n)).astype(dtype)
        x[:, :, n // 2:] = x[:, :, :n - n // 2]  # padding duplicates whole frames
        sim = pairwise_similarity(Tensor(x)).data
        for k in range(1, n + 1):
            want = np.argsort(-sim, axis=2, kind="stable")[:, :, :k]
            np.testing.assert_array_equal(knn(Tensor(x), k).indices, want,
                                          err_msg=f"trial {trial}, n={n}, k={k}")


@pytest.mark.parametrize("block", [16, 64, 1000], ids=["one-row", "row-runs", "items"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_knn_on_tied_grids_in_small_blocks(dtype, block, monkeypatch):
    # one-row blocks (N > 16), runs of rows with a partial last block, and
    # several whole items per block, against the same full stable sort
    monkeypatch.setattr(T, "_MAX_BLOCK_VALUES", block)
    test_knn_equals_full_stable_sort_on_tied_grids(dtype)


def padded_window(b, n, dtype, seed):
    """(b, 3, n) clouds built as stream windows are: frames of 16 points,
    each zero-padded after 8 to 16 of them, some a copy of an earlier frame,
    so many points tie at distance 0 and whole frames tie with each other."""
    rng = np.random.default_rng(seed)
    frames = -(-n // 16)
    x = rng.normal(0.0, 0.5, size=(b, 3, frames, 16))
    for f in range(frames):
        x[:, :, f, rng.integers(8, 17):] = 0.0
        if f and rng.random() < 0.3:
            x[:, :, f] = x[:, :, rng.integers(0, f)]
    return x.reshape(b, 3, frames * 16)[:, :, :n].astype(dtype)


@pytest.mark.parametrize("n", [257, 960, 1000])
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_knn_in_row_blocks_equals_the_whole_matrix_sort(n, b, dtype):
    # N > 256 takes runs of rows of an item per block (68 rows at N = 960);
    # the oracle sorts the whole similarity matrix at once
    x = padded_window(b, n, dtype, seed=n + b)
    want = np.argsort(-pairwise_similarity(Tensor(x)).data, axis=2, kind="stable")
    for k in (1, 20, n):
        np.testing.assert_array_equal(knn(Tensor(x), k).indices, want[:, :, :k],
                                      err_msg=f"k={k}")


def test_knn_of_an_empty_batch():
    for dtype in (np.float32, np.float64):
        idx = knn(Tensor(np.zeros((0, 3, 5), dtype=dtype)), 2)
        assert idx.indices.shape == (0, 5, 2)


def test_knn_memory_stays_under_one_block_set():
    # one mmactivity window (N = 960, f32): the blocked search traces about
    # 1 MB; a search over the whole (N, N) similarity matrix traces 14 MB
    x = Tensor(padded_window(1, 960, np.float32, seed=0))
    knn(x, 20)
    tracemalloc.start()
    try:
        knn(x, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"traced peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e20, 1e30])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_knn_rejects_overflow_without_a_warning(bad, dtype):
    y = points(1, 3, 300, dtype=np.float64)
    y[0, 1, 200] = bad if dtype == np.float32 else bad * 1e160  # past the dtype's range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite"):
            knn(Tensor(y.astype(dtype)), 4)


def test_knn_permutation_equivariance():
    x = points(1, 3, 11, seed=21)
    perm = np.random.default_rng(3).permutation(11)
    base = knn(Tensor(x), 5).indices[0]
    permuted = knn(Tensor(x[:, :, perm]), 5).indices[0]
    # row for original point perm[i] must be the relabeled original row
    inv = np.argsort(perm)
    np.testing.assert_array_equal(permuted, inv[base[perm]])


def test_knn_validation():
    x = Tensor(points(1, 3, 6))
    with pytest.raises(InvalidInputError):
        knn(x, 0)
    with pytest.raises(InvalidInputError):
        knn(x, 7)
    with pytest.raises(ShapeError):
        knn(Tensor(np.zeros((3, 6))), 2)
    for bad in (np.nan, np.inf, 1e30):
        y = points(1, 3, 6)
        y[0, 1, 2] = bad  # 1e30 squares past float32's range
        with pytest.raises(InvalidInputError, match="finite"), np.errstate(all="ignore"):
            knn(Tensor(y.astype(np.float32)), 2)


def test_neighbor_index_validation():
    with pytest.raises(ShapeError):
        NeighborIndex(indices=np.zeros((2, 5), dtype=np.int64), k=5, n_points=5)
    with pytest.raises(InvalidInputError):
        NeighborIndex(indices=np.full((1, 5, 2), 5, dtype=np.int64), k=2, n_points=5)
    with pytest.raises(InvalidInputError):
        NeighborIndex(indices=np.full((1, 5, 2), -1, dtype=np.int64), k=2, n_points=5)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_neighbor_rows_group_each_points_edges_into_rows_of_k(data):
    b, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, n))
    if data.draw(st.booleans()):  # every edge reads one point
        indices = np.full((b, n, k), data.draw(st.integers(0, n - 1)))
    else:
        indices = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=b * n * k,
                                              max_size=b * n * k))).reshape(b, n, k)
    rows = NeighborIndex(indices=indices, k=k, n_points=n).rows
    n_rows = rows.points + rows.over.size
    read = (indices + (np.arange(b) * n)[:, None, None]).ravel()  # each edge's point
    assert rows.width == k and rows.points == b * n
    # every edge holds exactly one slot
    assert rows.slots.shape == read.shape
    assert np.unique(rows.slots).size == read.size
    assert 0 <= rows.slots.min() and rows.slots.max() < n_rows * k
    # each row holds edges of one point only: its own first row, or an
    # overflow row of that point
    row_point = np.concatenate([np.arange(b * n), rows.over])
    np.testing.assert_array_equal(row_point[rows.slots // k], read)
    # no row holds more than k edges, and each point has as few rows as that
    # allows, one when no edge reads it
    assert np.bincount(rows.slots // k, minlength=n_rows).max() <= k
    in_degree = np.bincount(read, minlength=b * n)
    assert n_rows == np.maximum(1, -(-in_degree // k)).sum()
    # each slot's edge inverts the slots; padding slots hold one past the
    # last edge, a zero row in the arrays that the rows read
    np.testing.assert_array_equal(rows.edges[rows.slots], np.arange(read.size))
    pad = np.ones(n_rows * k, dtype=bool)
    pad[rows.slots] = False
    np.testing.assert_array_equal(rows.edges[pad], read.size)


@pytest.mark.parametrize("b,n,k,block", [(3, 20, 20, None), (5, 6, 3, 40), (2, 960, 20, None),
                                         (3, 20, 7, 50)],
                         ids=["whole-items", "item-blocks", "slabs", "small-slabs"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adjacency_products_and_counts_match_a_dense_adjacency(b, n, k, block, dtype,
                                                               monkeypatch):
    if block is not None:
        monkeypatch.setattr(T, "_MAX_BLOCK_VALUES", block)
    rng = np.random.default_rng(31)
    indices = rng.integers(0, max(1, n // 2), size=(b, n, k))  # repeats; half the points unread
    idx = NeighborIndex(indices=indices, k=k, n_points=n)
    adj = np.zeros((b, n, n))  # A[b, i, m]: how often point i reads m
    np.add.at(adj, (np.arange(b)[:, None, None], np.arange(n)[None, :, None], indices), 1.0)
    np.testing.assert_array_equal(idx.counts, adj.sum(axis=1).ravel())
    pc, cc = (rng.normal(size=(b, 5, n)).astype(dtype) for _ in range(2))
    gathered, scattered = graph._adjacency_products(pc, cc, indices)
    assert gathered.dtype == scattered.dtype == dtype
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, want in ((gathered, pc @ adj.transpose(0, 2, 1)), (scattered, cc @ adj)):
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def test_graph_feature_line_fixture():
    x = np.array([[[0.0, 1.0, 3.0]]])
    idx = knn(Tensor(x), 2)
    feat = graph_feature(Tensor(x), idx).data  # (1, 2, 3, 2): diff then center
    np.testing.assert_array_equal(feat[0, 0, 1], [0.0, -1.0])  # self, then x0 - x1
    np.testing.assert_array_equal(feat[0, 1, 1], [1.0, 1.0])   # center replicated
    np.testing.assert_array_equal(feat[0, 0, :, 0], 0.0)       # self edge diffs


def test_graph_feature_shape_and_center_channels():
    x = points(2, 4, 10, seed=6)
    idx = knn(Tensor(x), 3)
    feat = graph_feature(Tensor(x), idx)
    assert feat.shape == (2, 8, 10, 3)
    center = feat.data[:, 4:, :, :]
    np.testing.assert_array_equal(center, np.broadcast_to(x[:, :, :, None], center.shape))


def test_graph_feature_uses_supplied_index_not_geometry():
    # feeding a shuffled index must gather those points, proving the index
    # argument is authoritative
    x = points(1, 2, 5, seed=14)
    indices = np.array([[[4, 0], [3, 1], [2, 2], [1, 3], [0, 4]]])
    idx = NeighborIndex(indices=indices, k=2, n_points=5)
    feat = graph_feature(Tensor(x), idx).data
    np.testing.assert_allclose(feat[0, :2, 0, 0], x[0, :, 4] - x[0, :, 0])


def test_graph_feature_translation_moves_only_center_channels():
    x = points(1, 3, 8, seed=17)
    idx = knn(Tensor(x), 3)
    shift = np.array([0.3, -0.2, 0.9]).reshape(1, 3, 1)
    a = graph_feature(Tensor(x), idx).data
    b = graph_feature(Tensor(x + shift), idx).data
    np.testing.assert_allclose(a[:, :3], b[:, :3], atol=1e-12)  # diffs unchanged
    np.testing.assert_allclose(b[:, 3:] - a[:, 3:],
                               np.broadcast_to(shift[:, :, :, None], a[:, 3:].shape),
                               atol=1e-12)


def test_graph_feature_validation():
    x = Tensor(points(1, 2, 5))
    idx = knn(x, 2)
    with pytest.raises(InvalidInputError):
        graph_feature(Tensor(points(1, 2, 6)), idx)  # point count mismatch
    with pytest.raises(ShapeError):
        graph_feature(Tensor(points(2, 2, 5)), idx)  # batch mismatch


def test_knn_result_detached_from_autodiff():
    t = Tensor(points(1, 3, 6), requires_grad=True)
    plain = knn(Tensor(points(1, 3, 6)), 2).indices
    for x in (t, T.mul(t, Tensor(np.ones((1, 3, 6))))):  # a leaf, then a graph node
        idx = knn(x, 2)
        assert isinstance(idx.indices, np.ndarray)
        assert not np.issubdtype(idx.indices.dtype, np.floating)
        np.testing.assert_array_equal(idx.indices, plain)


@pytest.mark.parametrize("op", ["graph_feature", "pairwise_similarity"])
def test_ops_without_backward_refuse_a_recording_input(op):
    # the network applies both to its raw input only; a gradient asked of
    # them is an error, not a gradient dropped in silence
    x = points(2, 3, 7, seed=40)
    idx = knn(Tensor(x), 3)
    call = (lambda t: graph_feature(t, idx)) if op == "graph_feature" else pairwise_similarity
    want = call(Tensor(x))
    assert want.node is None
    leaf = Tensor(x, requires_grad=True)
    for t in (leaf, T.mul(leaf, Tensor(np.ones_like(x)))):  # a leaf, then a graph node
        with pytest.raises(UsageError, match=op):
            call(t)
        with T.no_grad():
            got = call(t)
        assert got.node is None
        np.testing.assert_array_equal(got.data, want.data)
    if op == "graph_feature":  # the tests' differentiable copy gives the same bits
        np.testing.assert_array_equal(ref.graph_feature(leaf, idx).data, want.data)


# ---------------------------------------------------------------------
# edge_conv against batch_norm_leaky_max(edge_linear(...))
# ---------------------------------------------------------------------

CONV_GAMMAS = [0.5, -1.0, 0.0, 2.0, -0.25, 1.5]  # mixed signs and a zero scale


def conv_case(name, dtype=np.float64):
    """(x, idx) with B > 1: zero-padded duplicate points under kNN, heavily
    repeated hand-built neighbors, and k = N."""
    rng = np.random.default_rng({"padded": 1, "repeated": 2, "k=N": 3}[name])
    if name == "padded":
        x = rng.normal(size=(3, 4, 10)) + rng.normal(size=(1, 4, 1))
        x[:, :, 7:] = 0.0  # three identical padding points
        idx = knn(Tensor(x), 5)
    elif name == "repeated":
        x = rng.normal(size=(2, 4, 8))
        indices = rng.integers(0, 4, size=(2, 8, 6))
        indices[:, :, 0] = np.arange(8)
        indices[1, 3] = 2  # one point's every neighbor is the same point
        idx = NeighborIndex(indices=indices, k=6, n_points=8)
    else:
        x = rng.normal(size=(2, 4, 7))
        idx = knn(Tensor(x), 7)
    return x.astype(dtype), idx


def conv_params(c, dtype, seed=7):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(len(CONV_GAMMAS), 2 * c))
    beta = rng.normal(size=len(CONV_GAMMAS))
    return [a.astype(dtype) for a in (w, np.array(CONV_GAMMAS), beta)]


def conv_buffers(dtype):
    rng = np.random.default_rng(8)
    return (rng.normal(size=len(CONV_GAMMAS)).astype(dtype),
            rng.uniform(0.5, 2.0, size=len(CONV_GAMMAS)).astype(dtype))


def conv_reference(x, idx, w, gamma, beta, rm, rv, mode):
    return ref.batch_norm_leaky_max(edge_linear(x, idx, w), gamma, beta, rm, rv, mode)


def run_conv(op, x, idx, params, mode, recorded):
    """Output, running buffers and, when recorded, the gradients of x, W,
    gamma and beta under a fixed random weighting of the output."""
    dtype = x.dtype
    rm, rv = conv_buffers(dtype)
    args = [Tensor(a, requires_grad=recorded) for a in [x] + params]
    if not recorded:
        with T.no_grad():
            out = op(args[0], idx, *args[1:], rm, rv, mode)
        assert out.node is None
        return out.data, np.concatenate([rm, rv]), []
    out = op(args[0], idx, *args[1:], rm, rv, mode)
    w = np.random.default_rng(9).normal(size=out.shape).astype(dtype)
    T.reduce_sum(T.mul(out, Tensor(w))).backward()
    return out.data, np.concatenate([rm, rv]), [a.grad for a in args]


@pytest.fixture(params=[None, 1], ids=["one-block", "point-blocks"])
def blocks(request, monkeypatch):
    """Default blocks, or one point (and one batch item) per block."""
    if request.param is not None:
        monkeypatch.setattr(T, "_MAX_BLOCK_VALUES", request.param)


@pytest.mark.parametrize("case", ["padded", "repeated", "k=N"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("recorded", [True, False])
def test_edge_conv_eval_output_is_bitwise(case, dtype, recorded, blocks):
    x, idx = conv_case(case, dtype)
    params = conv_params(x.shape[1], dtype)
    want = run_conv(conv_reference, x, idx, params, "eval", recorded)
    got = run_conv(graph.edge_conv, x, idx, params, "eval", recorded)
    assert got[0].shape == (x.shape[0], len(CONV_GAMMAS), x.shape[2])
    assert got[0].dtype == dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    for g, r in zip(got[2], want[2]):
        np.testing.assert_allclose(g, r, rtol=1e-12 if dtype == np.float64 else 1e-5,
                                   atol=0)


@pytest.mark.parametrize("case", ["padded", "repeated", "k=N"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_edge_conv_train_matches_composition(case, dtype, blocks):
    # the statistics are summed in another order, so agreement is to rounding
    tol = 1e-12 if dtype == np.float64 else 1e-5
    x, idx = conv_case(case, dtype)
    params = conv_params(x.shape[1], dtype)
    want = run_conv(conv_reference, x, idx, params, "train", True)
    got = run_conv(graph.edge_conv, x, idx, params, "train", True)
    unrecorded = run_conv(graph.edge_conv, x, idx, params, "train", False)
    assert unrecorded[0].tobytes() == got[0].tobytes()
    names = ["out", "buffers", "dx", "dW", "dgamma", "dbeta"]
    for g, r, name in zip(got[:2] + tuple(got[2]), want[:2] + tuple(want[2]), names):
        np.testing.assert_allclose(g, r, rtol=tol, atol=tol * np.abs(r).max(),
                                   err_msg=name)


@pytest.mark.parametrize("gamma", [1.5, -0.5])
def test_edge_conv_routes_a_nan_row_to_edge_0(gamma, blocks):
    # W_a = W_b = 1 on one channel: z = x[m], and the gradient at x is the
    # per-point P's, so each point's winner shows as one scale in dx[m]
    x = np.random.default_rng(13).uniform(0.5, 1.5, size=(1, 1, 6))
    x[0, 0, 4] = np.nan
    indices = np.array([[[0, 1, 2], [1, 4, 0], [2, 3, 5], [3, 2, 4],
                         [4, 0, 5], [5, 3, 1]]])  # rows 1, 3 and 4 see the NaN
    idx = NeighborIndex(indices=indices, k=3, n_points=6)
    leaves = [Tensor(a, requires_grad=True) for a in (x, [[1.0, 1.0]], [gamma], [10.0])]
    out = graph.edge_conv(leaves[0], idx, *leaves[1:], np.zeros(1), np.ones(1), "eval")
    assert np.isnan(out.data[0, 0]).tolist() == [False, True, False, True, True, False]
    T.reduce_sum(out).backward()
    z = x[0, 0, indices[0]] * np.sign(gamma)
    edge = np.where(np.isnan(z).any(axis=1), 0, np.argmax(z, axis=1))
    winners = indices[0, np.arange(6), edge]
    scale = gamma / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(leaves[0].grad[0, 0],
                               scale * np.bincount(winners, minlength=6), rtol=1e-12)


def test_grad_edge_conv():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 3, 8))
    indices = rng.integers(0, 4, size=(2, 8, 5))  # repeated neighbors tie exactly
    idx = NeighborIndex(indices=indices, k=5, n_points=8)
    w, gamma, beta = conv_params(3, np.float64, seed=22)
    gamma[2] = 0.7  # the winner flips with the sign of gamma, so no kink at 0
    check_grads(lambda x, w, g, b: graph.edge_conv(x, idx, w, g, b, None, None, "train"),
                [x, w, gamma, beta], rtol=1e-5)
    rm, rv = conv_buffers(np.float64)
    check_grads(lambda x, w, g, b: graph.edge_conv(x, idx, w, g, b, rm, rv, "eval",
                                                   slope=0.1),
                [x, w, gamma, beta])


@pytest.mark.parametrize("op", ["edge_linear", "edge_conv"])
def test_edge_op_guards(op):
    x, idx = conv_case("repeated")
    w, gamma, beta = (Tensor(a) for a in conv_params(4, np.float64))

    def call(x, idx, w):
        if op == "edge_linear":
            return edge_linear(x, idx, w)
        return graph.edge_conv(x, idx, w, gamma, beta, None, None, "train")

    assert call(Tensor(x), idx, w).shape[:2] == (2, 6)
    with pytest.raises(ShapeError):
        call(Tensor(x[0]), idx, w)  # not (B, C, N)
    with pytest.raises(ShapeError):
        call(Tensor(x[:1]), idx, w)  # batch mismatch
    with pytest.raises(InvalidInputError):
        call(Tensor(x[:, :, :7]), idx, w)  # point count mismatch
    with pytest.raises(ShapeError):
        call(Tensor(x), idx, Tensor(w.data[:, :7]))  # weight not (C_out, 2C)
    with pytest.raises(UsageError):
        call(Tensor(x), idx, Tensor(w.data, dtype="f32"))  # dtype mismatch


def test_edge_conv_norm_guards():
    x, idx = conv_case("repeated")
    w, gamma, beta = (Tensor(a) for a in conv_params(4, np.float64))
    with pytest.raises(ShapeError):
        graph.edge_conv(Tensor(x), idx, w, Tensor(np.ones(5)), beta, None, None, "train")
    with pytest.raises(InvalidInputError):
        graph.edge_conv(Tensor(x), idx, w, gamma, beta, None, None, "test")
    with pytest.raises(InvalidInputError):
        graph.edge_conv(Tensor(x), idx, w, gamma, beta, None, None, "eval")  # no buffers
    with pytest.raises(InvalidInputError):
        graph.edge_conv(Tensor(x), idx, w, gamma, beta, None, None, "train", slope=1.0)
    empty = NeighborIndex(indices=np.zeros((2, 8, 0), dtype=np.int64), k=0, n_points=8)
    with pytest.raises(InvalidInputError):
        graph.edge_conv(Tensor(x), empty, w, gamma, beta, None, None, "train")


def test_conv_stage_memory_stays_under_one_edge_tensor():
    # conv3 of the default model at B=2 on mmactivity-sized windows (C 64 ->
    # 128, N=960, k=20, f32): forward plus backward in train mode must not
    # trace as much as one (B, C_out, N, k) f32 edge tensor, 19.7 MB
    b, c, co, n, k = 2, 64, 128, 960, 20
    rng = np.random.default_rng(0)
    block = _ConvBlock(2 * c, co, rng, "f32", 0.2)
    idx = NeighborIndex(indices=rng.integers(0, n, size=(b, n, k)), k=k, n_points=n)
    points = Tensor(rng.normal(size=(b, c, n)), dtype="f32", requires_grad=True)
    weights = Tensor(rng.normal(size=(b, co, n)), dtype="f32")
    budget = 4 * b * co * n * k
    tracemalloc.start()
    try:
        out = block(points, idx)
        T.reduce_sum(T.mul(out, weights)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (b, co, n) and points.grad is not None
    assert peak < budget, f"traced peak {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"
