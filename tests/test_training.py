"""Optimization loop: exact optimizer arithmetic, schedule shape, stopping
logic, metric definitions, and end-to-end fit behaviour on a separable toy."""

import gc
import math

import numpy as np
import pytest

from adaptgraph import cli
from adaptgraph import tensor as T
from adaptgraph.data import Sample
from adaptgraph.errors import ConfigError, DataError, DivergenceError, InvalidInputError
from adaptgraph.network import ModelConfig, build
from adaptgraph.nn import Parameter
from adaptgraph.tensor import Tensor
from adaptgraph.training import (HISTORY_HEADER, EarlyStopper, TrainConfig,
                                 confusion_matrix, cosine_lr, evaluate, fit,
                                 history_lines, metrics_from_confusion, predict,
                                 sgd_step)

TOY_MODEL = ModelConfig(in_channels=3, k=3, stage_widths=(4, 4, 4, 4),
                        emb_dims=8, fc_widths=(8,), num_classes=2,
                        dropout=0.0, mak_mid_channels=4)


def toy_samples(n_per_class=12, n_points=8, seed=0):
    """Two well-separated Gaussian blobs, trivially separable."""
    rng = np.random.default_rng(seed)
    out = []
    for label, center in ((0, -1.0), (1, 1.0)):
        for _ in range(n_per_class):
            pts = rng.normal(center, 0.15, size=(3, n_points)).astype(np.float32)
            out.append(Sample(tensor=pts, label=label))
    rng.shuffle(out)
    return out


def param_of(value):
    p = Parameter(Tensor(np.asarray(value, dtype=np.float64), requires_grad=True))
    return p


# ---------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------

def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0, 10, 0.1) == pytest.approx(0.1, abs=1e-15)
    assert cosine_lr(5, 10, 0.1) == pytest.approx(0.05, abs=1e-15)
    assert cosine_lr(10, 10, 0.1) == pytest.approx(0.0, abs=1e-15)
    assert cosine_lr(5, 10, 0.1, lr_min=0.01) == pytest.approx(0.055, abs=1e-15)
    assert cosine_lr(1, 4, 1.0) == pytest.approx(0.8535533905932737, abs=1e-15)


def test_cosine_schedule_is_monotone_decreasing():
    vals = [cosine_lr(e, 20, 0.1) for e in range(21)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cosine_schedule_guards_and_overrun():
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 0.1)
    with pytest.raises(InvalidInputError):
        cosine_lr(-1, 10, 0.1)
    with pytest.warns(UserWarning):
        assert cosine_lr(15, 10, 0.1, lr_min=0.003) == 0.003


# ---------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------

def test_sgd_plain_step():
    p = param_of([1.0])
    sgd_step([p], [np.array([1.0])], lr=0.1, momentum=0.0)
    np.testing.assert_allclose(p.value.data, [0.9], atol=1e-15)


def test_sgd_momentum_two_steps():
    # v1 = 1, w = 1 - 0.1; v2 = 0.9 + 1 = 1.9, w = 0.9 - 0.19 = 0.71
    p = param_of([1.0])
    g = np.array([1.0])
    sgd_step([p], [g], lr=0.1, momentum=0.9)
    np.testing.assert_allclose(p.value.data, [0.9], atol=1e-15)
    sgd_step([p], [g], lr=0.1, momentum=0.9)
    np.testing.assert_allclose(p.value.data, [0.71], atol=1e-15)


def test_sgd_weight_decay_closed_form():
    # zero gradient, no momentum: w_t = w_0 * (1 - lr*wd)^t
    p = param_of([2.0])
    for _ in range(100):
        sgd_step([p], [np.zeros(1)], lr=0.1, momentum=0.0, weight_decay=0.01)
    np.testing.assert_allclose(p.value.data, [2.0 * (1 - 0.001) ** 100], rtol=1e-12)


def test_sgd_uses_stored_grads_when_none_given():
    p = param_of([3.0])
    p.value.grad = np.array([2.0])
    sgd_step([p], None, lr=0.5, momentum=0.0)
    np.testing.assert_allclose(p.value.data, [2.0])


def test_sgd_skips_params_without_grad():
    p = param_of([3.0])
    sgd_step([p], None, lr=0.5, momentum=0.0)
    np.testing.assert_allclose(p.value.data, [3.0])


def formula_sgd_step(params, grads, lr, momentum, weight_decay):
    """The update sgd_step makes, one whole array at a time."""
    for p, g in zip(params, grads):
        data = p.value.data
        if g is None:
            g = np.zeros_like(data)
        step = g + weight_decay * data if weight_decay else np.array(g, copy=True)
        if momentum:
            if p.momentum_buffer is None:
                p.momentum_buffer = np.zeros_like(data)
            p.momentum_buffer *= momentum
            p.momentum_buffer += step
            step = p.momentum_buffer
        data -= np.asarray(lr, dtype=data.dtype) * step


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_step_equals_the_formula_bitwise(momentum, weight_decay, dtype, block,
                                             monkeypatch):
    # blocks of 7 values split every array but the smallest; signed zeros
    # and a None gradient take the formula's rounding too
    if block is not None:
        monkeypatch.setattr(T, "_MAX_BLOCK_VALUES", block)
    rng = np.random.default_rng(3)
    shapes = [(3, 5), (4,), (2, 3, 4), (1,)]
    values = [rng.normal(size=s).astype(dtype) for s in shapes]
    values[0][0] = [0.0, -0.0, 0.0, -0.0, 1.0]
    values[2][0, 0] = [-0.0, 0.0, -0.0, 1.0]  # its gradient is None
    runs = []
    for _ in range(2):
        runs.append([Parameter(Tensor(v.copy(), requires_grad=True)) for v in values])
    for step in range(3):
        grads = [rng.normal(size=s).astype(dtype) for s in shapes]
        grads[0][0] = [0.0, 0.0, -0.0, -0.0, 0.0]
        grads[2] = None
        if step == 1:  # a parameter's first step, with no momentum buffer yet
            runs = [r + [Parameter(Tensor(np.full(5, -0.0, dtype), requires_grad=True))]
                    for r in runs]
        if len(runs[0]) > len(grads):
            grads.append(rng.normal(size=5).astype(dtype))
        sgd_step(runs[0], grads, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        formula_sgd_step(runs[1], grads, lr=0.05, momentum=momentum,
                         weight_decay=weight_decay)
        for got, want in zip(*runs):
            assert got.value.data.dtype == dtype
            assert got.value.data.tobytes() == want.value.data.tobytes(), step
            if momentum:
                assert got.momentum_buffer.tobytes() == want.momentum_buffer.tobytes()
            else:
                assert got.momentum_buffer is None and want.momentum_buffer is None


# ---------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------

def test_early_stopper_scripted_run():
    s = EarlyStopper(patience=2)
    assert s.update(1, 1.0) and not s.should_stop
    assert s.update(2, 0.9) and not s.should_stop
    assert not s.update(3, 0.95) and not s.should_stop
    assert not s.update(4, 0.97) and s.should_stop
    assert s.best_epoch == 2 and s.best == 0.9


def test_early_stopper_requires_strict_improvement():
    s = EarlyStopper(patience=1)
    s.update(1, 0.5)
    assert not s.update(2, 0.5)  # ties do not reset patience
    assert s.should_stop
    with pytest.raises(ConfigError):
        EarlyStopper(0)


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

def test_confusion_matrix_fixture():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    np.testing.assert_array_equal(cm, [[1, 1], [0, 2]])
    with pytest.raises(InvalidInputError):
        confusion_matrix([0], [0, 1], 2)
    with pytest.raises(InvalidInputError):
        confusion_matrix([0, 2], [0, 1], 2)


def test_weighted_metrics_fixture():
    m = metrics_from_confusion(np.array([[1, 1], [0, 2]]))
    assert m.accuracy == pytest.approx(0.75)
    # precision: class0 1/1 (support 2), class1 2/3 (support 2) -> 5/6
    assert m.precision == pytest.approx(5.0 / 6.0)
    assert m.recall == pytest.approx(0.75)
    f0, f1 = 2 / 3, 0.8  # per-class harmonic means
    assert m.f1 == pytest.approx((2 * f0 + 2 * f1) / 4)


def test_weighted_recall_equals_accuracy():
    rng = np.random.default_rng(17)
    y_true = rng.integers(0, 4, 200)
    y_pred = rng.integers(0, 4, 200)
    m = metrics_from_confusion(confusion_matrix(y_true, y_pred, 4))
    assert m.recall == pytest.approx(m.accuracy, abs=1e-12)
    assert m.confusion.sum() == 200


def test_macro_average_and_silent_class():
    # class 1 never predicted: its precision contributes 0, no NaN anywhere
    cm = confusion_matrix([0, 1, 1], [0, 0, 0], 2)
    w = metrics_from_confusion(cm, "weighted")
    mac = metrics_from_confusion(cm, "macro")
    assert math.isfinite(w.precision) and math.isfinite(mac.precision)
    assert mac.recall == pytest.approx(0.5)  # (1.0 + 0.0) / 2
    with pytest.raises(InvalidInputError):
        metrics_from_confusion(cm, "median")


def test_history_lines_round_trip_exactly():
    from adaptgraph.training import HistoryRow
    rows = [HistoryRow(1, 0.1, 1.2345678901234567, 0.9876543210987654, 0.5),
            HistoryRow(2, 1 / 3, 2 / 3, 1 / 7, 0.125)]
    lines = history_lines(rows)
    assert lines[0] == HISTORY_HEADER == "epoch,lr,train_loss,val_loss,val_acc"
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row.epoch
        assert float(cells[1]) == row.lr          # repr round-trips exactly
        assert float(cells[2]) == row.train_loss
        assert float(cells[3]) == row.val_loss
        assert float(cells[4]) == row.val_acc


# ---------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------

def quick_cfg(**over):
    base = dict(lr_max=0.05, momentum=0.9, weight_decay=1e-4, batch_size=8,
                max_epochs=10, patience=10, seed=0)
    base.update(over)
    return TrainConfig(**base)


def test_fit_solves_separable_toy():
    model = build(TOY_MODEL, seed=1)
    train, val = toy_samples(12), toy_samples(4, seed=99)
    result = fit(model, train, val, quick_cfg())
    assert result.best_val_acc == 1.0
    assert result.history[-1].train_loss < result.history[0].train_loss
    assert [h.epoch for h in result.history] == list(range(1, result.stopped_epoch + 1))
    m = evaluate(model, val)
    assert m.accuracy == 1.0 and m.confusion.sum() == 8


def test_fit_is_seed_deterministic():
    runs = []
    for _ in range(2):
        model = build(TOY_MODEL, seed=1)
        result = fit(model, toy_samples(8), toy_samples(3, seed=5),
                     quick_cfg(max_epochs=3))
        final = np.concatenate([p.value.data.ravel() for p in model.parameters()])
        runs.append((result, final))
    ra, rb = runs
    assert [(h.lr, h.train_loss, h.val_loss, h.val_acc) for h in ra[0].history] == \
           [(h.lr, h.train_loss, h.val_loss, h.val_acc) for h in rb[0].history]
    np.testing.assert_array_equal(ra[1], rb[1])


def test_fit_seed_changes_the_run():
    losses = []
    for seed in (0, 1):
        model = build(TOY_MODEL, seed=1)
        r = fit(model, toy_samples(8), toy_samples(3, seed=5),
                quick_cfg(max_epochs=2, seed=seed))
        losses.append(r.history[-1].train_loss)
    assert losses[0] != losses[1]


def test_fit_stops_early_on_scripted_plateau(monkeypatch):
    from adaptgraph import training
    script = iter([1.0, 0.9, 0.95, 0.97, 0.8, 0.8])
    monkeypatch.setattr(training, "_validate_pass",
                        lambda *a, **k: (next(script), 0.5))
    model = build(TOY_MODEL, seed=2)
    r = fit(model, toy_samples(6), toy_samples(2, seed=3),
            quick_cfg(max_epochs=50, patience=2))
    # improvements at 1 and 2, then two bad epochs: stop at 4, never see 0.8
    assert r.best_epoch == 2
    assert r.best_val_loss == 0.9
    assert r.stopped_epoch == 4


def test_fit_divergence_raises_with_history():
    model = build(TOY_MODEL, seed=3)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
        fit(model, toy_samples(8), toy_samples(3, seed=4),
            quick_cfg(lr_max=1e6, max_epochs=50))
    assert isinstance(exc.value.history, list)


def test_fit_rejects_bad_labels_and_empty_splits():
    model = build(TOY_MODEL, seed=0)
    bad = [Sample(tensor=np.zeros((3, 8), dtype=np.float32), label=7)]
    with pytest.raises(DataError):
        fit(model, bad, toy_samples(2), quick_cfg())
    with pytest.raises(DataError):
        fit(model, [], toy_samples(2), quick_cfg())


def test_fit_writes_best_checkpoint(tmp_path):
    from adaptgraph.checkpoint import load_checkpoint
    path = tmp_path / "best.bin"
    model = build(TOY_MODEL, seed=1)
    r = fit(model, toy_samples(8), toy_samples(3, seed=6),
            quick_cfg(max_epochs=3), checkpoint_path=path,
            extra_manifest={"note": "toy"})
    assert path.exists() and r.checkpoint_path == str(path)
    manifest, state = load_checkpoint(path)
    assert manifest["epoch"] == r.best_epoch
    assert manifest["val_loss"] == r.best_val_loss
    assert manifest["note"] == "toy"
    assert manifest["model_config"]["num_classes"] == 2
    assert manifest["train_config"]["lr_max"] == 0.05
    np.testing.assert_array_equal(state["head.bias"], r.best_state["head.bias"])


def test_predict_on_empty_sequence():
    model = build(TOY_MODEL, seed=0)
    assert predict(model, []).shape == (0,)
    with pytest.raises(InvalidInputError):
        evaluate(model, [])


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr_max=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(dtype="f16").validate()
    for name in ("lr_max", "lr_min", "momentum", "weight_decay"):
        for v in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                TrainConfig(**{name: v})
    TrainConfig().validate()


def test_non_finite_learning_rate_flag_exits_2(tmp_path, capsys):
    argv = ["train", "--preset", "synth", "--limit", "40", "--epochs", "1",
            "--lr-max", "inf", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    assert "lr_max must be finite" in capsys.readouterr().err


def test_fit_holds_no_graph_node_at_a_training_forward(monkeypatch):
    # each step's graph is released once its backward is done: no node of
    # the previous step is alive when the next training-mode forward starts
    # (a loop that kept logits and loss bound held two graphs at once)
    from adaptgraph import network
    from adaptgraph.tensor import _Node

    live = []
    real_forward = network.ActivityNet.forward

    def forward(net, x, rng=None):
        if net.training:
            gc.collect()
            live.append(sum(isinstance(o, _Node) for o in gc.get_objects()))
        return real_forward(net, x, rng)

    monkeypatch.setattr(network.ActivityNet, "forward", forward)
    samples = toy_samples(n_per_class=6)
    model = build(TOY_MODEL, seed=0)
    cfg = TrainConfig(lr_max=0.05, max_epochs=2, patience=5, batch_size=4)
    fit(model, samples[:8], samples[8:], cfg)
    assert len(live) == 4 and live == [0] * 4, live
