"""Training loop: momentum SGD, cosine schedule, early stopping, metrics.

Determinism contract: given the same model seed, data, and TrainConfig, every
epoch's shuffle and dropout stream derives from (seed, epoch, purpose), so two
runs produce bitwise-identical histories and checkpoints.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint, state_dict
from .errors import ConfigError, DataError, DivergenceError, InvalidInputError
from .network import config_to_dict
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 0.1
    lr_min: float = 0.0
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 250
    patience: int = 30
    seed: int = 0
    dtype: str = "f32"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        # values can come from a hand-edited run manifest, so check types
        # before comparing
        for name, kind in (("lr_max", numbers.Real), ("lr_min", numbers.Real),
                           ("momentum", numbers.Real), ("weight_decay", numbers.Real),
                           ("batch_size", numbers.Integral), ("max_epochs", numbers.Integral),
                           ("patience", numbers.Integral), ("seed", numbers.Integral)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, kind):
                what = "an integer" if kind is numbers.Integral else "a number"
                raise ConfigError(f"{name} must be {what}, got {v!r}")
            if not -math.inf < v < math.inf:
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if not self.lr_max > self.lr_min >= 0:
            raise ConfigError(
                f"need lr_max > lr_min >= 0, got lr_max={self.lr_max}, lr_min={self.lr_min}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be 'f32' or 'f64', got {self.dtype!r}")


def cosine_lr(epoch: int, total: int, lr_max: float, lr_min: float = 0.0) -> float:
    """lr_min + (lr_max - lr_min) * (1 + cos(pi * epoch / total)) / 2."""
    if total < 1:
        raise ConfigError(f"total epochs must be >= 1, got {total}")
    if epoch < 0:
        raise InvalidInputError(f"epoch must be >= 0, got {epoch}")
    if epoch > total:
        warnings.warn(f"epoch {epoch} beyond schedule total {total}; clamping to lr_min")
        return lr_min
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * epoch / total))


def sgd_step(params, grads=None, lr: float = 0.1,
             momentum: float = 0.9, weight_decay: float = 0.0) -> None:
    """In-place momentum SGD: step = wd*p + g; buf = m*buf + step;
    p -= lr*buf. A None gradient is a zero one; a gradient in another dtype
    than its parameter's is rounded to it first.

    Each parameter is updated a ``T._blocks`` block at a time through one
    scratch block per dtype, so nothing the size of a parameter is
    allocated but a first step's momentum buffer."""
    if grads is None:
        grads = [p.value.grad for p in params]
    largest = {}
    for p in params:
        dt = p.value.data.dtype
        largest[dt] = max(largest.get(dt, 0), p.value.data.size)
    scratch = {dt: np.empty(T._blocks(size, 1, 1)[0][1] if size else 0, dtype=dt)
               for dt, size in largest.items()}
    for p, g in zip(params, grads):
        data = p.value.data.reshape(-1)
        g = None if g is None else np.asarray(g).reshape(-1)
        if momentum and p.momentum_buffer is None:
            p.momentum_buffer = np.zeros_like(p.value.data)
        buf = p.momentum_buffer.reshape(-1) if momentum else None
        rate = np.asarray(lr, dtype=data.dtype)
        for i, j, _, _ in T._blocks(data.size, 1, 1):
            step = scratch[data.dtype][:j - i]
            if weight_decay:
                np.multiply(data[i:j], weight_decay, out=step)
                step += 0 if g is None else g[i:j]  # adding 0 turns -0.0 into 0.0
            elif g is None:
                step[...] = 0
            else:
                step[...] = g[i:j]
            if buf is not None:
                buf[i:j] *= momentum
                buf[i:j] += step
                np.multiply(buf[i:j], rate, out=step)
            else:
                step *= rate
            data[i:j] -= step


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict val-loss improvement."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.bad_epochs = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        if val_loss < self.best:
            self.best = val_loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad_epochs >= self.patience


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: np.ndarray  # (classes, classes); rows true, columns predicted


def confusion_matrix(y_true, y_pred, num_classes: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise InvalidInputError("label/prediction length mismatch")
    if y_true.size and not (0 <= y_true.min() and y_true.max() < num_classes
                            and 0 <= y_pred.min() and y_pred.max() < num_classes):
        raise InvalidInputError(f"labels must lie in [0, {num_classes})")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def metrics_from_confusion(cm: np.ndarray, average: str = "weighted") -> Metrics:
    """Support-weighted (default) or macro precision/recall/F1 from counts.

    Classes never predicted contribute precision 0; support-weighted recall
    reduces algebraically to plain accuracy.
    """
    if average not in ("weighted", "macro"):
        raise InvalidInputError(f"average must be 'weighted' or 'macro', got {average!r}")
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total == 0:
        raise InvalidInputError("empty confusion matrix")
    tp = np.diag(cm)
    pred_c = cm.sum(axis=0)
    true_c = cm.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(pred_c > 0, tp / pred_c, 0.0)
        rec = np.where(true_c > 0, tp / true_c, 0.0)
        f1 = np.where(prec + rec > 0, 2 * prec * rec / (prec + rec), 0.0)
    if average == "weighted":
        w = true_c / total
        p, r, f = float(prec @ w), float(rec @ w), float(f1 @ w)
    else:
        p, r, f = float(prec.mean()), float(rec.mean()), float(f1.mean())
    return Metrics(accuracy=float(tp.sum() / total), precision=p, recall=r, f1=f,
                   confusion=np.asarray(cm, dtype=np.int64))


def _batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield range(start, min(start + batch_size, n))


def _stack_batch(samples, indices, dtype: str) -> Tensor:
    return Tensor(np.stack([samples[i].tensor for i in indices]), dtype=dtype)


def predict(model, samples: Sequence, batch_size: int = 32, dtype: str = "f32") -> np.ndarray:
    """Eval-mode argmax class ids (np.argmax: lowest index wins ties)."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    model.eval()
    preds = []
    with T.no_grad():
        for idx in _batches(len(samples), batch_size):
            logits = model(_stack_batch(samples, idx, dtype))
            preds.append(np.argmax(logits.data, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate(model, samples: Sequence, batch_size: int = 32,
             average: str = "weighted", dtype: str = "f32") -> Metrics:
    if not samples:
        raise InvalidInputError("evaluate needs a non-empty dataset")
    num_classes = model.cfg.num_classes
    y_true = np.array([s.label for s in samples], dtype=np.int64)
    y_pred = predict(model, samples, batch_size=batch_size, dtype=dtype)
    return metrics_from_confusion(confusion_matrix(y_true, y_pred, num_classes), average)


def _validate_pass(model, samples, batch_size: int, dtype: str):
    model.eval()
    total_loss = 0.0
    correct = 0
    with T.no_grad():
        for idx in _batches(len(samples), batch_size):
            xb = _stack_batch(samples, idx, dtype)
            yb = np.array([samples[i].label for i in idx], dtype=np.int64)
            logits = model(xb)
            loss = T.softmax_cross_entropy(logits, yb)
            total_loss += loss.item() * len(idx)
            correct += int((np.argmax(logits.data, axis=1) == yb).sum())
    n = len(samples)
    return total_loss / n, correct / n


# ---------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------

@dataclass
class HistoryRow:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    val_acc: float


@dataclass
class FitResult:
    history: List[HistoryRow] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf
    best_val_acc: float = 0.0
    stopped_epoch: int = 0
    best_state: Optional[dict] = None
    checkpoint_path: Optional[str] = None


HISTORY_HEADER = "epoch,lr,train_loss,val_loss,val_acc"


def history_lines(history: Sequence[HistoryRow]) -> List[str]:
    lines = [HISTORY_HEADER]
    for h in history:
        lines.append(f"{h.epoch},{h.lr!r},{h.train_loss!r},{h.val_loss!r},{h.val_acc!r}")
    return lines


def fit(model, train_samples: Sequence, val_samples: Sequence,
        cfg: TrainConfig, checkpoint_path=None, extra_manifest: Optional[dict] = None,
        log=None) -> FitResult:
    """Train with per-epoch cosine LR, early stopping, and best-checkpoint saving.

    On validation-loss improvement the full state is snapshotted (and written
    to checkpoint_path when given). A non-finite loss raises DivergenceError
    with the partial history attached; the last written checkpoint survives.
    """
    if not train_samples or not val_samples:
        raise DataError("fit needs non-empty train and val splits")
    num_classes = model.cfg.num_classes
    for s in list(train_samples) + list(val_samples):
        if not 0 <= s.label < num_classes:
            raise DataError(f"label {s.label} outside [0, {num_classes})")

    params = model.parameters()
    stopper = EarlyStopper(cfg.patience)
    result = FitResult()
    n = len(train_samples)

    for epoch in range(1, cfg.max_epochs + 1):
        lr = cosine_lr(epoch - 1, cfg.max_epochs, cfg.lr_max, cfg.lr_min)
        perm = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, epoch, 0))).permutation(n)
        drop_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, epoch, 1)))

        model.train()
        running = 0.0
        for idx in _batches(n, cfg.batch_size):
            chosen = perm[list(idx)]
            xb = _stack_batch(train_samples, chosen, cfg.dtype)
            yb = np.array([train_samples[i].label for i in chosen], dtype=np.int64)
            logits = model(xb, rng=drop_rng)
            loss = T.softmax_cross_entropy(logits, yb)
            lv = loss.item()
            if not math.isfinite(lv):
                err = DivergenceError(f"non-finite training loss at epoch {epoch}")
                err.history = result.history
                raise err
            for p in params:
                p.value.zero_grad()
            loss.backward()
            # release the step's graph before the update, so that no node of
            # it is alive during the next forward or the validation pass
            del logits, loss
            sgd_step(params, None, lr, cfg.momentum, cfg.weight_decay)
            running += lv * len(chosen)
        train_loss = running / n

        val_loss, val_acc = _validate_pass(model, val_samples, cfg.batch_size, cfg.dtype)
        if not math.isfinite(val_loss):
            err = DivergenceError(f"non-finite validation loss at epoch {epoch}")
            err.history = result.history
            raise err

        result.history.append(HistoryRow(epoch, lr, train_loss, val_loss, val_acc))
        result.stopped_epoch = epoch
        if log is not None:
            log(f"epoch {epoch:4d}  lr {lr:.5f}  train {train_loss:.4f}  "
                f"val {val_loss:.4f}  acc {val_acc:.4f}")

        if stopper.update(epoch, val_loss):
            result.best_epoch = epoch
            result.best_val_loss = val_loss
            result.best_val_acc = val_acc
            result.best_state = state_dict(model)
            if checkpoint_path is not None:
                manifest = {
                    "kind": "checkpoint",
                    "epoch": epoch,
                    "val_loss": val_loss,
                    "val_accuracy": val_acc,
                    "dtype": cfg.dtype,
                    "train_config": config_to_dict(cfg),
                    "model_config": config_to_dict(model.cfg),
                }
                if extra_manifest:
                    manifest.update(extra_manifest)
                save_checkpoint(checkpoint_path, result.best_state, manifest)
                result.checkpoint_path = str(checkpoint_path)
        if stopper.should_stop:
            break

    return result
