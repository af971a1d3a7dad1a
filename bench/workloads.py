"""The benchmark's workloads, run through adaptgraph's public API.

Each workload is a closed loop with one caller: the next op starts when the
previous one returns, the way ``fit`` steps and ``adaptgraph infer`` reads
stdin. An op is a train step (``train-synth``) or an emitted stream window
(``stream-*``). Inputs are generated from the seed before the clock starts.

A run is: input generation, one timed set-up, ops until ``seconds`` have
passed, more timed set-ups, then output checks. With tracing on, rounds (a
``fit`` call or a window) alternate between untraced and wrapped in spans at
every call into a layer.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from adaptgraph import checkpoint, data, graph, kernels, network, tensor, training
from adaptgraph.data import FrameSequence, PipelineConfig, StreamAssembler, SynthSpec
from adaptgraph.network import ModelConfig
from adaptgraph.tensor import Tensor
from adaptgraph.training import TrainConfig

from spans import Tracer, maybe_span, summarize

# set-up is timed over at least this many repeats and this share of the run's
# seconds, and the median reported: one short set-up samples the machine at a
# single moment. The repeats after the first run once peak RSS has been read,
# so the garbage they leave does not show in it.
SETUP_REPEATS = 5
SETUP_SHARE = 1 / 30
SEQ_ID = 0


@dataclass(frozen=True)
class TrainCase:
    """``fit`` one epoch per call, repeatedly, on a synth dataset."""
    synth: SynthSpec
    pipeline: PipelineConfig
    model: ModelConfig
    batch: int


@dataclass(frozen=True)
class StreamCase:
    """Frames pushed one at a time through ``StreamAssembler`` into an
    eval-mode model loaded from a checkpoint."""
    window: int
    points: int
    frame_points: Tuple[int, int]   # generated points per frame, inclusive range
    model: ModelConfig
    check_windows: int              # windows whose prediction is re-derived; 0 = all
    check_batch: int                # predict batch; 1 where a bigger batch would not fit


WORKLOADS = {
    # synth preset: B=32, N=5x4=20, 320 train / 40 val windows
    "train-synth": TrainCase(SynthSpec(), data.preset("synth"), ModelConfig(), batch=32),
    # mmactivity window: 60 frames x 16 points = N 960, 19,200 edges; frames of
    # 8..24 points, so both the pad and the subsample path run
    "stream-mmactivity": StreamCase(60, 16, (8, 24), ModelConfig(),
                                    check_windows=6, check_batch=1),
    # synth window: 5 frames x 4 points = N 20, every frame subsampled from 32
    "stream-synth": StreamCase(5, 4, (32, 32), ModelConfig(),
                               check_windows=64, check_batch=32),
}

_TINY_MODEL = ModelConfig(k=4, stage_widths=(8, 8, 8, 8), emb_dims=16, fc_widths=(8,),
                          num_classes=2)
TINY = {
    "train-synth": TrainCase(SynthSpec(classes=2, sequences_per_class=10, frames=5, points=6),
                             data.preset("synth"), _TINY_MODEL, batch=8),
    "stream-mmactivity": StreamCase(6, 2, (1, 3), _TINY_MODEL, check_windows=3, check_batch=1),
    "stream-synth": StreamCase(5, 4, (6, 6), _TINY_MODEL, check_windows=0, check_batch=4),
}


@dataclass
class Result:
    kind: str                       # "train" or "stream"
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    samples_per_s: float = 0.0
    op_ms: List[float] = field(default_factory=list)
    trace: Optional[dict] = None

    def end_to_end(self) -> dict:
        op_ms = np.asarray(self.op_ms, dtype=np.float64)
        return {"setup_s": self.setup_s, "peak_rss_mb": self.peak_rss_mb,
                "samples_per_s": self.samples_per_s,
                "op_ms_p50": float(np.percentile(op_ms, 50)),
                "op_ms_p90": float(np.percentile(op_ms, 90))}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn: Callable):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _setup_median(setup: Callable, first: float, seconds: float) -> float:
    times = [first]
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SHARE * seconds:
        times.append(_timed(setup)[0])
    return statistics.median(times)


def _loop(step: Callable[[], float], until: float, start: float) -> None:
    """Run rounds (one ``fit`` call, or one stream window) back to back and
    stop at the round boundary nearest to ``until`` seconds after ``start``."""
    spent, rounds = 0.0, 0
    while True:
        spent += step()
        rounds += 1
        if time.perf_counter() - start + spent / rounds / 2 >= until:
            return


def _run_phases(step: Callable[[Optional[Tracer]], float], seconds: float,
                tracer: Optional[Tracer]) -> None:
    """Rounds for ``seconds``. With a tracer, rounds alternate between untraced
    and traced, so both see the same machine and their difference is the
    tracing overhead."""
    start = time.perf_counter()
    if tracer is None:
        _loop(lambda: step(None), seconds, start)
        return
    patches = _patches(tracer)
    rounds = [0]

    def alternate() -> float:
        rounds[0] += 1
        if rounds[0] % 2:
            return step(None)
        with tracer.installed(patches):
            return step(tracer)

    _loop(alternate, seconds, start)


def _patches(tracer: Tracer):
    """Timing wrappers for the traced phase, one per call into a layer.

    A train step is the op from its training-mode forward to the return of
    ``sgd_step``; a stream window's op span is opened by the caller.
    """
    macs = {}

    def forward_before(args):
        net, x = args[0], args[1]
        if net.training and tracer.op is None:
            tracer.begin_op("training.step")
        key = (net.cfg, x.shape[2])
        if key not in macs:
            macs[key] = network.count_macs(net.cfg, x.shape[2])
        tracer.count("network.macs", macs[key] * x.shape[0])

    def step_after(args, result):
        if tracer.op is not None:
            tracer.end_op()

    return [
        (network.ActivityNet, "forward", "network.forward", forward_before, None),
        (network._ConvBlock, "forward", "network.conv_fwd", None, None),
        (graph, "knn", "graph.knn", None, None),
        (graph, "graph_feature", "graph.graph_feature", None, None),
        (kernels.MultiHeadAdaptiveKernel, "forward", "kernels.mak_fwd", None, None),
        (kernels.MultiHeadAdaptiveKernel, "generate_kernels", "kernels.generate", None,
         lambda args, bank: tracer.count("kernels.bank_bytes", bank.data.nbytes)),
        (kernels, "apply_heads", "kernels.apply_heads", None, None),
        (tensor, "softmax_cross_entropy", "tensor.loss", None, None),
        (tensor, "backward", "tensor.backward", None, None),
        (tensor, "_topo", "tensor.topo", None,
         lambda args, order: tracer.count("tensor.graph_nodes", len(order))),
        (training, "sgd_step", "training.sgd_step", None, step_after),
        (training, "_validate_pass", "training.validate", None, None),
        (training, "save_checkpoint", "checkpoint.save", None, None),
    ]


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------
# train-synth
# ---------------------------------------------------------------------

class _StepClock:
    """Timestamps each ``sgd_step`` return, so step latency is measured
    without tracing. Costs one clock read per step."""

    def __init__(self):
        self.marks: List[float] = []

    def __enter__(self):
        original = self._original = training.sgd_step

        def clocked(*args, **kwargs):
            original(*args, **kwargs)
            self.marks.append(time.perf_counter())

        training.sgd_step = clocked
        return self

    def __exit__(self, *exc):
        training.sgd_step = self._original


def run_train(case: TrainCase, seed: int, seconds: float, tracer: Optional[Tracer],
              scratch: str, perturb: bool = False) -> Result:
    res = Result("train")
    sequences = data.synth_generate(case.synth, seed)
    pipeline = replace(case.pipeline, seed=seed)
    tcfg = TrainConfig(batch_size=case.batch, max_epochs=1, patience=1, seed=seed)

    def setup():
        samples = data.build_samples(sequences, pipeline)
        train_set, val_set, _ = data.split(samples, pipeline.split_ratios, pipeline.seed)
        return network.build(case.model, seed), train_set, val_set

    first_setup, (model, train_set, val_set) = _timed(setup)
    steps_per_epoch = math.ceil(len(train_set) / case.batch)
    trained = [0, 0.0]            # samples, seconds inside fit
    phase_ops: List[Tuple[bool, float]] = []   # (traced, step latency)

    with tempfile.TemporaryDirectory(dir=scratch) as tmp, _StepClock() as clock:
        path = os.path.join(tmp, "checkpoint.bin")

        def fit_round(tr: Optional[Tracer]) -> float:
            mark = len(clock.marks)
            t0 = time.perf_counter()
            try:
                fitted = training.fit(model, train_set, val_set, tcfg, checkpoint_path=path)
            except Exception:
                traceback.print_exc()
                fitted = None
                if tr is not None:
                    tr.unwind_op()
            elapsed = time.perf_counter() - t0
            marks = [t0] + clock.marks[mark:]
            phase_ops.extend((tr is not None, b - a) for a, b in zip(marks, marks[1:]))
            epochs = len(fitted.history) if fitted is not None else 1
            res.attempted += steps_per_epoch * epochs
            if fitted is None or not _check_fit(fitted, path, tr, perturb):
                res.failed += steps_per_epoch * epochs
            trained[0] += len(train_set) * epochs
            trained[1] += elapsed
            return elapsed

        _run_phases(fit_round, seconds, tracer)
        res.peak_rss_mb = _peak_rss_mb()
        checkpoint_bytes = os.path.getsize(path) if os.path.exists(path) else 0

    res.setup_s = _setup_median(setup, first_setup, seconds)

    res.samples_per_s = trained[0] / trained[1]
    res.op_ms = [1e3 * d for _, d in phase_ops]
    if tracer is not None:
        res.trace = _trace_report(tracer, "training.step", phase_ops, checkpoint_bytes)
    return res


def _check_fit(fitted, path: str, tr: Optional[Tracer], perturb: bool) -> bool:
    """Every history row is finite and the checkpoint ``fit`` wrote loads back
    bitwise equal to ``best_state``."""
    finite = all(math.isfinite(v) for row in fitted.history
                 for v in (row.lr, row.train_loss, row.val_loss, row.val_acc))
    with maybe_span(tr, "checkpoint.load"):
        _, state = checkpoint.load_checkpoint(path)
    if perturb:
        first = state[min(state)]
        first.flat[0] += 1
    best = fitted.best_state or {}
    same = state.keys() == best.keys() and all(_bitwise_equal(state[k], best[k]) for k in best)
    return finite and same


# ---------------------------------------------------------------------
# stream-*
# ---------------------------------------------------------------------

class FrameSource:
    """Frames of one seeded recording: a body-sized cloud walking a circle.
    Frame i depends only on (seed, i), and its point count is drawn from
    ``points`` (inclusive)."""

    def __init__(self, seed: int, points: Tuple[int, int]):
        self.seed = seed
        self.points = points

    def frame(self, i: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, i)))
        m = int(rng.integers(self.points[0], self.points[1] + 1))
        a = 0.05 * i
        center = np.array([np.cos(a), np.sin(a), 0.9])
        pts = center + rng.normal(0.0, 1.0, size=(m, 3)) * np.array([0.15, 0.15, 0.45])
        return np.ascontiguousarray(pts, dtype=np.float32)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def run_stream(case: StreamCase, seed: int, seconds: float, tracer: Optional[Tracer],
               scratch: str, perturb: bool = False) -> Result:
    res = Result("stream")
    source = FrameSource(seed, case.frame_points)
    warm = [source.frame(i) for i in range(case.window - 1)]
    frames = list(warm)
    streamed: List[Optional[np.ndarray]] = []
    preds: List[int] = []
    phase_ops: List[Tuple[bool, float]] = []

    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = os.path.join(tmp, "checkpoint.bin")
        checkpoint.save_checkpoint(
            path, checkpoint.state_dict(network.build(case.model, seed)),
            {"kind": "checkpoint", "dtype": "f32",
             "model_config": network.config_to_dict(case.model)})
        checkpoint_bytes = os.path.getsize(path)

        def setup():
            with maybe_span(tracer, "checkpoint.load"):
                manifest, state = checkpoint.load_checkpoint(path)
            model = network.build(network.config_from_dict(manifest["model_config"]),
                                  seed=0, dtype=manifest["dtype"])
            checkpoint.load_state(model, state)
            model.eval()
            assembler = StreamAssembler(case.window, case.points, seed=seed, seq_id=SEQ_ID)
            for frame in warm:
                if assembler.push(frame) is not None:
                    raise RuntimeError("assembler emitted a window before it was full")
            return model, assembler

        first_setup, (model, assembler) = _timed(setup)

        def window(tr: Optional[Tracer]) -> float:
            frame = source.frame(len(frames))
            frames.append(frame)
            t0 = time.perf_counter()
            if tr is not None:
                tr.begin_op("stream.window")
            try:
                with maybe_span(tr, "data.push"):
                    sample = assembler.push(frame)
                if tr is not None:
                    m = frame.shape[0]
                    tr.count("data.frames", 1)
                    tr.count("data.frames_padded", m < case.points)
                    tr.count("data.frames_subsampled", m > case.points)
                with tensor.no_grad():
                    logits = model(Tensor(sample.tensor[None, :, :]))
                pred = int(np.argmax(_softmax(logits.data[0])))
            except Exception:
                traceback.print_exc()
                sample, pred = None, -1
                if tr is not None:
                    tr.unwind_op()
            else:
                if tr is not None:
                    tr.end_op()
            elapsed = time.perf_counter() - t0
            streamed.append(None if sample is None else sample.tensor)
            preds.append(pred)
            phase_ops.append((tr is not None, elapsed))
            return elapsed

        _run_phases(window, seconds, tracer)
        res.peak_rss_mb = _peak_rss_mb()
        res.setup_s = _setup_median(setup, first_setup, seconds)

    if perturb:
        preds[0] = (preds[0] + 1) % case.model.num_classes
    bad = _check_stream(case, seed, model, frames, streamed, preds)
    res.attempted = len(preds)
    res.failed = sum(bad)
    res.samples_per_s = len(phase_ops) / sum(d for _, d in phase_ops)
    res.op_ms = [1e3 * d for _, d in phase_ops]
    if tracer is not None:
        res.trace = _trace_report(tracer, "stream.window", phase_ops, checkpoint_bytes)
    return res


def _check_stream(case: StreamCase, seed: int, model, frames, streamed, preds) -> List[bool]:
    """Window j is bad unless the streamed input equals the j-th window of
    ``make_windows(stride=1)`` over the same frames, bit for bit, and, for the
    windows re-derived, the streamed class equals ``training.predict``'s."""
    seq = FrameSequence(frames=frames, label=0, seq_id=SEQ_ID)
    windows = data.make_windows(seq, case.window, 1, case.points, seed)
    n = len(preds)
    if len(windows) != n:
        return [True] * n
    bad = [s is None or not _bitwise_equal(w.tensor, s) for w, s in zip(windows, streamed)]
    if case.check_windows and n > case.check_windows:
        chosen = sorted({int(round(j)) for j in np.linspace(0, n - 1, case.check_windows)})
    else:
        chosen = list(range(n))
    batch = training.predict(model, [windows[j] for j in chosen], batch_size=case.check_batch)
    for j, p in zip(chosen, batch):
        if preds[j] != int(p):
            bad[j] = True
    return bad


# ---------------------------------------------------------------------
# traced-run report
# ---------------------------------------------------------------------

def _trace_report(tracer: Tracer, op_name: str, phase_ops, checkpoint_bytes: int) -> dict:
    s = summarize(tracer, op_name)
    plain = [d for traced, d in phase_ops if not traced]
    traced = [d for traced, d in phase_ops if traced]
    span, own, calls, counts = s["span_ms"], s["span_self_ms"], s["call_ms"], s["counts"]
    forward = span.get("network.forward")

    def share(name):
        totals = s["count_totals"]
        return totals[name] / totals["data.frames"] if "data.frames" in totals else None

    layer = {
        "graph.knn_ms": span.get("graph.knn"),
        "graph.graph_feature_ms": span.get("graph.graph_feature"),
        "kernels.mak_fwd_ms": span.get("kernels.mak_fwd"),
        "kernels.generate_ms": span.get("kernels.generate"),
        "kernels.apply_heads_ms": span.get("kernels.apply_heads"),
        "kernels.bank_bytes": counts.get("kernels.bank_bytes"),
        "network.forward_ms": forward,
        "network.conv_fwd_ms": span.get("network.conv_fwd"),
        "network.rest_fwd_ms": own.get("network.forward"),
        "network.gmacs_per_s": (counts["network.macs"] / forward / 1e6
                                if forward else None),
        "tensor.backward_ms": span.get("tensor.backward"),
        "tensor.graph_nodes": counts.get("tensor.graph_nodes"),
        "training.step_ms_p50": s["op_ms_p50"] if op_name == "training.step" else None,
        "training.sgd_step_ms": span.get("training.sgd_step"),
        "training.validate_s": (calls["training.validate"] / 1e3
                                if "training.validate" in calls else None),
        "data.push_ms": span.get("data.push"),
        "data.frames_padded_share": share("data.frames_padded"),
        "data.frames_subsampled_share": share("data.frames_subsampled"),
        "checkpoint.save_ms": calls.get("checkpoint.save"),
        "checkpoint.load_ms": calls.get("checkpoint.load"),
        "checkpoint.bytes": checkpoint_bytes,
    }
    for name, ms in s["layer_self_ms"].items():
        layer[f"{name}.self_ms"] = ms
    layer.update({
        "trace.op_ms_p50": s["op_ms_p50"],
        "trace.coverage": s["coverage"],
        "trace.overhead": (statistics.median(traced) / statistics.median(plain) - 1.0
                           if plain and traced else None),
        "trace.ops_traced": len(traced),
        "trace.ops_untraced": len(plain),
    })
    return {"layer": layer, "summary": s, "spans": tracer.spans}


def run(name: str, seed: int, seconds: float, trace: bool, scratch: str,
        cases=None, perturb: bool = False) -> Result:
    case = (cases or WORKLOADS)[name]
    fn = run_train if isinstance(case, TrainCase) else run_stream
    return fn(case, seed, seconds, Tracer() if trace else None, scratch, perturb)
