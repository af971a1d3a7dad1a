"""Command line for the package: train, eval, infer, cost, ablate.

Exit codes are a stable scripting contract: 0 success, 2 configuration
problem, 3 data or I/O problem, 4 numeric failure during training.

Every command echoes its resolved configuration: train/ablate build their
models, then write run_manifest.json into the output directory before any
training (and accept --replay to rerun it bit-for-bit); read-only commands
echo a one-line manifest on standard error so standard output stays
machine-readable. Flags that feed a config default to its fields; a replayed
manifest's opts hold exactly the keys a fresh run records; seeds must differ.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from . import data as D
from . import tensor as T
from .checkpoint import load_checkpoint, load_state
from .errors import ConfigError, DataError, DivergenceError, InvalidInputError
from .network import (ModelConfig, Variant, build, config_from_dict,
                      config_to_dict, count_macs, count_params)
from .tensor import Tensor
from .training import TrainConfig, evaluate, fit, history_lines

_VARIANT_LABELS = {
    Variant.MAK_ONLY: "MakOnly",
    Variant.MAK_FF: "MakFF",
    Variant.SANDWICH_FF: "SandwichFF",
    Variant.SEQUENTIAL_FF: "SequentialFF",
}


def _echo_manifest(manifest: dict) -> None:
    print("# manifest " + json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _pipeline_from_opts(opts: dict) -> D.PipelineConfig:
    base = D.preset(opts["preset"]) if opts["preset"] else D.PipelineConfig()
    return replace(base, seed=opts["data_seed"])


def _source_from_opts(opts: dict) -> dict:
    if opts["data"]:
        return {"kind": "manifest", "path": os.path.abspath(opts["data"])}
    if opts["preset"] == "synth":
        return {"kind": "synth", "spec": config_to_dict(D.SynthSpec()),
                "seed": opts["data_seed"]}
    raise ConfigError("a dataset is required: pass --data or --preset synth")


def _read_source(source: dict) -> list:
    if not isinstance(source, dict):
        raise ConfigError(f"data source must be a JSON object, got {source!r}")
    if source.get("kind") == "manifest":
        if not isinstance(source.get("path"), str):
            raise ConfigError(f"data source path must be a string, got {source.get('path')!r}")
        return D.read_manifest(source["path"])
    if source.get("kind") == "synth":
        seed = source.get("seed")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"data source seed must be an integer >= 0, got {seed!r}")
        return D.synth_generate(config_from_dict(source.get("spec"), D.SynthSpec), seed)
    raise ConfigError(f"no usable data source recorded ({source!r}); "
                      "eval can name one with --data")


def materialize(spec: dict):
    """Run spec -> (samples, (train, val, test)).

    A run spec is the recorded ``pipeline_config``, ``data_source`` and
    ``limit``: train and ablate build it from their flags, eval reads it from
    the checkpoint and --replay from the run manifest, so every command
    selects the same samples and cuts the same splits."""
    pipeline = config_from_dict(spec.get("pipeline_config"), D.PipelineConfig)
    limit = spec.get("limit") or 0
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise ConfigError(f"limit must be an integer, got {limit!r}")
    if limit < 0:
        raise ConfigError(f"limit must be >= 0, got {limit}")
    samples = D.build_samples(_read_source(spec.get("data_source") or {}), pipeline)
    if limit and limit < len(samples):
        # evenly spaced, not a prefix: datasets are often ordered by class
        keep = np.linspace(0, len(samples) - 1, limit).round().astype(int)
        samples = [samples[i] for i in keep]
    if not samples:
        raise DataError("the pipeline produced no samples (sequences shorter than the window?)")
    return samples, D.split(samples, pipeline.split_ratios, pipeline.seed)


def _infer_data_shape(samples) -> tuple:
    labels = {s.label for s in samples}
    num_classes = max(labels) + 1
    if min(labels) < 0 or num_classes < 2:
        raise DataError(f"labels must cover at least classes 0 and 1, got {sorted(labels)}")
    c, n = samples[0].tensor.shape
    return c, n, num_classes


def _model_config_from_opts(opts: dict, data_shape: tuple, variant: str) -> ModelConfig:
    c, n, num_classes = data_shape
    cfg = ModelConfig(
        in_channels=c,
        k=opts["k"],
        num_heads=opts["heads"],
        emb_dims=opts["emb_dims"],
        num_classes=num_classes,
        variant=Variant.from_string(variant))
    if n < cfg.k:
        raise ConfigError(f"samples have N={n} points but k={cfg.k}")
    return cfg


def _softmax(z: np.ndarray) -> np.ndarray:
    s = z - z.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


# ---------------------------------------------------------------------
# train / ablate
# ---------------------------------------------------------------------

def _seed_list(text: str) -> list:
    """--seeds' type; an empty list is left to _start_run's seeds check."""
    return [int(s) for s in text.split(",") if s.strip()]


def _run_opts(args) -> dict:
    """The opts a train/ablate run records, and all a replay may hold: every
    flag but --replay, the seeds as one list."""
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "func", "replay", "seed")}
    opts["seeds"] = [args.seed] if getattr(args, "seeds", None) is None else args.seeds
    return opts


def _start_run(args, default_out: str):
    """Resolve a train/ablate run from its flags, or with --replay (and at
    most --out) from the opts and run spec a previous run_manifest.json
    recorded, then materialize its data."""
    if args.replay:
        defaults = vars(build_parser().parse_args([args.command]))
        ignored = [k for k, v in vars(args).items()
                   if k not in ("replay", "out") and v != defaults[k]]
        if ignored:
            raise ConfigError("--replay reruns the recorded opts and takes only --out; got "
                              + ", ".join("--" + k.replace("_", "-") for k in ignored))
        with open(args.replay, "r", encoding="utf-8") as f:
            try:
                manifest = json.load(f)
            except ValueError:
                manifest = None
        if not isinstance(manifest, dict) or manifest.get("command") != args.command:
            raise ConfigError(f"{args.replay} is not a run manifest of {args.command}")
        opts = manifest.get("opts")
        if not isinstance(opts, dict):
            raise ConfigError(f"run manifest opts must be a JSON object, got {opts!r}")
        keys = set(_run_opts(args))
        if set(opts) != keys:
            raise ConfigError(f"run manifest opts must hold the keys {args.command} records: "
                              f"missing {sorted(keys - set(opts))}, "
                              f"unknown {sorted(set(opts) - keys)}")
        if args.out:
            opts = {**opts, "out": args.out}
        spec = {"pipeline_config": manifest.get("pipeline_config"),
                "data_source": manifest.get("data_source")}
    else:
        opts = _run_opts(args)
        spec = {"pipeline_config": config_to_dict(_pipeline_from_opts(opts)),
                "data_source": _source_from_opts(opts)}
    # checked before any seed trains
    seeds = opts["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or any(isinstance(s, bool) or not isinstance(s, int) or s < 0 for s in seeds)):
        raise ConfigError(f"seeds must be a non-empty list of integers >= 0, got {seeds!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seed {max(seeds, key=seeds.count)} is repeated in {seeds!r}")
    if not isinstance(opts["out"], (str, type(None))):
        raise ConfigError(f"out must be a string or null, got {opts['out']!r}")
    spec["limit"] = opts["limit"] or 0
    samples, splits = materialize(spec)
    tcfg = TrainConfig(
        lr_max=opts["lr_max"], batch_size=opts["batch"], max_epochs=opts["epochs"],
        patience=opts["patience"], seed=seeds[0], dtype=opts["dtype"])
    out_dir = opts["out"] or default_out
    return opts, spec, _infer_data_shape(samples), splits, tcfg, out_dir


def _write_run_manifest(out_dir, command, opts, spec, splits, **fields) -> None:
    """Record the run in out_dir/run_manifest.json before any training."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"command": command, "version": __version__, "opts": opts,
                "pipeline_config": spec["pipeline_config"],
                "data_source": spec["data_source"],
                "split_sizes": [len(s) for s in splits], **fields}
    with open(os.path.join(out_dir, "run_manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _run_one_seed(spec, seed, run_dir, model, tcfg, splits):
    os.makedirs(run_dir, exist_ok=True)
    train_set, val_set, test_set = splits
    tcfg = replace(tcfg, seed=seed)
    result = fit(model, train_set, val_set, tcfg,
                 checkpoint_path=os.path.join(run_dir, "checkpoint.bin"),
                 extra_manifest={**spec, "version": __version__},
                 log=lambda s: print(s, file=sys.stderr))
    with open(os.path.join(run_dir, "history.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(history_lines(result.history)) + "\n")
    load_state(model, result.best_state)
    metrics = evaluate(model, test_set, batch_size=tcfg.batch_size, dtype=tcfg.dtype)
    return result, metrics


def cmd_train(args) -> int:
    opts, spec, data_shape, splits, tcfg, out_dir = _start_run(args, "runs/train")
    mcfg = _model_config_from_opts(opts, data_shape, opts["variant"])
    seeds = opts["seeds"]
    models = [build(mcfg, seed=s, dtype=tcfg.dtype) for s in seeds]  # before any write
    _write_run_manifest(
        out_dir, "train", opts, spec, splits,
        model_config=config_to_dict(mcfg),
        train_config={**config_to_dict(tcfg), "seed": None}, seeds=seeds,
        layout={"run_dir": "seed_<seed>" if len(seeds) > 1 else ".",
                "files": ["checkpoint.bin", "history.csv"]})

    accs = []
    for seed in seeds:
        run_dir = out_dir if len(seeds) == 1 else os.path.join(out_dir, f"seed_{seed}")
        result, metrics = _run_one_seed(spec, seed, run_dir, models.pop(0), tcfg, splits)
        accs.append(metrics.accuracy)
        print(f"seed {seed}: test acc {_pct(metrics.accuracy)}%  pre {_pct(metrics.precision)}%  "
              f"rec {_pct(metrics.recall)}%  f1 {_pct(metrics.f1)}%  "
              f"(best epoch {result.best_epoch}, val loss {result.best_val_loss:.6f})")
    if len(seeds) > 1:
        print(f"summary over {len(seeds)} seeds: accuracy {_pct(float(np.mean(accs)))}% "
              f"± {100.0 * float(np.std(accs)):.2f}%")
    return 0


def cmd_ablate(args) -> int:
    opts, spec, data_shape, splits, tcfg, out_dir = _start_run(args, "runs/ablate")
    # Variant's declaration order is report order
    mcfgs = [_model_config_from_opts(opts, data_shape, v.value) for v in Variant]
    models = [build(m, seed=tcfg.seed, dtype=tcfg.dtype) for m in mcfgs]
    _write_run_manifest(out_dir, "ablate", opts, spec, splits,
                        train_config=config_to_dict(tcfg),
                        variants=[v.value for v in Variant])

    print(f"{'method':<14} {'macs_g':>10} {'params_m':>10} {'accuracy':>9}")
    n = data_shape[1]
    for mcfg in mcfgs:
        run_dir = os.path.join(out_dir, mcfg.variant.value)
        _, metrics = _run_one_seed(spec, tcfg.seed, run_dir, models.pop(0), tcfg, splits)
        print(f"{_VARIANT_LABELS[mcfg.variant]:<14} {count_macs(mcfg, n) / 1e9:>10.4f} "
              f"{count_params(mcfg) / 1e6:>10.4f} {_pct(metrics.accuracy):>9}")
    return 0


# ---------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------

def _model_from_checkpoint(path):
    manifest, state = load_checkpoint(path)
    mcfg = config_from_dict(manifest.get("model_config"))
    dtype = manifest.get("dtype", "f32")
    if dtype not in ("f32", "f64"):
        raise ConfigError(f"{path}: checkpoint dtype must be 'f32' or 'f64', got {dtype!r}")
    model = build(mcfg, seed=0, dtype=dtype)
    load_state(model, state)
    model.eval()
    return manifest, model


def cmd_eval(args) -> int:
    manifest, model = _model_from_checkpoint(args.checkpoint)
    if args.data:
        manifest = {**manifest, "data_source": _source_from_opts({"data": args.data})}
    samples, splits = materialize(manifest)
    chosen = {"train": splits[0], "val": splits[1], "test": splits[2],
              "all": samples}[args.split]
    if not chosen:
        raise DataError(f"split {args.split!r} is empty")
    _echo_manifest({"command": "eval", "version": __version__,
                    "checkpoint": os.path.abspath(args.checkpoint),
                    "split": args.split, "average": args.average,
                    "model_config": manifest["model_config"]})
    metrics = evaluate(model, chosen, batch_size=args.batch,
                       average=args.average, dtype=model.dtype)
    print("Acc    Pre    Rec    F1")
    print(f"{_pct(metrics.accuracy)}  {_pct(metrics.precision)}  "
          f"{_pct(metrics.recall)}  {_pct(metrics.f1)}")
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "confusion.csv"), "w", encoding="utf-8") as f:
        for row in metrics.confusion:
            f.write(",".join(str(int(v)) for v in row) + "\n")
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as f:
        json.dump({"accuracy": metrics.accuracy, "precision": metrics.precision,
                   "recall": metrics.recall, "f1": metrics.f1,
                   "split": args.split, "average": args.average}, f, sort_keys=True)
        f.write("\n")
    return 0


# ---------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------

def cmd_infer(args) -> int:
    manifest, model = _model_from_checkpoint(args.checkpoint)
    pipeline = config_from_dict(manifest.get("pipeline_config"), D.PipelineConfig)
    _echo_manifest({"command": "infer", "version": __version__,
                    "checkpoint": os.path.abspath(args.checkpoint),
                    "window_frames": pipeline.window_frames,
                    "points_per_frame": pipeline.points_per_frame,
                    "seed": pipeline.seed, "seq_id": args.seq_id})

    stream = sys.stdin
    header_line = None
    for line in stream:
        if line.strip():
            header_line = line
            break
    if header_line is None:
        return 0  # empty input: nothing to do
    header = D.parse_header(header_line.strip(), "<stdin>")
    c = header["C"]
    if c != model.cfg.in_channels:
        raise ConfigError(
            f"stream has C={c} channels, model expects {model.cfg.in_channels}")

    assembler = D.StreamAssembler(pipeline.window_frames, pipeline.points_per_frame,
                                  seed=pipeline.seed, seq_id=args.seq_id)
    budget = 1.0 / header["rate"]  # seconds per frame
    frames = skipped = gaps = 0
    latencies = []  # model seconds per emitted window
    for line in stream:
        if not line.strip():
            continue
        try:
            index, frame = D.parse_frame_line(line, c)
        except DataError as e:
            print(f"warning: skipping malformed frame line: {e}", file=sys.stderr)
            skipped += 1
            continue
        expected = assembler.frames_seen
        if index < expected:
            print(f"warning: skipping frame {index}: expected frame {expected} or later",
                  file=sys.stderr)
            skipped += 1
            continue
        if index > expected:
            # frames are normalized by their own index, so a window that
            # spans a gap would match no offline window: start a new one
            print(f"warning: frames {expected} to {index - 1} missing, "
                  f"window restarts at frame {index}", file=sys.stderr)
            assembler.restart(index)
            gaps += 1
        frames += 1
        sample = assembler.push(frame, index)
        if sample is None:
            continue
        start = time.perf_counter()
        with T.no_grad():
            logits = model(Tensor(sample.tensor[None, :, :], dtype=model.dtype))
        latencies.append(time.perf_counter() - start)
        probs = _softmax(logits.data[0])
        pred = int(np.argmax(probs))
        print(f"{index} {pred} " + " ".join(f"{p:.4f}" for p in probs))
    summary = (f"infer: {frames} frames read, {skipped} lines skipped "
               f"(malformed, non-finite or out of order), {gaps} gaps, "
               f"{len(latencies)} windows emitted")
    if latencies:
        p50, p95 = np.percentile(latencies, [50, 95]) * 1e3
        misses = sum(t > budget for t in latencies)
        summary += (f", model latency p50 {p50:.3f} ms, p95 {p95:.3f} ms, "
                    f"max {max(latencies) * 1e3:.3f} ms, "
                    f"{misses} over the {budget * 1e3:.3f} ms frame budget")
    print(summary, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------

def _parse_sweep(text: str, name: str) -> list:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"{name} must be start:stop[:step], got {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ConfigError(f"{name} must be integer start:stop[:step], got {text!r}")
    if step < 1 or stop < start:
        raise ConfigError(f"{name} needs stop >= start and step >= 1, got {text!r}")
    return list(range(start, stop + 1, step))


def cmd_cost(args) -> int:
    base = ModelConfig(
        in_channels=args.in_channels, k=args.k, num_heads=args.heads,
        emb_dims=args.emb_dims, num_classes=args.classes,
        variant=Variant.from_string(args.variant))
    if args.k_sweep and args.head_sweep:
        raise ConfigError("pass only one of --k-sweep / --head-sweep")
    configs = []
    if args.k_sweep:
        for k in _parse_sweep(args.k_sweep, "--k-sweep"):
            configs.append(replace(base, k=k))
    elif args.head_sweep:
        for h in _parse_sweep(args.head_sweep, "--head-sweep"):
            configs.append(replace(base, num_heads=h))
    else:
        configs.append(base)
    _echo_manifest({"command": "cost", "version": __version__,
                    "points": args.points, "base": config_to_dict(base)})
    # every row is priced before any is printed, so an error leaves no partial table
    rows = [(cfg, count_macs(cfg, args.points), count_params(cfg)) for cfg in configs]
    print(f"{'k':>4} {'heads':>5} {'variant':<14} {'macs':>15} {'params':>12} "
          f"{'macs_g':>10} {'params_m':>10}")
    for cfg, macs, params in rows:
        print(f"{cfg.k:>4} {cfg.num_heads:>5} {cfg.variant.value:<14} "
              f"{macs:>15} {params:>12} {macs / 1e9:>10.4f} {params / 1e6:>10.4f}")
    return 0


# ---------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------

def _add_run_flags(p: argparse.ArgumentParser):
    """Flags train and ablate share, all recorded in the run manifest; returns --seed's group."""
    p.add_argument("--data", help="dataset manifest (one frame-file path per line)")
    p.add_argument("--preset", choices=sorted(D.PRESETS),
                   help="pipeline preset; 'synth' also provides generated data")
    p.add_argument("--data-seed", type=int, default=D.PipelineConfig.seed,
                   help="seed for synthesis, frame subsampling, and the split")
    p.add_argument("--limit", type=int, default=0,
                   help="cap the number of windowed samples (0 = no cap)")
    p.add_argument("--k", type=int, default=ModelConfig.k)
    p.add_argument("--heads", type=int, default=ModelConfig.num_heads)
    p.add_argument("--emb-dims", type=int, default=ModelConfig.emb_dims)
    p.add_argument("--lr-max", type=float, default=TrainConfig.lr_max)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--dtype", choices=("f32", "f64"), default=TrainConfig.dtype)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--replay", default=None,
                   help="rerun a previous run_manifest.json verbatim")
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, default=TrainConfig.seed)
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptgraph",
        description="Point-cloud activity recognition with adaptive graph kernels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    variants = [v.value for v in Variant]
    p = sub.add_parser("train", help="train a model and save the best checkpoint")
    _add_run_flags(p).add_argument(
        "--seeds", type=_seed_list, default=None,
        help="comma list; runs once per seed and prints mean ± std")
    p.add_argument("--variant", choices=variants, default=ModelConfig.variant.value)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and print metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None, help="override the recorded data manifest")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--average", choices=("weighted", "macro"), default="weighted")
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--out", default=None,
                   help="directory for confusion.csv/metrics.json (default: next to checkpoint)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="stream frames from stdin, print predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seq-id", type=int, default=0, dest="seq_id",
                   help="sequence id for the frame-subsampling RNG stream")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("cost", help="report analytical MACs and parameter counts")
    p.add_argument("--k", type=int, default=ModelConfig.k)
    p.add_argument("--heads", type=int, default=ModelConfig.num_heads)
    p.add_argument("--emb-dims", type=int, default=ModelConfig.emb_dims)
    p.add_argument("--variant", choices=variants, default=ModelConfig.variant.value)
    p.add_argument("--classes", type=int, default=ModelConfig.num_classes)
    p.add_argument("--in-channels", type=int, default=ModelConfig.in_channels)
    p.add_argument("--points", type=int, default=1024,
                   help="N used for the MACs figure")
    p.add_argument("--k-sweep", default=None, dest="k_sweep",
                   help="start:stop[:step], inclusive")
    p.add_argument("--head-sweep", default=None, dest="head_sweep",
                   help="start:stop[:step], inclusive")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("ablate", help="train every variant under one budget")
    _add_run_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidInputError, MemoryError) as e:  # a size no machine holds
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
