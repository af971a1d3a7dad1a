"""Command-line contract: exit codes, emitted artifacts, replayability, the
cost table, and the streaming-inference loop. Everything runs in process."""

import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgraph import __version__, cli, nn
from adaptgraph import tensor as T
from adaptgraph.checkpoint import load_checkpoint, save_checkpoint, state_dict
from adaptgraph.cli import main
from adaptgraph.data import (FrameSequence, SynthSpec, preset, synth_generate,
                             write_dataset, write_frame_file)
from adaptgraph.network import (ModelConfig, build, config_to_dict, count_macs,
                                count_params)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# pipeline preset "synth": 5-frame windows, stride 66, 4 points per frame.
# sequences below are 5 frames long, so each contributes exactly one sample.
TINY = SynthSpec(classes=2, sequences_per_class=10, frames=5, points=6,
                 noise=0.02)


@pytest.fixture()
def dataset(tmp_path):
    return write_dataset(tmp_path / "ds", synth_generate(TINY, seed=0))


def train_args(dataset, out, **extra):
    args = ["train", "--data", dataset, "--preset", "synth", "--k", "4",
            "--emb-dims", "16", "--epochs", "2", "--batch", "8",
            "--lr-max", "0.05", "--out", str(out)]
    for key, val in extra.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


def read_history(path):
    lines = path.read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    return lines[0], rows


# ---------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------

def test_cost_default_row_matches_cost_model(capsys):
    assert main(["cost"]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0].split() == ["k", "heads", "variant", "macs", "params",
                                "macs_g", "params_m"]
    cells = lines[1].split()
    assert cells[:3] == ["20", "1", "sequential-ff"]
    assert int(cells[3]) == count_macs(ModelConfig(), 1024)
    assert int(cells[4]) == count_params(ModelConfig())
    assert cells[5] == "3.9799" and cells[6] == "1.8781"
    assert err.startswith("# manifest ")
    json.loads(err.split("# manifest ", 1)[1])  # the echo is valid JSON


def test_cost_k_sweep_rows(capsys):
    assert main(["cost", "--k-sweep", "5:15:5"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["5", "10", "15"]
    macs = [int(r[3]) for r in rows]
    params = {r[4] for r in rows}
    assert macs[0] < macs[1] < macs[2]
    assert len(params) == 1  # parameter count ignores k


def test_cost_head_sweep_is_affine(capsys):
    assert main(["cost", "--head-sweep", "1:3"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.strip().splitlines()[1:]]
    p = [int(r[4]) for r in rows]
    m = [int(r[3]) for r in rows]
    assert p[1] - p[0] == p[2] - p[1] > 0
    assert m[1] - m[0] == m[2] - m[1] > 0


def test_cost_flag_errors(capsys):
    assert main(["cost", "--k-sweep", "1:5", "--head-sweep", "1:2"]) == 2
    assert main(["cost", "--k-sweep", "nope"]) == 2
    assert main(["cost", "--k-sweep", "9:3"]) == 2
    assert main(["cost", "--k", "0"]) == 2
    assert "k must be a positive integer" in capsys.readouterr().err
    assert main(["cost", "--k", "64", "--points", "32"]) == 2


@pytest.mark.parametrize("argv", [["--points", "-5"],
                                  ["--k-sweep", "10:30:10", "--points", "25"]])
def test_cost_error_prints_no_table(argv, capsys):
    capsys.readouterr()
    assert main(["cost"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "is smaller than k=" in err


# ---------------------------------------------------------------------
# train
# ---------------------------------------------------------------------

def test_train_writes_artifacts(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(dataset, out)) == 0
    stdout = capsys.readouterr().out
    assert "seed 0: test acc" in stdout

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["opts"]["k"] == 4
    assert manifest["split_sizes"] == [16, 2, 2]
    assert manifest["data_source"]["kind"] == "manifest"

    header, rows = read_history(out / "history.csv")
    assert header == "epoch,lr,train_loss,val_loss,val_acc"
    assert [r["epoch"] for r in rows] == ["1", "2"]
    assert (out / "checkpoint.bin").exists()


def test_train_requires_a_dataset(capsys):
    assert main(["train", "--epochs", "1"]) == 2
    assert "pass --data or --preset synth" in capsys.readouterr().err


def test_train_missing_manifest_is_io_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "absent.txt"),
                 "--epochs", "1"]) == 3


def test_train_manifest_with_mixed_channel_counts_is_data_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    names = []
    for i, c in enumerate((3, 2)):
        seq = FrameSequence(frames=[rng.normal(size=(4, c)) for _ in range(150)], label=i)
        names.append(f"c{c}.txt")
        write_frame_file(tmp_path / names[-1], seq)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(names) + "\n")
    assert main(["train", "--data", str(manifest), "--k", "2", "--epochs", "1",
                 "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert "c2.txt" in err and "C=2" in err and "C=3" in err, err


def test_train_names_a_point_too_large_for_knn(dataset, tmp_path, capsys):
    # 1e20 is finite in float32, but 4 |x|^2 is not: the file fails to load
    # with its line named, before any distance overflows
    path = os.path.join(os.path.dirname(dataset), "seq_00003.txt")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    cells = lines[2].split()  # frame 1
    cells[3] = "1e20"
    lines[2] = " ".join(cells)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    assert main(train_args(dataset, tmp_path / "r")) == 3
    err = capsys.readouterr().err
    assert "seq_00003.txt:3: point too large" in err and "Traceback" not in err, err


def test_train_k_larger_than_points(dataset, tmp_path):
    assert main(train_args(dataset, tmp_path / "r", k=100)) == 2


def test_train_divergence_exit_code(dataset, tmp_path):
    with np.errstate(all="ignore"):
        code = main(train_args(dataset, tmp_path / "r", lr_max=1e9, epochs=5))
    assert code == 4


def test_train_multi_seed_summary(dataset, tmp_path, capsys):
    out = tmp_path / "multi"
    args = train_args(dataset, out)
    args += ["--seeds", "0,1"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert "seed 0: test acc" in stdout and "seed 1: test acc" in stdout
    assert "summary over 2 seeds: accuracy" in stdout and "±" in stdout
    for seed in (0, 1):
        assert (out / f"seed_{seed}" / "checkpoint.bin").exists()
        assert (out / f"seed_{seed}" / "history.csv").exists()


def test_train_rejects_a_later_negative_seed_before_training(dataset, tmp_path, capsys):
    out = tmp_path / "multi"
    assert main(train_args(dataset, out) + ["--seeds", "0,-1"]) == 2
    assert "seeds must be a non-empty list of integers >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_a_repeated_seed_before_anything_is_written(dataset, tmp_path, capsys):
    out = tmp_path / "multi"
    assert main(train_args(dataset, out) + ["--seeds", "0,1,0"]) == 2
    assert "seed 0 is repeated in [0, 1, 0]" in capsys.readouterr().err
    assert not out.exists()


def test_train_seed_and_seeds_are_exclusive(dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(train_args(dataset, tmp_path / "r") + ["--seed", "3", "--seeds", "0,1"])
    assert exc.value.code == 2
    assert not (tmp_path / "r").exists()


def test_train_rejects_an_empty_seed_list(dataset, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(train_args(dataset, out) + ["--seeds", ","]) == 2
    assert "seeds must be a non-empty list of integers >= 0, got []" in capsys.readouterr().err
    assert not out.exists()


def test_train_replay_reproduces_bitwise(dataset, tmp_path):
    first = tmp_path / "first"
    assert main(train_args(dataset, first)) == 0
    second = tmp_path / "second"
    assert main(["train", "--replay", str(first / "run_manifest.json"),
                 "--out", str(second)]) == 0
    assert (first / "checkpoint.bin").read_bytes() == \
           (second / "checkpoint.bin").read_bytes()
    assert (first / "history.csv").read_text() == (second / "history.csv").read_text()


def test_train_and_ablate_reject_negative_limit(dataset, tmp_path, capsys):
    for command in ("train", "ablate"):
        args = train_args(dataset, tmp_path / command, limit=-5)
        args[0] = command
        assert main(args) == 2
        assert "limit must be >= 0" in capsys.readouterr().err


def test_ablate_replay_reproduces_bitwise(dataset, tmp_path, capsys):
    first = tmp_path / "first"
    args = train_args(dataset, first)
    args[0] = "ablate"
    assert main(args) == 0
    table = capsys.readouterr().out
    second = tmp_path / "second"
    assert main(["ablate", "--replay", str(first / "run_manifest.json"),
                 "--out", str(second)]) == 0
    assert capsys.readouterr().out == table
    variants = json.loads((first / "run_manifest.json").read_text())["variants"]
    assert len(variants) == 4
    for variant in variants:
        for name in ("checkpoint.bin", "history.csv"):
            assert (first / variant / name).read_bytes() == \
                   (second / variant / name).read_bytes()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_replay_refuses_the_flags_it_would_ignore(tmp_path, capsys, command):
    # replay reruns the recorded opts, so any other flag set away from its
    # default is refused by name before the manifest is read; --out is kept
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text("{}")
    out = tmp_path / "r"
    cases = [(["--epochs", "1", "--k", "6"], ["--k", "--epochs"]),
             (["--data-seed", "3", "--lr-max", "0.5", "--dtype", "f64"],
              ["--data-seed", "--lr-max", "--dtype"]),
             (["--preset", "synth", "--limit", "9", "--seed", "4"],
              ["--preset", "--limit", "--seed"])]
    if command == "train":
        cases += [(["--variant", "mak-only", "--seeds", "0,1"], ["--variant", "--seeds"])]
    for flags, named in cases:
        assert main([command, "--replay", str(manifest), "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "takes only --out" in err, flags
        assert all(flag in err for flag in named), (flags, err)
    # a flag left at its default is no conflict: the empty manifest fails instead
    assert main([command, "--replay", str(manifest), "--k", "20", "--out", str(out)]) == 2
    assert f"is not a run manifest of {command}" in capsys.readouterr().err
    assert not out.exists()


def test_replay_rejects_wrong_manifest_kind(dataset, tmp_path):
    out = tmp_path / "r"
    assert main(train_args(dataset, out)) == 0
    manifest = out / "run_manifest.json"
    assert main(["ablate", "--replay", str(manifest)]) == 2
    for text in ("not json", "[1, 2]"):
        manifest.write_text(text)
        assert main(["train", "--replay", str(manifest)]) == 2


def test_replay_rejects_malformed_configs_with_exit_2(dataset, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(train_args(dataset, out)) == 0
    recorded = json.loads((out / "run_manifest.json").read_text())
    synth = {"kind": "synth", "spec": config_to_dict(TINY), "seed": 0}
    cases = [
        ("pipeline_config", "window_frames", "five"),
        ("pipeline_config", "split_ratios", 5),
        ("pipeline_config", "split_ratios", [float("nan"), 0.1, 0.1]),
        ("spec", "colour", "red"),
        ("spec", "classes", "five"),
        ("spec", "noise", float("nan")),
    ]
    manifest = tmp_path / "bad.json"
    for section, key, value in cases:
        bad = json.loads(json.dumps(recorded))
        if section == "spec":
            bad["data_source"] = json.loads(json.dumps(synth))
            bad["data_source"]["spec"][key] = value
        else:
            bad[section][key] = value
        manifest.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["train", "--replay", str(manifest)]) == 2, (section, key, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert key in err, err


def test_replay_rejects_mistyped_opts_and_seed_with_exit_2(dataset, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(train_args(dataset, out)) == 0
    recorded = json.loads((out / "run_manifest.json").read_text())
    synth = {"kind": "synth", "spec": config_to_dict(TINY), "seed": "five"}
    manifest = tmp_path / "bad.json"
    for key, bad in (("limit", {**recorded, "opts": {**recorded["opts"], "limit": "five"}}),
                     ("lr_max", {**recorded, "opts": {**recorded["opts"], "lr_max": "five"}}),
                     ("seed", {**recorded, "data_source": synth})):
        manifest.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["train", "--replay", str(manifest)]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert key in err and "five" in err, err


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


MALFORMED_OPTS = {
    "opts missing": lambda m: _without(m, "opts"),
    "opts a list": lambda m: {**m, "opts": [1, 2]},
    "seeds a number": lambda m: {**m, "opts": {**m["opts"], "seeds": 5}},
    "seeds missing": lambda m: {**m, "opts": _without(m["opts"], "seeds")},
    "seeds empty": lambda m: {**m, "opts": {**m["opts"], "seeds": []}},
    "a later seed negative": lambda m: {**m, "opts": {**m["opts"], "seeds": [0, -1]}},
    "a seed repeated": lambda m: {**m, "opts": {**m["opts"], "seeds": [3, 3]}},
    "out a number": lambda m: {**m, "opts": {**m["opts"], "out": 5}},
    "emb_dims a bool": lambda m: {**m, "opts": {**m["opts"], "emb_dims": True}},
    "k a bool": lambda m: {**m, "opts": {**m["opts"], "k": True}},
    "k missing": lambda m: {**m, "opts": _without(m["opts"], "k")},
    "unknown key": lambda m: {**m, "opts": {**m["opts"], "colour": "red"}},
}


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_OPTS))
def test_replay_rejects_malformed_opts_with_exit_2(dataset, tmp_path, capsys, command, case):
    out = tmp_path / "r"
    assert main(train_args(dataset, out)) == 0
    recorded = json.loads((out / "run_manifest.json").read_text())
    recorded["opts"]["out"] = str(tmp_path / "x")
    if command == "ablate":
        del recorded["opts"]["variant"]  # ablate records no variant: it runs all four
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({**MALFORMED_OPTS[case](recorded), "command": command}))
    capsys.readouterr()
    assert main([command, "--replay", str(manifest)]) == 2, case
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert not (tmp_path / "x").exists()  # nothing trained or recorded
    named = {"k missing": "missing ['k']", "unknown key": "unknown ['colour']",
             "a seed repeated": "seed 3 is repeated"}
    if case in named:
        assert named[case] in err


# The default model's (10**12, 512) fusion weight needs 3.6 PiB, which no
# allocator grants, so numpy refuses it before any memory is touched.
_EMB_DIMS_NO_MACHINE_HOLDS = 10**12


def test_train_with_an_embedding_no_machine_holds_exits_2(tmp_path, capsys):
    assert main(["train", "--preset", "synth", "--limit", "40", "--epochs", "1",
                 "--emb-dims", str(_EMB_DIMS_NO_MACHINE_HOLDS),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err, err
    assert not (tmp_path / "r").exists()  # models are built before the manifest


def test_ablate_with_an_embedding_no_machine_holds_leaves_no_run(tmp_path, capsys):
    assert main(["ablate", "--preset", "synth", "--limit", "40", "--epochs", "1",
                 "--emb-dims", str(_EMB_DIMS_NO_MACHINE_HOLDS),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err, err
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------

def test_eval_matches_training_history(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(dataset, out)) == 0
    capsys.readouterr()

    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--split", "val"]) == 0
    stdout, stderr = capsys.readouterr()
    lines = stdout.strip().splitlines()
    assert lines[0].split() == ["Acc", "Pre", "Rec", "F1"]
    printed_acc = float(lines[1].split()[0])

    # the checkpoint stores the best epoch; its history row must agree
    _, rows = read_history(out / "history.csv")
    best = min(rows, key=lambda r: float(r["val_loss"]))
    assert printed_acc == pytest.approx(100.0 * float(best["val_acc"]), abs=1e-9)

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["split"] == "val"
    assert metrics["accuracy"] == pytest.approx(printed_acc / 100.0, abs=1e-9)
    confusion = [[int(c) for c in ln.split(",")]
                 for ln in (out / "confusion.csv").read_text().strip().splitlines()]
    assert sum(sum(r) for r in confusion) == 2  # the val split size
    assert stderr.startswith("# manifest ")


def test_eval_scores_the_test_split_training_held_out(tmp_path, capsys):
    # --limit keeps evenly spaced samples; eval must rebuild the same
    # selection and split rather than a prefix of the corpus
    out = tmp_path / "run"
    assert main(["train", "--preset", "synth", "--data-seed", "7", "--limit", "60",
                 "--k", "4", "--emb-dims", "16", "--epochs", "2", "--batch", "8",
                 "--lr-max", "0.05", "--out", str(out)]) == 0
    trained = capsys.readouterr().out
    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--split", "test"]) == 0
    acc, pre, rec, f1 = capsys.readouterr().out.strip().splitlines()[1].split()
    assert f"test acc {acc}%  pre {pre}%  rec {rec}%  f1 {f1}%" in trained
    confusion = (out / "confusion.csv").read_text().strip().splitlines()
    total = sum(int(c) for ln in confusion for c in ln.split(","))
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert total == manifest["split_sizes"][2] == 6


def test_eval_split_sizes(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(dataset, out)) == 0
    capsys.readouterr()
    for split, total in (("train", 16), ("test", 2), ("all", 20)):
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--split", split, "--out", str(tmp_path / split)]) == 0
        capsys.readouterr()
        confusion = (tmp_path / split / "confusion.csv").read_text()
        n = sum(int(c) for ln in confusion.strip().splitlines()
                for c in ln.split(","))
        assert n == total


def test_eval_missing_checkpoint(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.bin")]) == 3


def test_eval_rejects_a_batch_below_one(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(dataset, out)) == 0
    capsys.readouterr()
    for batch in ("0", "-3"):
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--batch", batch]) == 2
        assert "batch size must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------

def frames_as_text(seq: FrameSequence) -> str:
    lines = [f"C={seq.channels()} rate={seq.frame_rate!r} "
             f"label={seq.label} subject=-1"]
    for i, frame in enumerate(seq.frames):
        vals = " ".join(repr(float(v)) for v in frame.ravel())
        lines.append(f"{i} {frame.shape[0]} {vals}".rstrip())
    return "\n".join(lines) + "\n"


def trained_checkpoint(dataset, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(dataset, out)) == 0
    return str(out / "checkpoint.bin")


def test_infer_emits_one_line_per_warm_frame(dataset, tmp_path, capsys, monkeypatch):
    ckpt = trained_checkpoint(dataset, tmp_path)
    capsys.readouterr()
    seq = synth_generate(SynthSpec(2, 1, 9, 6, noise=0.02), seed=3)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(frames_as_text(seq)))
    assert main(["infer", "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    # 9 frames, 5-frame window: predictions at frame indices 4..8
    assert len(out) == 5
    for i, line in enumerate(out):
        cells = line.split()
        assert int(cells[0]) == 4 + i
        assert int(cells[1]) in (0, 1)
        probs = [float(p) for p in cells[2:]]
        assert len(probs) == 2
        assert sum(probs) == pytest.approx(1.0, abs=1e-3)
        assert all("." in p and len(p.split(".")[1]) == 4 for p in cells[2:])


def test_infer_empty_input(dataset, tmp_path, capsys, monkeypatch):
    ckpt = trained_checkpoint(dataset, tmp_path)
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["infer", "--checkpoint", ckpt]) == 0
    assert capsys.readouterr().out == ""


def test_infer_channel_mismatch(dataset, tmp_path, capsys, monkeypatch):
    ckpt = trained_checkpoint(dataset, tmp_path)
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("C=5 rate=30.0 label=0 subject=-1\n"))
    assert main(["infer", "--checkpoint", ckpt]) == 2
    assert "C=5" in capsys.readouterr().err


def test_infer_rejects_a_negative_seq_id(dataset, tmp_path, capsys, monkeypatch):
    ckpt = trained_checkpoint(dataset, tmp_path)
    capsys.readouterr()
    seq = synth_generate(SynthSpec(2, 1, 6, 6, noise=0.02), seed=4)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(frames_as_text(seq)))
    assert main(["infer", "--checkpoint", ckpt, "--seq-id", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "error: seed and seq_id must be >= 0, got seed=0, seq_id=-1"


def test_infer_skips_malformed_lines(dataset, tmp_path, capsys, monkeypatch):
    ckpt = trained_checkpoint(dataset, tmp_path)
    capsys.readouterr()
    seq = synth_generate(SynthSpec(2, 1, 6, 6, noise=0.02), seed=4)[0]
    text = frames_as_text(seq).splitlines()
    text.insert(3, "2 banana 0.0")  # malformed point count, mid stream
    text.insert(5, "3 1 0.0 nan 0.0")  # a non-finite point
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(text) + "\n"))
    assert main(["infer", "--checkpoint", ckpt]) == 0
    out, err = capsys.readouterr()
    assert "skipping malformed frame line" in err
    assert "non-finite" in err
    assert len(out.strip().splitlines()) == 2  # 6 good frames, window 5
    counts, latency = err.strip().splitlines()[-1].split(", model latency ")
    assert counts == ("infer: 6 frames read, 2 lines skipped (malformed, non-finite or "
                      "out of order), 0 gaps, 2 windows emitted")
    fields = [f.split() for f in latency.split(", ")]
    assert [(f[0], f[2]) for f in fields[:3]] == [("p50", "ms"), ("p95", "ms"), ("max", "ms")]
    p50, p95, worst = (float(f[1]) for f in fields[:3])
    assert 0 < p50 <= p95 <= worst
    assert len(fields) == 4 and " ".join(fields[3][1:]) == "over the 33.333 ms frame budget"


def infer_lines(ckpt, text, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["infer", "--checkpoint", ckpt]) == 0
    out, err = capsys.readouterr()
    return out.splitlines(), err.splitlines()


def test_infer_keys_windows_to_the_frame_index(dataset, tmp_path, capsys, monkeypatch):
    ckpt = trained_checkpoint(dataset, tmp_path)
    capsys.readouterr()
    seq = synth_generate(SynthSpec(2, 1, 10, 6, noise=0.02), seed=5)[0]
    text = frames_as_text(seq).splitlines()  # header, then frames 0..9
    clean, _ = infer_lines(ckpt, "\n".join(text) + "\n", capsys, monkeypatch)
    assert [int(line.split()[0]) for line in clean] == [4, 5, 6, 7, 8, 9]

    # frame 3 malformed: frame 4 restarts the window, so no window holds
    # frames on both sides of the gap and frames 8, 9 print as offline
    gap = list(text)
    gap[4] = "3 banana 0.0"
    out, err = infer_lines(ckpt, "\n".join(gap) + "\n", capsys, monkeypatch)
    assert out == clean[-2:]
    assert "frames 3 to 3 missing, window restarts at frame 4" in "\n".join(err)
    assert err[-1].startswith("infer: 9 frames read, 1 lines skipped (malformed, non-finite "
                              "or out of order), 1 gaps, 2 windows emitted, ")

    # a repeated and an earlier index are skipped like malformed lines
    stale = text[:8] + [text[7], text[2]] + text[8:]
    out, err = infer_lines(ckpt, "\n".join(stale) + "\n", capsys, monkeypatch)
    assert out == clean
    assert "skipping frame 6: expected frame 7 or later" in "\n".join(err)
    assert "skipping frame 1: expected frame 7 or later" in "\n".join(err)
    assert err[-1].startswith("infer: 10 frames read, 2 lines skipped (malformed, non-finite "
                              "or out of order), 0 gaps, 6 windows emitted, ")


def test_infer_counts_windows_over_the_frame_budget(dataset, tmp_path, capsys, monkeypatch):
    ckpt = trained_checkpoint(dataset, tmp_path)
    capsys.readouterr()
    seq = synth_generate(SynthSpec(2, 1, 7, 6, noise=0.02), seed=6)[0]
    body = frames_as_text(seq).split("\n", 1)[1]
    # a 1 ns frame budget no model meets, and a 1000 s one every model does
    for rate, misses, budget in (("1e9", 3, "0.000"), ("0.001", 0, "1000000.000")):
        _, err = infer_lines(ckpt, f"C=3 rate={rate} label=0 subject=-1\n{body}",
                             capsys, monkeypatch)
        assert err[-1].endswith(f", {misses} over the {budget} ms frame budget")


@pytest.mark.parametrize("rate", ["0", "-30.0", "0.0"])
def test_infer_rejects_a_rate_that_is_not_positive(dataset, tmp_path, capsys, monkeypatch, rate):
    ckpt = trained_checkpoint(dataset, tmp_path)
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(f"C=3 rate={rate} label=0 subject=-1\n"))
    assert main(["infer", "--checkpoint", ckpt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "rate must be finite and > 0" in err


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = write_dataset(root / "ds", synth_generate(TINY, seed=0))
    assert main(train_args(data, root / "run")) == 0
    return str(root / "run" / "checkpoint.bin")


def test_a_restored_model_draws_no_initial_weight(tiny_checkpoint, monkeypatch):
    draws = []
    real = nn.glorot_uniform

    def spy(*args, **kwargs):
        draws.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(nn, "glorot_uniform", spy)
    manifest, model = cli._model_from_checkpoint(tiny_checkpoint)
    x = np.random.default_rng(0).normal(size=(1, 3, 20)).astype(np.float32)
    with T.no_grad():
        model(T.Tensor(x))
    assert draws == []
    state_dict(build(model.cfg, seed=0))  # a read of a fresh build does draw
    assert draws


@pytest.mark.parametrize("blob,at,bad", [("fc1.weight", (0, 0), float("nan")),
                                         ("fc_bn1.running_var", (1,), float("inf"))])
def test_eval_and_infer_refuse_a_non_finite_checkpoint(tiny_checkpoint, tmp_path, capsys,
                                                       monkeypatch, blob, at, bad):
    manifest, state = load_checkpoint(tiny_checkpoint)
    state[blob][at] = bad
    path = str(tmp_path / "bad.bin")
    save_checkpoint(path, state, {k: v for k, v in manifest.items() if k != "blobs"})
    assert main(["eval", "--checkpoint", path, "--split", "all"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"blob '{blob}' holds a NaN or infinite value" in err, err
    seq = synth_generate(SynthSpec(2, 1, 6, 6, noise=0.02), seed=5)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(frames_as_text(seq)))
    assert main(["infer", "--checkpoint", path]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"blob '{blob}'" in err, err


def test_infer_skips_a_point_too_large_for_knn_and_streams_on(tiny_checkpoint, capsys,
                                                             monkeypatch):
    # frame 5 holds 1e20, finite in float32 but too large for the pairwise
    # distances: its line is skipped like a malformed one, and the frames
    # after it restart the window
    seq = synth_generate(SynthSpec(2, 1, 12, 6, noise=0.02), seed=7)[0]
    text = frames_as_text(seq).splitlines()  # header, then frames 0..11
    cells = text[6].split()
    cells[2] = "1e20"
    text[6] = " ".join(cells)
    out, err = infer_lines(tiny_checkpoint, "\n".join(text) + "\n", capsys, monkeypatch)
    assert [int(line.split()[0]) for line in out] == [4, 10, 11]
    assert "skipping malformed frame line: point too large" in "\n".join(err)
    assert err[-1].startswith("infer: 11 frames read, 1 lines skipped (malformed, non-finite "
                              "or out of order), 1 gaps, 3 windows emitted, ")


INDICES = st.one_of(st.integers(-3, 12), st.integers(10 ** 6, 10 ** 40))


@st.composite
def frame_lines(draw):
    """Frame lines after a valid C=3 header: mostly the next frame, mixed with
    junk, non-finite values, wrong point counts and arbitrary indices."""
    lines, expected = [], 0
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["next", "next", "next", "index", "junk", "nonfinite",
                                     "count"]))
        if kind == "junk":
            lines.append(draw(st.text(st.characters(blacklist_categories=("Cs",)),
                                      max_size=30)))
            continue
        index = draw(INDICES) if kind == "index" else expected
        m = draw(st.integers(0, 6))
        tokens = [repr(v) for v in draw(st.lists(st.floats(-5, 5, width=32),
                                                 min_size=3 * m, max_size=3 * m))]
        if kind == "nonfinite" and tokens:
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(["nan", "inf", "-inf", "1e39"]))
        if kind == "count":
            m += draw(st.sampled_from([-1, 1, 2]))
        lines.append(" ".join([str(index), str(m)] + tokens))
        if kind == "next" or (kind == "index" and index >= expected):
            expected = index + 1
    return lines


@settings(max_examples=60, deadline=None)
@given(lines=frame_lines())
def test_infer_survives_arbitrary_frame_lines(tiny_checkpoint, lines):
    text = "C=3 rate=30.0 label=0 subject=-1\n" + "\n".join(lines) + "\n"
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["infer", "--checkpoint", tiny_checkpoint])
    assert code in (0, 2, 3)
    if code == 0:
        for line in out.getvalue().splitlines():
            assert re.fullmatch(r"\d+ [01] \d\.\d{4} \d\.\d{4}", line), line


# ---------------------------------------------------------------------
# parser basics
# ---------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-m", "adaptgraph", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == __version__


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_bad_preset_choice_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--preset", "kinect"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------
# malformed checkpoint headers reach the documented exit codes
# ---------------------------------------------------------------------

def _raw_checkpoint(path, header, payload=b""):
    body = json.dumps(header).encode()
    path.write_bytes(struct.pack("<I", len(body)) + body + payload)
    return str(path)


_BLOB = {"name": "w", "dtype": "f32", "shape": [2], "nbytes": 8}


@pytest.mark.parametrize("header", [
    {"format_version": 1, "blobs": [{**_BLOB, "dtype": "i8"}]},
    {"format_version": 1, "blobs": [{**_BLOB, "shape": [3]}]},
    {"format_version": 1, "blobs": 5},
    [1, []],
    {"format_version": 1, "blobs": [{k: v for k, v in _BLOB.items() if k != "nbytes"}]},
], ids=["dtype", "nbytes", "blobs", "list", "no-nbytes"])
def test_eval_rejects_a_malformed_checkpoint_header(tmp_path, capsys, header):
    path = _raw_checkpoint(tmp_path / "ck.bin", header, b"\0" * 8)
    assert main(["eval", "--checkpoint", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ck.bin" in err


def test_eval_rejects_a_missing_or_malformed_recorded_config(tmp_path, capsys):
    cfg = ModelConfig(in_channels=3, k=3, stage_widths=(4, 4, 6, 6), emb_dims=8,
                      fc_widths=(8,), num_classes=3, mak_mid_channels=4)
    state = state_dict(build(cfg, seed=0))
    good = config_to_dict(cfg)
    huge = {**config_to_dict(ModelConfig()), "emb_dims": _EMB_DIMS_NO_MACHINE_HOLDS}
    pipeline = config_to_dict(preset("synth"))
    for manifest, match in (({}, "ModelConfig must be a JSON object"),
                            ({"model_config": 5}, "JSON object"),
                            ({"model_config": {**good, "k": "five"}}, "'k' is malformed"),
                            ({"model_config": huge}, "Unable to allocate"),
                            ({"model_config": good, "dtype": "i8"}, "dtype"),
                            ({"model_config": good, "pipeline_config": [1]}, "JSON object"),
                            ({"model_config": good, "pipeline_config": pipeline,
                              "data_source": 5}, "data source must be a JSON object"),
                            ({"model_config": good, "pipeline_config": pipeline,
                              "data_source": {"kind": "manifest"}}, "path must be a string")):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, state, manifest)
        assert main(["eval", "--checkpoint", str(path)]) == 2, manifest
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err, err
