"""Data pipeline: frame normalization, windowing, splits, the synthetic
generator's kinematics, streaming assembly, and the on-disk frame format."""

import math

import numpy as np
import pytest

from adaptgraph import data
from adaptgraph.data import (PRESETS, FrameSequence, PipelineConfig, Sample,
                             StreamAssembler, SynthSpec, build_samples,
                             class_drift, frame_rng, make_windows,
                             normalize_frame, preset, read_frame_file,
                             read_manifest, split, synth_generate,
                             write_dataset, write_frame_file)
from adaptgraph.errors import ConfigError, DataError


def seq_of(frames, label=0, seq_id=0, rate=30.0, subject=None):
    return FrameSequence(frames=[np.asarray(f, dtype=np.float32) for f in frames],
                         label=label, subject=subject, frame_rate=rate, seq_id=seq_id)


def random_frames(n, points, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(points, c)).astype(np.float32) for _ in range(n)]


# ---------------------------------------------------------------------
# frame normalization
# ---------------------------------------------------------------------

def test_normalize_keeps_exact_count():
    rng = np.random.default_rng(0)
    frame = rng.normal(size=(10, 3)).astype(np.float32)
    out = normalize_frame(frame, 10, rng)
    np.testing.assert_array_equal(out, frame)
    assert out is not frame  # a copy, never an alias


def test_normalize_pads_sparse_frames_with_zeros():
    frame = np.ones((3, 2), dtype=np.float32)
    out = normalize_frame(frame, 5, np.random.default_rng(0))
    assert out.shape == (5, 2)
    np.testing.assert_array_equal(out[:3], frame)
    np.testing.assert_array_equal(out[3:], 0.0)
    empty = normalize_frame(np.zeros((0, 2), dtype=np.float32), 4,
                            np.random.default_rng(0))
    np.testing.assert_array_equal(empty, np.zeros((4, 2)))


def test_normalize_subsamples_crowded_frames_in_order():
    frame = np.arange(20, dtype=np.float32).reshape(10, 2)
    out = normalize_frame(frame, 4, np.random.default_rng(3))
    assert out.shape == (4, 2)
    rows = {tuple(r) for r in out}
    assert rows <= {tuple(r) for r in frame}       # a true subset
    assert (np.diff(out[:, 0]) > 0).all()          # original ordering kept


def test_normalize_is_rng_reproducible():
    frame = np.random.default_rng(1).normal(size=(30, 3)).astype(np.float32)
    a = normalize_frame(frame, 8, frame_rng(5, 2, 9))
    b = normalize_frame(frame, 8, frame_rng(5, 2, 9))
    np.testing.assert_array_equal(a, b)
    c = normalize_frame(frame, 8, frame_rng(5, 2, 10))
    assert not np.array_equal(a, c)


def test_normalize_rejects_bad_rank():
    with pytest.raises(DataError):
        normalize_frame(np.zeros(5, dtype=np.float32), 4, np.random.default_rng(0))


# ---------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------

def test_window_count_formula():
    # floor((F - T) / stride) + 1 windows once F >= T
    seq = seq_of(random_frames(130, 6))
    assert len(make_windows(seq, 60, 10, 4, seed=0)) == 8
    assert len(make_windows(seq_of(random_frames(59, 6)), 60, 10, 4, seed=0)) == 0
    assert len(make_windows(seq_of(random_frames(60, 6)), 60, 10, 4, seed=0)) == 1
    assert len(make_windows(seq, 1, 1, 4, seed=0)) == 130


def test_window_shape_and_label():
    seq = seq_of(random_frames(12, 5), label=3)
    samples = make_windows(seq, 4, 2, 6, seed=0)
    assert all(s.tensor.shape == (3, 24) for s in samples)  # (C, T*P)
    assert all(s.tensor.dtype == np.float32 for s in samples)
    assert all(s.label == 3 for s in samples)


def test_window_content_is_frame_major():
    # with P == points per frame and no resampling, window 0 is frames 0..T-1
    frames = random_frames(6, 4)
    samples = make_windows(seq_of(frames), 3, 1, 4, seed=0)
    want = np.concatenate(frames[:3], axis=0).T
    np.testing.assert_array_equal(samples[0].tensor, want)
    want2 = np.concatenate(frames[1:4], axis=0).T
    np.testing.assert_array_equal(samples[1].tensor, want2)


def test_overlapping_windows_resample_consistently():
    # frame i is subsampled identically no matter which window contains it
    frames = random_frames(8, 20, seed=4)
    samples = make_windows(seq_of(frames), 4, 1, 6, seed=11)
    a = samples[0].tensor[:, 3 * 6:4 * 6]  # frame 3 inside window 0
    b = samples[3].tensor[:, 0:6]          # frame 3 leading window 3
    np.testing.assert_array_equal(a, b)


def oracle_windows(seq, t, stride, p, seed):
    """Windows built straight from normalize_frame, frame by frame, with no
    use of make_windows or StreamAssembler."""
    return [np.concatenate([normalize_frame(seq.frames[i], p, frame_rng(seed, seq.seq_id, i))
                            for i in range(start, start + t)]).T
            for start in range(0, len(seq.frames) - t + 1, stride)]


def varied_frames(n, lo, hi, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(rng.integers(lo, hi + 1), 3)).astype(np.float32)
            for _ in range(n)]


@pytest.mark.parametrize("t,stride", [(5, 2), (5, 5), (5, 7), (1, 1), (1, 3)],
                         ids=["stride<T", "stride=T", "stride>T", "T=1", "T=1,stride=3"])
@pytest.mark.parametrize("lo,hi", [(10, 30), (0, 4)], ids=["crowded", "sparse"])
@pytest.mark.parametrize("seq_id", [0, 3])
def test_windows_equal_the_per_frame_oracle_bytewise(t, stride, lo, hi, seq_id):
    seq = seq_of(varied_frames(23, lo, hi, seed=seq_id), label=4, seq_id=seq_id)
    got = make_windows(seq, t, stride, 6, seed=9)
    want = oracle_windows(seq, t, stride, 6, seed=9)
    assert len(got) == len(want) == (23 - t) // stride + 1
    for g, w in zip(got, want):
        assert g.label == 4
        assert g.tensor.dtype == np.float32 and g.tensor.flags.c_contiguous
        assert g.tensor.shape == w.shape == (3, t * 6)
        assert g.tensor.tobytes() == w.tobytes()


def test_windows_normalize_each_used_frame_once(monkeypatch):
    calls = []

    def counting(points, p, rng):
        calls.append(len(calls))
        return normalize_frame(points, p, rng)

    monkeypatch.setattr(data, "normalize_frame", counting)
    seq = seq_of(varied_frames(300, 8, 24))
    assert len(make_windows(seq, 60, 1, 16, seed=0)) == 241
    assert len(calls) == 300
    calls.clear()
    # stride > T: frames 5, 6, 12, 13, ... lie in no window and are skipped
    assert len(make_windows(seq_of(varied_frames(30, 8, 24)), 5, 7, 16, seed=0)) == 4
    assert len(calls) == 20


def test_windows_reject_invalid_arguments_as_the_assembler_does():
    seq = seq_of(random_frames(8, 5))
    with pytest.raises(ConfigError, match="points_per_frame must be >= 1"):
        make_windows(seq, 4, 1, 0, seed=0)
    with pytest.raises(ConfigError, match="seed and seq_id must be >= 0"):
        make_windows(seq, 4, 1, 4, seed=-1)
    with pytest.raises(ConfigError, match="stride must be >= 1"):
        make_windows(seq, 4, 0, 4, seed=0)
    mixed = seq_of(random_frames(3, 5) + random_frames(3, 5, c=2))
    with pytest.raises(DataError, match="frame 3 has 2 channels"):
        make_windows(mixed, 4, 1, 4, seed=0)


def test_build_samples_concatenates_sequences():
    cfg = PipelineConfig(window_frames=4, window_stride=4, points_per_frame=4,
                         split_ratios=(0.8, 0.1, 0.1), seed=0)
    seqs = [seq_of(random_frames(8, 4), label=0, seq_id=0),
            seq_of(random_frames(12, 4), label=1, seq_id=1)]
    samples = build_samples(seqs, cfg)
    assert [s.label for s in samples] == [0, 0, 1, 1, 1]


# ---------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------

def make_samples(n):
    return [Sample(tensor=np.full((1, 1), i, dtype=np.float32), label=0)
            for i in range(n)]


def test_split_sizes_and_disjointness():
    samples = make_samples(100)
    train, val, test = split(samples, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    ids = [int(s.tensor[0, 0]) for part in (train, val, test) for s in part]
    assert sorted(ids) == list(range(100))  # a partition, nothing lost


def test_split_residue_goes_to_train():
    train, val, test = split(make_samples(103), (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (83, 10, 10)


def test_split_determinism_and_seed_sensitivity():
    samples = make_samples(40)
    a = split(samples, (0.8, 0.1, 0.1), seed=3)
    b = split(samples, (0.8, 0.1, 0.1), seed=3)
    for pa, pb in zip(a, b):
        assert [id(s) for s in pa] == [id(s) for s in pb]
    c = split(samples, (0.8, 0.1, 0.1), seed=4)
    assert [id(s) for s in a[0]] != [id(s) for s in c[0]]


def test_split_guards():
    with pytest.raises(ConfigError, match="empty part"):
        split(make_samples(5), (0.8, 0.1, 0.1), seed=0)
    with pytest.raises(ConfigError, match="sum to 1"):
        split(make_samples(20), (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ConfigError):
        split(make_samples(20), (1.0, 0.0, 0.0), seed=0)
    # the same ratio check as PipelineConfig: a NaN anywhere is a ConfigError
    for ratios in ((0.5, math.nan, 0.5), (math.nan, 0.5, 0.5)):
        with pytest.raises(ConfigError, match="positive finite"):
            split(make_samples(20), ratios, seed=0)
        with pytest.raises(ConfigError, match="positive finite"):
            PipelineConfig(split_ratios=ratios)


# ---------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------

def test_synth_is_seed_deterministic():
    spec = SynthSpec(classes=3, sequences_per_class=2, frames=6, points=8)
    a = synth_generate(spec, seed=1)
    b = synth_generate(spec, seed=1)
    assert len(a) == 6
    for sa, sb in zip(a, b):
        assert sa.label == sb.label and sa.seq_id == sb.seq_id
        for fa, fb in zip(sa.frames, sb.frames):
            np.testing.assert_array_equal(fa, fb)
    c = synth_generate(spec, seed=2)
    assert not np.array_equal(a[0].frames[0], c[0].frames[0])


def test_synth_labels_and_shapes():
    spec = SynthSpec(classes=4, sequences_per_class=3, frames=5, points=16)
    seqs = synth_generate(spec, seed=0)
    assert [s.label for s in seqs] == [g for g in range(4) for _ in range(3)]
    assert [s.seq_id for s in seqs] == list(range(12))
    assert all(f.shape == (16, 3) and f.dtype == np.float32
               for s in seqs for f in s.frames)


def test_noiseless_centroids_follow_class_drift():
    spec = SynthSpec(classes=5, sequences_per_class=1, frames=10, points=32,
                     noise=0.0)
    for seq in synth_generate(spec, seed=3):
        drift = class_drift(seq.label, 5)
        centroids = np.stack([f.mean(axis=0) for f in seq.frames]).astype(np.float64)
        steps = np.diff(centroids, axis=0)
        np.testing.assert_allclose(steps, np.tile(drift, (9, 1)), atol=1e-5)


def test_class_drifts_are_distinct():
    drifts = np.stack([class_drift(g, 5) for g in range(5)])
    gaps = np.linalg.norm(drifts[:, None] - drifts[None, :], axis=2)
    assert gaps[~np.eye(5, dtype=bool)].min() > 0.1


def test_synth_noise_perturbs_but_keeps_structure():
    quiet = synth_generate(SynthSpec(2, 1, 4, 8, noise=0.0), seed=5)
    loud = synth_generate(SynthSpec(2, 1, 4, 8, noise=0.05), seed=5)
    for q, l in zip(quiet, loud):
        for fq, fl in zip(q.frames, l.frames):
            d = np.abs(fq - fl)
            assert 0 < d.max() < 0.5


def test_synth_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(classes=1).validate()
    with pytest.raises(ConfigError):
        SynthSpec(noise=-0.1).validate()


@pytest.mark.parametrize("cls, field", [
    (SynthSpec, "classes"), (SynthSpec, "sequences_per_class"), (SynthSpec, "frames"),
    (SynthSpec, "points"), (PipelineConfig, "window_frames"),
    (PipelineConfig, "window_stride"), (PipelineConfig, "points_per_frame"),
    (PipelineConfig, "seed")])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_integer_fields_reject_other_types_by_name(cls, field, value):
    # SynthSpec(2, 1, 2.5, 4) used to pass validation and fail later with a
    # bare TypeError; a bool would read as 1
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        cls(**{field: value})


# ---------------------------------------------------------------------
# streaming
# ---------------------------------------------------------------------

def test_stream_matches_batch_windows_bitwise():
    frames = random_frames(9, 25, seed=8)
    seq = seq_of(frames, label=2, seq_id=4)
    batch = make_windows(seq, 3, 1, 6, seed=13)
    asm = StreamAssembler(window_frames=3, points_per_frame=6, seed=13, seq_id=4)
    live = []
    for f in frames:
        got = asm.push(f)
        if got is not None:
            live.append(got)
    assert len(live) == len(batch) == 7
    for a, b in zip(live, batch):
        np.testing.assert_array_equal(a.tensor, b.tensor)


def test_stream_warmup_and_counter():
    asm = StreamAssembler(window_frames=4, points_per_frame=3, seed=0)
    frames = random_frames(6, 3)
    assert asm.frames_seen == 0
    emitted = [asm.push(f) is not None for f in frames]
    assert emitted == [False, False, False, True, True, True]
    assert asm.frames_seen == 6


def test_stream_rejects_gaps():
    asm = StreamAssembler(window_frames=2, points_per_frame=3, seed=0)
    asm.push(np.zeros((3, 3), dtype=np.float32), frame_index=0)
    with pytest.raises(DataError, match="consecutively"):
        asm.push(np.zeros((3, 3), dtype=np.float32), frame_index=2)


def test_stream_rejects_a_frame_with_another_channel_count_and_keeps_its_state():
    frames = random_frames(5, 4, seed=9)
    asm = StreamAssembler(window_frames=3, points_per_frame=3, seed=2)
    assert [asm.push(f) for f in frames[:2]] == [None, None]
    with pytest.raises(DataError, match="frame 2 has 2 channels, the buffered frames have 3"):
        asm.push(random_frames(1, 4, c=2)[0])
    assert asm.frames_seen == 2
    got = [asm.push(f).tensor for f in frames[2:]]
    ref = StreamAssembler(window_frames=3, points_per_frame=3, seed=2)
    want = [s.tensor for s in (ref.push(f) for f in frames) if s is not None]
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_stream_restart_matches_windows_of_the_later_frames():
    frames = random_frames(7, 3)
    asm = StreamAssembler(window_frames=3, points_per_frame=3, seed=4)
    for i in range(3):
        asm.push(frames[i], frame_index=i)
    asm.restart(4)  # frame 3 lost: the window refills from frame 4
    assert asm.frames_seen == 4
    assert [asm.push(frames[i], frame_index=i) is None for i in (4, 5)] == [True, True]
    got = asm.push(frames[6], frame_index=6)
    ref = StreamAssembler(window_frames=3, points_per_frame=3, seed=4)
    want = [ref.push(f) for f in frames][-1]
    np.testing.assert_array_equal(got.tensor, want.tensor)


# ---------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------

def test_frame_file_round_trip(tmp_path):
    seq = seq_of([np.random.default_rng(i).normal(size=(4 + i, 3)).astype(np.float32)
                  for i in range(3)], label=2, rate=25.0, subject=7, seq_id=0)
    path = tmp_path / "seq.txt"
    write_frame_file(path, seq)
    back = read_frame_file(path, seq_id=9)
    assert back.label == 2 and back.subject == 7 and back.frame_rate == 25.0
    assert back.seq_id == 9
    assert len(back.frames) == 3
    for a, b in zip(seq.frames, back.frames):
        np.testing.assert_array_equal(a, b)  # repr round-trips f32 exactly


def test_frame_file_unknown_subject(tmp_path):
    seq = seq_of(random_frames(2, 3), subject=None)
    path = tmp_path / "s.txt"
    write_frame_file(path, seq)
    assert "subject=-1" in path.read_text().splitlines()[0]
    assert read_frame_file(path).subject is None


def test_frame_file_empty_frames_allowed(tmp_path):
    seq = seq_of([np.zeros((0, 2), dtype=np.float32),
                  np.ones((2, 2), dtype=np.float32)])
    path = tmp_path / "e.txt"
    write_frame_file(path, seq)
    back = read_frame_file(path)
    assert back.frames[0].shape == (0, 2)
    np.testing.assert_array_equal(back.frames[1], seq.frames[1])


@pytest.mark.parametrize("text,msg", [
    ("", "missing header"),
    ("C=3 rate=30.0 label=0\n0 1 1.0 2.0 3.0\n", "bad header"),
    ("C=x rate=30.0 label=0 subject=-1\n", "bad header"),
    ("C=3 rate30 label=0 subject=-1\n", "malformed header token"),
    ("C=3 rate=nan label=0 subject=-1\n0 1 1.0 2.0 3.0\n", "bad.txt: bad header.*finite"),
    ("C=3 rate=inf label=0 subject=-1\n0 1 1.0 2.0 3.0\n", "bad.txt: bad header.*finite"),
    ("C=3 rate=0 label=0 subject=-1\n0 1 1.0 2.0 3.0\n", "bad.txt: bad header.*> 0"),
    ("C=3 rate=-30.0 label=0 subject=-1\n0 1 1.0 2.0 3.0\n", "bad.txt: bad header.*> 0"),
    ("C=3 rate=30.0 label=0 subject=-1\n", "no frames"),
    ("C=3 rate=30.0 label=0 subject=-1\n0 one 1.0 2.0 3.0\n", "malformed frame"),
    ("C=3 rate=30.0 label=0 subject=-1\n1 1 1.0 2.0 3.0\n", "out of order"),
    ("C=3 rate=30.0 label=0 subject=-1\n0 2 1.0 2.0 3.0\n", "expected 2\\*3"),
    ("C=3 rate=30.0 label=0 subject=-1\n0 1 1.0 2.0 3.0\n1 1 1.0 nan 3.0\n",
     "bad.txt:3: non-finite"),
])
def test_frame_file_rejects_malformed_input(tmp_path, text, msg):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=msg):
        read_frame_file(path)


def test_dataset_round_trip_via_manifest(tmp_path):
    spec = SynthSpec(classes=2, sequences_per_class=2, frames=4, points=6)
    seqs = synth_generate(spec, seed=0)
    manifest = write_dataset(tmp_path / "ds", seqs)
    back = read_manifest(manifest)
    assert [s.label for s in back] == [s.label for s in seqs]
    assert [s.seq_id for s in back] == list(range(4))
    for a, b in zip(seqs, back):
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)


def test_manifest_skips_comments_and_rejects_empty(tmp_path):
    spec = SynthSpec(classes=2, sequences_per_class=1, frames=3, points=4)
    manifest = write_dataset(tmp_path / "ds", synth_generate(spec, seed=1))
    with open(manifest, "a", encoding="utf-8") as f:
        f.write("# a comment\n\n")
    assert len(read_manifest(manifest)) == 2
    empty = tmp_path / "none.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(DataError, match="no sequences"):
        read_manifest(empty)


# ---------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------

def test_presets_are_valid_and_complete():
    assert set(PRESETS) == {"mmactivity", "milipoint", "synth"}
    for name, cfg in PRESETS.items():
        cfg.validate()
        assert preset(name) is cfg
    mm = preset("mmactivity")
    assert (mm.window_frames, mm.window_stride, mm.points_per_frame) == (60, 10, 16)
    assert mm.split_ratios == (0.64, 0.16, 0.20)
    assert preset("milipoint").window_frames == 50
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("kinect")
