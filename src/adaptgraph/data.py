"""Frame sequences, windowing, splits, streaming assembly, synthetic clouds.

On-disk format (one sequence per file, UTF-8, newline-terminated):

    C=<int> rate=<float> label=<int> subject=<int>
    <frame_index> <point_count> <point_count * C finite floats>
    ...

Frame indices must run 0, 1, 2, ... with no gaps; subject -1 means unknown.
A dataset manifest is a text file listing one frame-file path per line
(relative to the manifest's directory); blank lines and #-comments skipped.

Windows are built in one place, StreamAssembler: the live stream pushes frames
into it and make_windows drives one per sequence. Per-frame randomness
(subsampling of crowded frames) is keyed by (seed, sequence id, frame index),
so a frame normalizes identically in a batch window and in the live stream.
"""

from __future__ import annotations

import collections
import math
import numbers
import os
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError, InvalidInputError


@dataclass
class FrameSequence:
    """Time-ordered point frames sharing one label and channel count."""
    frames: List[np.ndarray]          # each (m_i, C) float32, m_i may vary
    label: int
    subject: Optional[int] = None
    frame_rate: float = 30.0
    seq_id: int = 0

    def channels(self) -> int:
        if not self.frames:
            raise DataError("sequence has no frames")
        return self.frames[0].shape[1]


@dataclass
class Sample:
    tensor: np.ndarray                # (C, N) float32, N = T * P
    label: int


@dataclass(frozen=True)
class PipelineConfig:
    window_frames: int = 60
    window_stride: int = 10
    points_per_frame: int = 16
    split_ratios: Tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("window_frames", "window_stride", "points_per_frame"):
            _check_int(self, name, 1)
        _check_split_ratios(self.split_ratios)
        _check_int(self, "seed", 0)


def _check_int(cfg, name: str, least: int) -> None:
    """ConfigError unless ``cfg.<name>`` is an int >= ``least``, not a bool."""
    v = getattr(cfg, name)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise ConfigError(f"{name} must be >= {least}, got {v}")


def _check_split_ratios(ratios) -> None:
    """The (train, val, test) ratio check of PipelineConfig and split."""
    if len(ratios) != 3 or not all(0 < r < math.inf for r in ratios):
        raise ConfigError(f"split_ratios must be 3 positive finite fractions, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split_ratios must sum to 1, got {ratios}")


def frame_rng(seed: int, seq_id: int, frame_index: int) -> np.random.Generator:
    """Order-independent RNG stream for one frame of one sequence."""
    return np.random.default_rng(np.random.SeedSequence((seed, seq_id, frame_index)))


def normalize_frame(points: np.ndarray, p: int,
                    rng: Optional[np.random.Generator]) -> np.ndarray:
    """Force a frame to exactly p points: random subset when crowded (original
    order kept), zero-padding when sparse. ``rng`` is read only when the
    frame has more than p points."""
    points = np.asarray(points, dtype=np.float32)
    if points.ndim != 2:
        raise DataError(f"a frame must be (points, channels), got shape {points.shape}")
    m, c = points.shape
    if m > p:
        keep = rng.choice(m, size=p, replace=False)
        keep.sort()
        return np.ascontiguousarray(points[keep])
    if m < p:
        return np.concatenate([points, np.zeros((p - m, c), dtype=np.float32)], axis=0)
    return np.array(points, copy=True)


def make_windows(seq: FrameSequence, window_frames: int, stride: int,
                 points_per_frame: int, seed: int) -> List[Sample]:
    """Slide a window of T frames by `stride`, each a (C, T*P) sample, through
    one StreamAssembler: batch and stream windows share one path, and each
    frame a window holds is normalized once. Short sequences yield []."""
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    asm = StreamAssembler(window_frames, points_per_frame, seed, seq.seq_id, seq.label)
    samples = []
    for start in range(0, len(seq.frames) - window_frames + 1, stride):
        if start > asm.frames_seen:      # stride > T: skip the unused frames
            asm.restart(start)
        for i in range(asm.frames_seen, start + window_frames):
            sample = asm.push(seq.frames[i], i)
        samples.append(sample)
    return samples


def build_samples(sequences: Sequence[FrameSequence], cfg: PipelineConfig) -> List[Sample]:
    out = []
    for seq in sequences:
        out.extend(make_windows(seq, cfg.window_frames, cfg.window_stride,
                                cfg.points_per_frame, cfg.seed))
    return out


def split(samples: Sequence[Sample], ratios: Tuple[float, float, float],
          seed: int) -> Tuple[List[Sample], List[Sample], List[Sample]]:
    """Seeded shuffle, then contiguous train/val/test cut (residue to train)."""
    _check_split_ratios(ratios)
    n = len(samples)
    n_val = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(
            f"split of {n} samples by {ratios} leaves an empty part "
            f"(train {n_train}, val {n_val}, test {n_test})")
    perm = np.random.default_rng(np.random.SeedSequence((seed,))).permutation(n)
    train = [samples[i] for i in perm[:n_train]]
    val = [samples[i] for i in perm[n_train:n_train + n_val]]
    test = [samples[i] for i in perm[n_train + n_val:]]
    return train, val, test


# ---------------------------------------------------------------------
# synthetic sequences
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Blob-drift motion families: class g drifts along a class-indexed
    direction and rotates about the vertical axis at a class-indexed rate."""
    classes: int = 5
    sequences_per_class: int = 80
    frames: int = 70
    points: int = 32
    noise: float = 0.05
    frame_rate: float = 30.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        _check_int(self, "classes", 2)
        for name in ("sequences_per_class", "frames", "points"):
            _check_int(self, name, 1)
        if not 0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        if not 0 < self.frame_rate < math.inf:
            raise ConfigError(f"frame_rate must be finite and > 0, got {self.frame_rate}")


_DRIFT_STEP = 0.22          # per-frame centroid displacement magnitude (xy)
_Z_STEP = 0.06              # per-class vertical drift increment
_SPIN_STEP = 0.15           # per-class rotation rate increment, rad/frame
_BLOB_SCALE = (0.12, 0.04, 0.04)  # anisotropic blob so rotation is observable


def class_drift(g: int, classes: int) -> np.ndarray:
    """Noise-free per-frame centroid displacement for class g."""
    theta = 2.0 * np.pi * g / classes
    z = _Z_STEP * (g - (classes - 1) / 2.0)
    return np.array([_DRIFT_STEP * np.cos(theta), _DRIFT_STEP * np.sin(theta), z])


def synth_generate(spec: SynthSpec, seed: int) -> List[FrameSequence]:
    """Deterministic labeled sequences; class-g kinematics per class_drift plus
    rotation at rate g*_SPIN_STEP, isotropic noise on every point."""
    sequences = []
    seq_id = 0
    for g in range(spec.classes):
        drift = class_drift(g, spec.classes)
        spin = _SPIN_STEP * g
        for s in range(spec.sequences_per_class):
            rng = np.random.default_rng(np.random.SeedSequence((seed, g, s, 7)))
            origin = rng.uniform(-0.5, 0.5, size=3)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            blob = rng.normal(0.0, 1.0, size=(spec.points, 3)) * np.asarray(_BLOB_SCALE)
            frames = []
            for t in range(spec.frames):
                a = phase + spin * t
                rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                                [np.sin(a), np.cos(a), 0.0],
                                [0.0, 0.0, 1.0]])
                offsets = blob @ rot.T
                offsets -= offsets.mean(axis=0)   # exact zero-mean: centroid == path
                pts = origin + drift * t + offsets
                if spec.noise > 0:
                    pts = pts + rng.normal(0.0, spec.noise, size=pts.shape)
                frames.append(np.ascontiguousarray(pts, dtype=np.float32))
            sequences.append(FrameSequence(frames=frames, label=g, subject=None,
                                           frame_rate=spec.frame_rate, seq_id=seq_id))
            seq_id += 1
    return sequences


# ---------------------------------------------------------------------
# streaming assembly
# ---------------------------------------------------------------------

class StreamAssembler:
    """Ring buffer of the last T normalized frames; emits a sliding Sample per
    frame once warm. The one window builder: make_windows drives one per
    sequence, and normalization is keyed by frame index, not arrival order."""

    def __init__(self, window_frames: int, points_per_frame: int,
                 seed: int, seq_id: int = 0, label: int = -1):
        if window_frames < 1 or points_per_frame < 1:
            raise ConfigError("window_frames and points_per_frame must be >= 1")
        if seed < 0 or seq_id < 0:
            raise ConfigError(f"seed and seq_id must be >= 0, got seed={seed}, seq_id={seq_id}")
        self.window_frames = window_frames
        self.points_per_frame = points_per_frame
        self.seed = seed
        self.seq_id = seq_id
        self.label = label
        self._buf: Deque[np.ndarray] = collections.deque(maxlen=window_frames)
        self._next_index = 0

    def push(self, points: np.ndarray, frame_index: Optional[int] = None) -> Optional[Sample]:
        if frame_index is None:
            frame_index = self._next_index
        elif frame_index != self._next_index:
            raise DataError(
                f"frames must arrive consecutively: expected {self._next_index}, "
                f"got {frame_index}")
        points = np.asarray(points, dtype=np.float32)
        p = self.points_per_frame
        crowded = points.ndim == 2 and points.shape[0] > p  # only a subset draws
        frame = normalize_frame(points, p, frame_rng(self.seed, self.seq_id, frame_index)
                                if crowded else None)
        if self._buf and frame.shape[1] != self._buf[-1].shape[1]:
            raise DataError(f"frame {frame_index} has {frame.shape[1]} channels, "
                            f"the buffered frames have {self._buf[-1].shape[1]}")
        self._next_index = frame_index + 1
        self._buf.append(frame)
        if len(self._buf) < self.window_frames:
            return None
        stacked = np.concatenate(list(self._buf), axis=0)
        return Sample(tensor=np.ascontiguousarray(stacked.T), label=self.label)

    def restart(self, frame_index: int) -> None:
        """Drop the buffered frames and expect ``frame_index`` next: a gap in
        the stream starts a new window there."""
        self._buf.clear()
        self._next_index = frame_index

    @property
    def frames_seen(self) -> int:
        return self._next_index


# ---------------------------------------------------------------------
# frame-file and manifest I/O
# ---------------------------------------------------------------------

def write_frame_file(path, seq: FrameSequence) -> None:
    c = seq.channels()
    subject = -1 if seq.subject is None else seq.subject
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"C={c} rate={seq.frame_rate!r} label={seq.label} subject={subject}\n")
        for i, frame in enumerate(seq.frames):
            if frame.shape[1] != c:
                raise DataError(f"frame {i} has {frame.shape[1]} channels, header says {c}")
            vals = " ".join(repr(float(v)) for v in np.asarray(frame, dtype=np.float32).ravel())
            f.write(f"{i} {frame.shape[0]}{' ' if vals else ''}{vals}\n")


def parse_header(line: str, path) -> dict:
    """A frame file's header line -> {"C", "rate", "label", "subject"}."""
    fields = {}
    for part in line.split():
        if "=" not in part:
            raise DataError(f"{path}: malformed header token {part!r}")
        key, val = part.split("=", 1)
        fields[key] = val
    try:
        header = {
            "C": int(fields["C"]),
            "rate": float(fields["rate"]),
            "label": int(fields["label"]),
            "subject": int(fields["subject"]),
        }
    except (KeyError, ValueError) as e:
        raise DataError(f"{path}: bad header {line!r}: {e}") from None
    if not (math.isfinite(header["rate"]) and header["rate"] > 0):
        raise DataError(f"{path}: bad header {line!r}: rate must be finite and > 0")
    return header


def parse_frame_line(line: str, c: int) -> Tuple[int, np.ndarray]:
    """One frame line -> (frame index, (m, c) float32 points).

    Raises DataError for a malformed line, a point count that disagrees with
    the values given, a value that is not finite in float32, or a point x
    whose 4 |x|^2 is not: that bounds every squared distance to x, so
    below it the pairwise distances behind kNN stay finite."""
    tokens = line.split()
    try:
        idx, m = int(tokens[0]), int(tokens[1])
        values = [float(v) for v in tokens[2:]]
    except (IndexError, ValueError):
        raise DataError("malformed frame line") from None
    if m < 0 or len(values) != m * c:
        raise DataError(f"expected {m}*{c} values, got {len(values)}")
    with np.errstate(over="ignore"):  # beyond float32 range -> inf, rejected below
        points = np.asarray(values, dtype=np.float32).reshape(m, c)
        reach = 4 * (points ** 2).sum(axis=1)
    if not np.isfinite(points).all():
        raise DataError("non-finite point value")
    if not np.isfinite(reach).all():
        raise DataError("point too large: 4 |x|^2 overflows float32")
    return idx, points


def read_frame_file(path, seq_id: int = 0) -> FrameSequence:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or not lines[0].strip():
        raise DataError(f"{path}: missing header line")
    header = parse_header(lines[0], path)
    c = header["C"]
    if c < 1:
        raise DataError(f"{path}: channel count must be >= 1, got {c}")
    frames = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            idx, points = parse_frame_line(line, c)
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        if idx != len(frames):
            raise DataError(
                f"{path}:{lineno}: frame index {idx} out of order (expected {len(frames)})")
        frames.append(points)
    if not frames:
        raise DataError(f"{path}: sequence has no frames")
    return FrameSequence(
        frames=frames, label=header["label"],
        subject=None if header["subject"] < 0 else header["subject"],
        frame_rate=header["rate"], seq_id=seq_id)


def read_manifest(path) -> List[FrameSequence]:
    """Load every sequence listed in a manifest; sequence ids follow line order."""
    base = os.path.dirname(os.path.abspath(path))
    sequences = []
    with open(path, "r", encoding="utf-8") as f:
        entries = [ln.strip() for ln in f]
    entries = [e for e in entries if e and not e.startswith("#")]
    if not entries:
        raise DataError(f"{path}: manifest lists no sequences")
    for i, entry in enumerate(entries):
        file_path = entry if os.path.isabs(entry) else os.path.join(base, entry)
        seq = read_frame_file(file_path, seq_id=i)
        if sequences and seq.channels() != sequences[0].channels():
            raise DataError(
                f"{file_path}: C={seq.channels()}, but {entries[0]} has "
                f"C={sequences[0].channels()}; a manifest's files must agree on C")
        sequences.append(seq)
    return sequences


def write_dataset(dir_path, sequences: Sequence[FrameSequence]) -> str:
    """Write one frame file per sequence plus a manifest; returns manifest path."""
    os.makedirs(dir_path, exist_ok=True)
    names = []
    for i, seq in enumerate(sequences):
        name = f"seq_{i:05d}.txt"
        write_frame_file(os.path.join(dir_path, name), seq)
        names.append(name)
    manifest = os.path.join(dir_path, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(names) + "\n")
    return manifest


# ---------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------

# mmactivity: 2 s windows at 30 Hz, 10-frame stride; val carved from train
#   (0.8 * 0.8 / 0.8 * 0.2 split of the original 80/20 train/test cut).
# milipoint: 2 s windows at 25 Hz; 80/10/10.
# synth: sized for the bundled generator (70-frame sequences -> one window
#   each) so a full train/eval cycle runs in minutes on one core.
PRESETS = {
    "mmactivity": PipelineConfig(window_frames=60, window_stride=10,
                                 points_per_frame=16, split_ratios=(0.64, 0.16, 0.20)),
    "milipoint": PipelineConfig(window_frames=50, window_stride=10,
                                points_per_frame=16, split_ratios=(0.8, 0.1, 0.1)),
    "synth": PipelineConfig(window_frames=5, window_stride=66,
                            points_per_frame=4, split_ratios=(0.8, 0.1, 0.1)),
}


def preset(name: str) -> PipelineConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose one of: {', '.join(sorted(PRESETS))}") from None
