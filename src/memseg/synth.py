"""Synthetic multi-task frame streams.

Each task owns a fixed random "appearance": foreground/background channel
signatures and a smooth background texture, all derived from its
projection seed.  A frame is an ellipse or rectangle mask whose center
drifts smoothly with the slice index, rendered into feature space as

    features = mask * fg_signature + (1 - mask) * bg_signature
               + texture + gaussian_noise

Label corruption damages the stored mask (erosion or shift) while leaving
the rendered features untouched -- the synthetic analogue of a bad
annotation on a good image.  ``is_corrupted`` is ground-truth bookkeeping
and must never leak into the model path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class NoiseConfig:
    label_corrupt_prob: float = 0.0
    feature_noise_sigma: float = 0.0
    confidence_miscalibration: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.label_corrupt_prob <= 1.0:
            raise ValueError(
                f"label_corrupt_prob must be in [0, 1], got {self.label_corrupt_prob}"
            )
        if self.feature_noise_sigma < 0 or self.confidence_miscalibration < 0:
            raise ValueError("noise magnitudes must be non-negative")


@dataclass(frozen=True)
class TaskSpec:
    """Recipe for one task's frame distribution; the projection seed fully
    determines the generator (same seed, same stream)."""

    task_id: int
    modality_tag: str
    projection_seed: int
    shape_family: str = "ellipse"  # ellipse | rectangle
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self):
        if self.shape_family not in ("ellipse", "rectangle"):
            raise ValueError(f"unknown shape_family {self.shape_family!r}")


@dataclass
class Frame:
    """One image-feature/mask pair.  ``mask`` is the (possibly corrupted)
    label; ``is_corrupted`` is hidden from the model path."""

    features: np.ndarray  # (H, W, Cin)
    mask: np.ndarray  # (H, W) bool
    slice_index: int
    is_corrupted: bool = False


IMG_CHANNELS = 4


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached arrays read-only, so no caller can change them for the next."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=1)
def base_signatures() -> tuple[np.ndarray, np.ndarray]:
    """Task-independent foreground/background channel directions; a fixed
    read-out along their difference can see every task's foreground."""
    base = np.random.default_rng(0xBA5E)
    return _frozen(base.normal(0.0, 1.0, IMG_CHANNELS), base.normal(0.0, 1.0, IMG_CHANNELS))


@lru_cache(maxsize=8)
def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column coordinates of a size x size image, scaled to [0, 1]."""
    return _frozen(*np.mgrid[0:size, 0:size] / max(size - 1, 1))


@lru_cache(maxsize=64)
def _task_appearance(projection_seed: int, size: int):
    """Per-task fixed signatures and texture, derived only from the task,
    and the two rendered planes ``fg + texture`` and ``bg + texture``."""
    rng = np.random.default_rng(np.random.SeedSequence([projection_seed, 0xA99]))
    fg_base, bg_base = base_signatures()
    fg = fg_base + 0.6 * rng.normal(0.0, 1.0, IMG_CHANNELS)
    bg = bg_base + 0.6 * rng.normal(0.0, 1.0, IMG_CHANNELS)
    yy, xx = _grid(size)
    phase = rng.uniform(0, 2 * np.pi, 2)
    freq = rng.uniform(1.0, 3.0, 2)
    texture = 0.25 * (
        np.sin(2 * np.pi * freq[0] * yy + phase[0])
        + np.cos(2 * np.pi * freq[1] * xx + phase[1])
    )
    planes = (fg + texture[..., None], bg + texture[..., None])
    return _frozen(fg, bg, texture, *planes)


@lru_cache(maxsize=64)
def _drift(projection_seed: int) -> tuple[float, ...]:
    """A task's start center, velocity and semi-axes: (cx0, cy0, vx, vy, ax, ay)."""
    drift = np.random.default_rng(np.random.SeedSequence([projection_seed, 0xD21F7]))
    cx0, cy0 = drift.uniform(0.35, 0.65, 2)
    vx, vy = drift.uniform(-0.008, 0.008, 2)
    return cx0, cy0, vx, vy, drift.uniform(0.18, 0.26), drift.uniform(0.18, 0.26)


def _shape_mask(task: TaskSpec, t: int, size: int) -> np.ndarray:
    cx0, cy0, vx, vy, ax, ay = _drift(task.projection_seed)
    # smooth drift: slow linear motion plus a gentle sine wobble, slow
    # relative to the object size so neighbouring slices mostly overlap
    cx = cx0 + vx * t + 0.015 * np.sin(0.5 * t)
    cy = cy0 + vy * t + 0.015 * np.cos(0.5 * t)
    cx, cy = min(max(cx, 0.25), 0.75), min(max(cy, 0.25), 0.75)
    yy, xx = _grid(size)
    if task.shape_family == "ellipse":
        return ((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2 <= 1.0
    return (np.abs(xx - cx) <= ax) & (np.abs(yy - cy) <= ay)


def _corrupt_mask(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Damage a label: random shift plus one-sided erosion."""
    size = mask.shape[0]
    shift = int(rng.integers(size // 6, size // 3 + 1)) * (1 if rng.uniform() < 0.5 else -1)
    axis = int(rng.integers(0, 2))
    damaged = np.roll(mask, shift, axis=axis)
    # rolling wraps; clear the wrapped band so the damage is a real shift
    if axis == 0:
        if shift > 0:
            damaged[:shift] = 0
        elif shift < 0:
            damaged[shift:] = 0
    else:
        if shift > 0:
            damaged[:, :shift] = 0
        elif shift < 0:
            damaged[:, shift:] = 0
    erode = int(rng.integers(0, 3))
    for _ in range(erode):
        inner = damaged.copy()
        inner[1:] &= damaged[:-1]
        inner[:-1] &= damaged[1:]
        damaged = inner
    return damaged


def gen_frame(task: TaskSpec, t: int, rng_seed: int, size: int = 32) -> Frame:
    """Deterministic per (task, t, rng_seed): render one frame."""
    rng = np.random.default_rng(
        np.random.SeedSequence([rng_seed, task.projection_seed, t])
    )
    *_, fg_plane, bg_plane = _task_appearance(task.projection_seed, size)
    clean = _shape_mask(task, t, size)
    # equals clean * fg + (1 - clean) * bg + texture bit for bit
    features = np.where(clean[..., None], fg_plane, bg_plane)
    if task.noise.feature_noise_sigma > 0:
        features = features + rng.normal(
            0.0, task.noise.feature_noise_sigma, features.shape
        )
    corrupted = bool(rng.uniform() < task.noise.label_corrupt_prob)
    mask = _corrupt_mask(clean, rng) if corrupted else clean
    return Frame(
        features=features, mask=mask, slice_index=t, is_corrupted=corrupted
    )


# ---------------------------------------------------------------------------
# preprocessing


def preprocess_stream(frames: list[Frame], min_edge_ratio: float = 0.5) -> list[Frame]:
    """Standardize a raw stream:

    1. drop frames whose mask has no nonzero label;
    2. drop frames whose shortest edge is below min_edge_ratio of the
       longest edge;
    3. split multi-class masks into one binary frame per class (ascending
       class value), preserving the relative temporal order of survivors.

    Idempotent: the output passes through unchanged.
    """
    out: list[Frame] = []
    for f in frames:
        h, w = f.mask.shape
        if min(h, w) < min_edge_ratio * max(h, w):
            continue
        if not f.mask.any():
            continue
        if f.mask.dtype == bool:  # a non-empty bool mask is one class
            out.append(f)
            continue
        classes = sorted(int(c) for c in np.unique(f.mask) if c != 0)
        if classes == [1]:
            out.append(f)
            continue
        for c in classes:
            out.append(
                replace(f, mask=(f.mask == c).astype(f.mask.dtype))
            )
    return out
