"""Desk-scale stand-ins for the segmentation pipeline around the memory
mechanism: a patch-projection image encoder wrapped around the
temporal-adapter blocks, a box prompt checked against the image, a
mask-feature encoder for memory entries, and an oracle-assisted
mask/confidence decoder that gates its mask to the prompt box.

The decoder's confidence is honest by construction: it is the logit of the
true IoU between the predicted mask and the frame's (possibly corrupted)
label, optionally perturbed for corrupted frames by a controlled
miscalibration term.  A clean frame therefore scores high and a frame
whose label disagrees with its image content scores low, which is exactly
the signal the confidence-driven memory needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .adapter import BlockParams, block_forward
from .kernels import ShapeError
from .metrics import iou
from .synth import IMG_CHANNELS, Frame, base_signatures

CONFIDENCE_CAP = 1e-9  # IoU clipped into [cap, 1-cap] before the logit


@dataclass(frozen=True)
class EncoderConfig:
    """Geometry and seeding of the fixed random patch projection."""

    image_size: int = 32
    patch_size: int = 4
    channels: int = 16
    proj_seed: int = 2024

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be positive, got {self.patch_size}")
        if self.image_size < 1:
            raise ValueError(f"image_size must be positive, got {self.image_size}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch"
                f" {self.patch_size}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def feature_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.grid, self.grid)


@lru_cache(maxsize=8)
def _projection(cfg: EncoderConfig) -> np.ndarray:
    in_dim = cfg.patch_size * cfg.patch_size * IMG_CHANNELS
    rng = np.random.default_rng(np.random.SeedSequence([cfg.proj_seed, 0x9A7C4]))
    return rng.normal(0.0, 1.0 / math.sqrt(in_dim), (in_dim, cfg.channels))


@lru_cache(maxsize=8)
def _read_out(cfg: EncoderConfig) -> tuple[np.ndarray, float]:
    """Fixed linear read-out: direction and threshold separating the
    projected foreground and background signatures with unit margin."""
    fg, bg = base_signatures()
    proj = _projection(cfg)
    n = cfg.patch_size * cfg.patch_size
    r_fg = np.tile(fg, n) @ proj
    r_bg = np.tile(bg, n) @ proj
    d = r_fg - r_bg
    w_dir = d / float(d @ d)
    tau = float((r_fg + r_bg) @ w_dir) / 2.0
    return w_dir, tau


def sinusoidal_pe(channels: int, height: int, width: int, slice_index: int,
                  amplitude: float = 1.0) -> np.ndarray:
    """Deterministic positional encoding over (channel, row, column) with a
    slice-index component, so frames at different depths get different PE."""
    pe = np.zeros((channels, height, width))
    rows = np.arange(height) / max(height, 1)
    cols = np.arange(width) / max(width, 1)
    for c in range(channels):
        band = c // 6 + 1
        mode = c % 6
        if mode == 0:
            pe[c] = np.sin(2 * np.pi * band * rows)[:, None]
        elif mode == 1:
            pe[c] = np.cos(2 * np.pi * band * rows)[:, None]
        elif mode == 2:
            pe[c] = np.sin(2 * np.pi * band * cols)[None, :]
        elif mode == 3:
            pe[c] = np.cos(2 * np.pi * band * cols)[None, :]
        elif mode == 4:
            pe[c] = math.sin(0.7 * band * slice_index)
        else:
            pe[c] = math.cos(0.7 * band * slice_index)
    return amplitude * pe


def _patch_tokens(features: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """(H, W, Cin) image features -> (grid, grid, C) token map."""
    g, p = cfg.grid, cfg.patch_size
    if features.shape != (cfg.image_size, cfg.image_size, IMG_CHANNELS):
        raise ShapeError(
            f"features shape {tuple(features.shape)} does not match encoder"
            f" config ({cfg.image_size}, {cfg.image_size}, {IMG_CHANNELS})"
        )
    patches = features.reshape(g, p, g, p, IMG_CHANNELS).transpose(0, 2, 1, 3, 4)
    flat = patches.reshape(g, g, p * p * IMG_CHANNELS)
    return flat @ _projection(cfg)


PE_AMPLITUDE = 2.5  # position terms must dominate content terms in matching


@lru_cache(maxsize=256)
def positional_encoding(cfg: EncoderConfig, slice_index: int) -> np.ndarray:
    """The encoder's PE: sinusoidal, with the decoder read-out direction
    projected out so positional signal entering attention values can never
    masquerade as mask evidence (the co-adaptation a trained model would
    exhibit).  Cached, so the array is read-only."""
    pe = sinusoidal_pe(cfg.channels, cfg.grid, cfg.grid, slice_index, PE_AMPLITUDE)
    w_dir, _ = _read_out(cfg)
    unit = w_dir / np.linalg.norm(w_dir)
    pe -= np.einsum("chw,c->hw", pe, unit)[None, :, :] * unit[:, None, None]
    pe.flags.writeable = False
    return pe


def encode_stack(
    frames: list[Frame], adapter_blocks: list[BlockParams], cfg: EncoderConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Encode the frames of one volume, batched along the temporal axis so
    the adapter's depth convolution sees neighbouring slices.  Returns one
    (E, PE) pair of shape (C, grid, grid) per frame."""
    if not frames:
        return []
    x = np.stack([_patch_tokens(f.features, cfg) for f in frames])
    for blk in adapter_blocks:
        x = block_forward(x, blk)
    out = []
    for i, f in enumerate(frames):
        e = x[i].transpose(2, 0, 1)
        out.append((e, positional_encoding(cfg, f.slice_index)))
    return out


@lru_cache(maxsize=8)
def _mask_direction(cfg: EncoderConfig) -> np.ndarray:
    """The projected foreground-minus-background signature that mask
    features encode occupancy along; not _read_out's r_fg - r_bg, which
    rounds differently.  Cached, so the array is read-only."""
    fg, bg = base_signatures()
    n = cfg.patch_size * cfg.patch_size
    d = (np.tile(fg, n) - np.tile(bg, n)) @ _projection(cfg)
    d.flags.writeable = False
    return d


@lru_cache(maxsize=8)
def _carrier(cfg: EncoderConfig) -> np.ndarray:
    """Neutral carrier for mask features: zero channel mean, orthogonal to
    the read-out direction, norm sqrt(C).  After layer-norm a pure carrier
    token is invisible to the decoder, so occupancy 0.5 votes exactly 0."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.proj_seed, 0xCA881]))
    w_dir, _ = _read_out(cfg)
    unit = w_dir / np.linalg.norm(w_dir)
    g = rng.normal(0.0, 1.0, cfg.channels)
    g -= g.mean()
    g -= (g @ unit) * unit
    g -= g.mean()  # re-center: removing the w_dir component shifts the mean
    return g * (math.sqrt(cfg.channels) / np.linalg.norm(g))


def mask_feature(mask: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """Memory-encoder stub: mean-pool a pixel mask to the token grid and
    encode the occupancy deviation from 0.5 along the decoder's
    discriminative direction, riding on a neutral carrier.  Retrieved mask
    features then vote symmetrically (+ for foreground, - for background)
    in exactly the subspace the decoder reads."""
    g, p = cfg.grid, cfg.patch_size
    if mask.shape != (cfg.image_size, cfg.image_size):
        raise ShapeError(
            f"mask shape {tuple(mask.shape)} does not match image size"
            f" {cfg.image_size}"
        )
    occ = mask.astype(np.float64).reshape(g, p, g, p).mean(axis=(1, 3))
    tok = _carrier(cfg)[None, None, :] + (occ[:, :, None] - 0.5) * _mask_direction(cfg)
    return tok.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# prompts


def encode_prompt(
    bbox: tuple[int, int, int, int], image_size: int = 32
) -> tuple[int, int, int, int]:
    """The box prompt: pixel box (x0, y0, x1, y1), half-open, as ints
    checked to lie inside the image."""
    x0, y0, x1, y1 = (int(v) for v in bbox)
    if not (0 <= x0 < x1 <= image_size and 0 <= y0 < y1 <= image_size):
        raise ValueError(
            f"invalid bbox {bbox}: need 0 <= x0 < x1 <= {image_size} and"
            f" 0 <= y0 < y1 <= {image_size}"
        )
    return (x0, y0, x1, y1)


def prompt_tokens(
    prompt: tuple[int, int, int, int], cfg: EncoderConfig
) -> tuple[slice, slice]:
    """The token-grid rows and columns that a pixel box prompt covers: the
    only tokens of the conditioned embedding that predict reads."""
    x0, y0, x1, y1 = prompt
    p = cfg.patch_size
    return slice(y0 // p, (y1 - 1) // p + 1), slice(x0 // p, (x1 - 1) // p + 1)


def bbox_of(mask: np.ndarray) -> tuple[int, int, int, int]:
    """Tight half-open bounding box of a nonzero mask."""
    if not mask.any():
        raise ValueError("cannot derive a bbox from an empty mask")
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return (int(cols[0]), int(rows[0]), int(cols[-1]) + 1, int(rows[-1]) + 1)


# ---------------------------------------------------------------------------
# decoder


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def predict(
    e_cond: np.ndarray,
    prompt: tuple[int, int, int, int],
    frame: Frame,
    cfg: EncoderConfig,
    miscalibration: float = 0.0,
    rng_seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Decode a mask and an oracle-assisted confidence.

    The mask is a fixed linear read-out of the conditioned embedding,
    thresholded per token, upsampled to pixels and gated to the prompt box,
    so only the box's tokens (``prompt_tokens``) matter; it is boolean.
    The confidence is logit(IoU(mask_hat, frame.mask)), clipped away from
    {0, 1}; corrupted frames additionally receive Gaussian miscalibration
    noise of the given magnitude.
    """
    e_cond = np.asarray(e_cond, dtype=np.float64)
    if e_cond.shape != cfg.feature_shape:
        raise ShapeError(
            f"conditioned embedding shape {tuple(e_cond.shape)} !="
            f" {cfg.feature_shape}"
        )
    w_dir, tau = _read_out(cfg)
    scores = np.einsum("chw,c->hw", e_cond, w_dir)
    tokens_on = scores > tau
    up = tokens_on.repeat(cfg.patch_size, 0).repeat(cfg.patch_size, 1)
    x0, y0, x1, y1 = prompt
    box = np.zeros_like(up)
    box[y0:y1, x0:x1] = True
    mask_hat = up & box

    overlap = iou(mask_hat, frame.mask)
    y_hat = _logit(min(max(overlap, CONFIDENCE_CAP), 1.0 - CONFIDENCE_CAP))
    if frame.is_corrupted and miscalibration > 0.0:
        y_hat += miscalibration * float(np.random.default_rng(rng_seed).normal())
    return mask_hat, float(y_hat)
