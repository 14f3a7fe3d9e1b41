"""Segmentation overlap metrics on binary masks."""

from __future__ import annotations

import numpy as np


def _as_binary(t, name: str) -> np.ndarray:
    a = np.asarray(t)
    if a.dtype == bool:
        return a
    if not ((a == 0) | (a == 1)).all():
        raise ValueError(f"{name} is not binary: values {np.unique(a)[:8]}")
    return a.astype(bool)


def dice(a, b) -> float:
    """Dice similarity coefficient 2|A n B| / (|A| + |B|).

    Two empty masks agree perfectly on absence and score 1.0 (conventions
    differ; this one is documented here on purpose).
    """
    a, b = _as_binary(a, "a"), _as_binary(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    total = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    if total == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / total


def iou(a, b) -> float:
    """Intersection over union |A n B| / |A u B|; both-empty scores 1.0."""
    a, b = _as_binary(a, "a"), _as_binary(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(a & b)) / union
