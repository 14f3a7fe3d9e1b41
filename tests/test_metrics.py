"""Tests for the dice/IoU metrics."""

import numpy as np
import pytest

from memseg.metrics import dice, iou


def test_identical_nonempty_masks():
    m = np.zeros((4, 4), dtype=np.uint8)
    m[1:3, 1:3] = 1
    assert dice(m, m) == 1.0
    assert iou(m, m) == 1.0


def test_disjoint_nonempty_masks():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = 1
    b[3, 3] = 1
    assert dice(a, b) == 0.0
    assert iou(a, b) == 0.0


def test_half_overlap_counts():
    # |A| = |B| = 4, |A n B| = 2 -> DSC 0.5, IoU 1/3
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0:4] = 1
    b[0, 2:4] = 1
    b[1, 0:2] = 1
    assert dice(a, b) == 0.5
    assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_both_empty_defined_as_one():
    z = np.zeros((3, 3), dtype=np.uint8)
    assert dice(z, z) == 1.0
    assert iou(z, z) == 1.0


def test_non_binary_rejected():
    with pytest.raises(ValueError):
        dice(np.array([[0, 2]]), np.array([[0, 1]]))
    with pytest.raises(ValueError):
        iou(np.array([[0.5, 0.0]]), np.array([[0, 1]]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        dice(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8))


def test_symmetry_and_identities_randomized():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = (rng.uniform(size=(6, 6)) < 0.4).astype(np.uint8)
        b = (rng.uniform(size=(6, 6)) < 0.4).astype(np.uint8)
        d, i = dice(a, b), iou(a, b)
        assert d == dice(b, a)
        assert i == iou(b, a)
        assert d >= i
        # dice == 2*iou / (1 + iou) exactly
        assert abs(d - 2.0 * i / (1.0 + i)) < 1e-12
        assert 0.0 <= d <= 1.0 and 0.0 <= i <= 1.0


def dice_by_sums(a, b):
    """The sum-based Dice the counts replaced, kept as the oracle."""
    a, b = np.asarray(a).astype(bool), np.asarray(b).astype(bool)
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def iou_by_sums(a, b):
    a, b = np.asarray(a).astype(bool), np.asarray(b).astype(bool)
    union = int((a | b).sum())
    return 1.0 if union == 0 else int((a & b).sum()) / union


@pytest.mark.parametrize("dtype", [bool, np.uint8])
def test_counts_equal_sum_based_formulas(dtype):
    """Bool and 0/1 uint8 masks of any fill, both-empty pairs included,
    score exactly what the sum-based formulas give, as Python floats."""
    rng = np.random.default_rng(23)
    pairs = [(np.zeros((5, 7), dtype), np.zeros((5, 7), dtype))]
    for _ in range(300):
        shape = tuple(rng.integers(1, 33, size=2))
        pa, pb = rng.uniform(size=2) ** 2  # fills near 0 are common
        pairs.append(((rng.uniform(size=shape) < pa).astype(dtype),
                      (rng.uniform(size=shape) < pb).astype(dtype)))
    for a, b in pairs:
        for got, want in ((dice(a, b), dice_by_sums(a, b)), (iou(a, b), iou_by_sums(a, b))):
            assert type(got) is float and got == want
    assert dice(*pairs[0]) == iou(*pairs[0]) == 1.0


@pytest.mark.parametrize("metric", [dice, iou])
@pytest.mark.parametrize("bad", [np.array([[0, 2]]), np.array([[0.5, 1.0]]), np.array([[-1, 0]])])
def test_non_binary_mask_raises(metric, bad):
    good = np.array([[0, 1]], dtype=np.uint8)
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="not binary"):
            metric(a, b)
