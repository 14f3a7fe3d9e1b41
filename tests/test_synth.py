"""Tests for the synthetic stream generator and preprocessing rules."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memseg import synth
from memseg.synth import (
    Frame,
    NoiseConfig,
    TaskSpec,
    gen_frame,
    preprocess_stream,
)


def make_task(corrupt=0.0, sigma=0.0, seed=11, family="ellipse"):
    return TaskSpec(
        task_id=0,
        modality_tag="ct",
        projection_seed=seed,
        shape_family=family,
        noise=NoiseConfig(label_corrupt_prob=corrupt, feature_noise_sigma=sigma),
    )


# ---------------------------------------------------------------------------
# generation


def test_gen_frame_deterministic():
    task = make_task(corrupt=0.5, sigma=1.0)
    a = gen_frame(task, 3, 42)
    b = gen_frame(task, 3, 42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.mask, b.mask)
    assert a.is_corrupted == b.is_corrupted


def test_gen_frame_varies_with_seed_and_t():
    noisy = make_task(sigma=0.5)
    a = gen_frame(noisy, 0, 1)
    b = gen_frame(noisy, 0, 2)
    assert not np.array_equal(a.features, b.features)  # seed drives the noise
    clean = make_task()
    c = gen_frame(clean, 0, 1)
    d = gen_frame(clean, 5, 1)
    assert not np.array_equal(c.mask, d.mask)  # drift moved the shape


def test_cached_appearance_arrays_read_only():
    # the appearance is fg, bg, texture and the two rendered planes
    fg, bg, texture, fg_plane, bg_plane = synth._task_appearance(11, 32)
    cached = [*synth.base_signatures(), fg, bg, texture, fg_plane, bg_plane, *synth._grid(32)]
    for a in cached:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0.0


@pytest.mark.parametrize("family", ["ellipse", "rectangle"])
def test_gen_frame_equals_uncached_output(monkeypatch, family):
    tasks = [make_task(corrupt=0.5, sigma=s, seed=seed, family=family)
             for seed in (11, 12) for s in (0.0, 0.7)]
    keys = [(task, t, size) for task in tasks for t in range(6) for size in (16, 32)]
    cached = [gen_frame(task, t, 9, size) for task, t, size in keys]
    for name in ("base_signatures", "_grid", "_task_appearance", "_drift"):
        monkeypatch.setattr(synth, name, getattr(synth, name).__wrapped__)
    for (task, t, size), got in zip(keys, cached):
        want = gen_frame(task, t, 9, size)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.mask.tobytes() == want.mask.tobytes()
        assert got.is_corrupted == want.is_corrupted
        if task.noise.feature_noise_sigma == 0.0:
            # the arithmetic blend that the np.where rendering replaces
            fg, bg, texture, *_ = synth._task_appearance(task.projection_seed, size)
            clean = synth._shape_mask(task, t, size)[:, :, None]
            blend = clean * fg + (1 - clean) * bg + texture[:, :, None]
            assert got.features.tobytes() == blend.tobytes()


def test_gen_frame_mask_binary_and_nonempty():
    task = make_task()
    for t in range(6):
        f = gen_frame(task, t, 7)
        assert f.mask.dtype == bool
        assert f.mask.sum() > 0


def test_no_corruption_when_prob_zero():
    task = make_task(corrupt=0.0)
    assert not any(gen_frame(task, t, s).is_corrupted for t in range(5) for s in range(20))


def test_corruption_frequency_binomial():
    p = 0.3
    task = make_task(corrupt=p)
    n = 10_000
    hits = sum(gen_frame(task, s % 8, s, size=16).is_corrupted for s in range(n))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) < 3 * sigma


def test_corruption_changes_label_not_features():
    # same (task, t, seed) with corruption forced on vs off: features equal
    base = make_task(corrupt=0.0, sigma=0.0)
    forced = make_task(corrupt=1.0, sigma=0.0)
    a = gen_frame(base, 2, 9)
    b = gen_frame(forced, 2, 9)
    assert np.array_equal(a.features, b.features)
    assert b.is_corrupted
    assert not np.array_equal(a.mask, b.mask)


def test_zero_label_shift_only_erodes():
    # below size 6 the shift's magnitude can be 0: the label stays in place
    # and loses only the bottom rows that erosion takes, never all of it
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[:3] = 1
    zero_shifts = 0
    for seed in range(64):
        rng = np.random.default_rng(seed)  # _corrupt_mask's draws at size 4
        magnitude, _, _, erode = (rng.integers(0, 2), rng.uniform(),
                                  rng.integers(0, 2), int(rng.integers(0, 3)))
        if magnitude:
            continue
        zero_shifts += 1
        expected = np.zeros_like(mask)
        expected[: 3 - erode] = 1
        got = synth._corrupt_mask(mask, np.random.default_rng(seed))
        assert np.array_equal(got, expected), seed
    assert zero_shifts > 0


def test_corrupt_mask_bytes_match_pin():
    # every size from the one where the shift can be 0 up to the episode's,
    # both mask dtypes; each output hashes as its dtype, then its bytes
    h = hashlib.sha256()
    for size in (3, 4, 5, 6, 7, 8, 16, 32):
        for seed in range(64):
            drawn = np.random.default_rng([size, seed]).uniform(size=(size, size)) < 0.5
            for dtype in (bool, np.uint8):
                out = synth._corrupt_mask(drawn.astype(dtype), np.random.default_rng(seed))
                h.update(out.dtype.str.encode())
                h.update(out.tobytes())
    assert h.hexdigest() == (
        "31be19d42ed84083d1e5ddcc3234dbd3de168c573dc5fecb18c988fbcb0033b2"
    )


def test_rectangle_family():
    f = gen_frame(make_task(family="rectangle"), 0, 3)
    assert f.mask.sum() > 0


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(label_corrupt_prob=1.5)
    with pytest.raises(ValueError):
        NoiseConfig(feature_noise_sigma=-1.0)
    with pytest.raises(ValueError):
        TaskSpec(0, "ct", 1, shape_family="triangle")


# ---------------------------------------------------------------------------
# preprocessing


def frame_with(mask, t=0):
    h, w = mask.shape
    return Frame(
        features=np.zeros((h, w, 4)), mask=mask, slice_index=t, is_corrupted=False
    )


def test_preprocess_drops_zero_masks():
    good = np.zeros((8, 8), dtype=np.uint8)
    good[2:4, 2:4] = 1
    out = preprocess_stream([frame_with(np.zeros((8, 8), dtype=np.uint8)), frame_with(good)])
    assert len(out) == 1
    assert np.array_equal(out[0].mask, good)


def test_preprocess_drops_thin_frames():
    thin = np.ones((10, 30), dtype=np.uint8)  # 10 < 0.5 * 30
    square = np.ones((16, 16), dtype=np.uint8)
    out = preprocess_stream([frame_with(thin), frame_with(square)])
    assert len(out) == 1
    assert out[0].mask.shape == (16, 16)


def test_preprocess_boundary_ratio_kept():
    half = np.ones((15, 30), dtype=np.uint8)  # exactly 0.5: kept
    out = preprocess_stream([frame_with(half)])
    assert len(out) == 1


def test_preprocess_splits_multiclass():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[0:2, 0:2] = 1
    mask[4:6, 4:6] = 2
    out = preprocess_stream([frame_with(mask, t=5)])
    assert len(out) == 2
    assert np.array_equal(out[0].mask, (mask == 1).astype(np.uint8))
    assert np.array_equal(out[1].mask, (mask == 2).astype(np.uint8))
    assert out[0].slice_index == out[1].slice_index == 5


def test_preprocess_preserves_order():
    masks = []
    for i in range(4):
        m = np.zeros((8, 8), dtype=np.uint8)
        m[i, i] = 1
        masks.append(m)
    out = preprocess_stream([frame_with(m, t=i) for i, m in enumerate(masks)])
    assert [f.slice_index for f in out] == [0, 1, 2, 3]


def test_preprocess_idempotent():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[0:2, 0:2] = 1
    mask[4:6, 4:6] = 2
    frames = [
        frame_with(np.zeros((8, 8), dtype=np.uint8)),
        frame_with(mask),
        frame_with(np.ones((10, 30), dtype=np.uint8)),
        frame_with(np.ones((8, 8), dtype=np.uint8)),
    ]
    once = preprocess_stream(frames)
    twice = preprocess_stream(once)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        assert np.array_equal(a.mask, b.mask)
        assert a.slice_index == b.slice_index


def preprocess_model(frames, min_edge_ratio=0.5):
    """The three rules written out: drop thin or empty frames, keep a
    one-class mask as it is, split the rest by ascending class value."""
    out = []
    for f in frames:
        h, w = f.mask.shape
        if min(h, w) < min_edge_ratio * max(h, w):
            continue
        classes = sorted({int(v) for v in f.mask.ravel()} - {0})
        if not classes:
            continue
        if classes == [1]:
            out.append(f)
        else:
            for c in classes:
                split = np.array([[int(v) == c for v in row] for row in f.mask])
                out.append(Frame(f.features, split.astype(f.mask.dtype),
                                 f.slice_index, f.is_corrupted))
    return out


@st.composite
def raw_frames(draw):
    frames = []
    for t in range(draw(st.integers(0, 6))):
        h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        top = 1 if draw(st.booleans()) else 3
        values = draw(st.lists(st.integers(0, top), min_size=h * w, max_size=h * w))
        dtype = bool if top == 1 else np.uint8
        mask = np.array(values).reshape(h, w).astype(dtype)
        frames.append(Frame(np.zeros((h, w, 1)), mask, t, draw(st.booleans())))
    return frames


def stream_key(frames):
    return [(f.slice_index, f.is_corrupted, f.mask.dtype.str, f.mask.shape, f.mask.tobytes())
            for f in frames]


@settings(max_examples=200, deadline=None)
@given(raw_frames(), st.sampled_from([0.0, 0.5, 0.75, 1.0]))
def test_preprocess_equals_the_written_out_rules(frames, ratio):
    once = preprocess_stream(frames, min_edge_ratio=ratio)
    assert stream_key(once) == stream_key(preprocess_model(frames, ratio))
    assert stream_key(preprocess_stream(once, min_edge_ratio=ratio)) == stream_key(once)
