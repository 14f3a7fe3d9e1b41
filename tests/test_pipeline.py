"""Tests for the encoder/prompt/decoder pipeline stubs."""

import math

import numpy as np
import pytest

from memseg.adapter import block_params
from memseg.kernels import ShapeError, sigmoid
from memseg.metrics import iou
from memseg.pipeline import (
    EncoderConfig,
    bbox_of,
    encode_prompt,
    encode_stack,
    mask_feature,
    positional_encoding,
    predict,
    prompt_tokens,
)
from memseg.synth import Frame, NoiseConfig, TaskSpec, gen_frame

CFG = EncoderConfig()


def clean_frame(t=0, seed=3, sigma=0.0, corrupt=0.0):
    task = TaskSpec(
        0, "ct", 21,
        noise=NoiseConfig(label_corrupt_prob=corrupt, feature_noise_sigma=sigma),
    )
    return gen_frame(task, t, seed)


def zeroed_blocks(seed=5):
    blk = block_params(np.random.default_rng(seed), CFG.channels, bottleneck=4)
    blk.attn.w_o[:] = 0.0
    blk.adapter.w_up[:] = 0.0
    blk.mlp.w2[:] = 0.0
    blk.mlp.b2[:] = 0.0
    return [blk]


# ---------------------------------------------------------------------------
# encoder


def test_encode_zeroed_blocks_equal_raw_projection():
    f = clean_frame()
    e_zero, pe_zero = encode_stack([f], zeroed_blocks(), CFG)[0]
    e_raw, pe_raw = encode_stack([f], [], CFG)[0]
    assert np.array_equal(e_zero, e_raw)
    assert np.array_equal(pe_zero, pe_raw)


def test_encode_identical_frames_different_t():
    f0 = clean_frame(t=0)
    f9 = Frame(features=f0.features, mask=f0.mask, slice_index=9)
    e0, pe0 = encode_stack([f0], [], CFG)[0]
    e9, pe9 = encode_stack([f9], [], CFG)[0]
    assert np.array_equal(e0, e9)  # embedding ignores slice index
    assert not np.array_equal(pe0, pe9)  # PE carries it


def test_encode_stack_temporal_batching_differs_from_single():
    # the adapter's depth conv sees neighbours, so a frame encoded inside a
    # volume differs from the same frame encoded alone
    blocks = [block_params(np.random.default_rng(9), CFG.channels, bottleneck=4)]
    frames = [clean_frame(t=t, sigma=0.3, seed=4) for t in range(3)]
    volume = encode_stack(frames, blocks, CFG)
    alone = encode_stack([frames[1]], blocks, CFG)[0]
    assert not np.array_equal(volume[1][0], alone[0])


def test_encode_shapes_and_determinism():
    f = clean_frame()
    e, pe = encode_stack([f], [], CFG)[0]
    assert e.shape == CFG.feature_shape
    assert pe.shape == CFG.feature_shape
    e2, pe2 = encode_stack([f], [], CFG)[0]
    assert np.array_equal(e, e2) and np.array_equal(pe, pe2)


def test_encode_rejects_wrong_feature_shape():
    bad = Frame(features=np.zeros((16, 16, 4)), mask=np.zeros((16, 16)), slice_index=0)
    with pytest.raises(ShapeError):
        encode_stack([bad], [], CFG)


def test_positional_encoding_orthogonal_to_read_out():
    from memseg.pipeline import _read_out

    w_dir, _ = _read_out(CFG)
    pe = positional_encoding(CFG, 3)
    leak = np.einsum("chw,c->hw", pe, w_dir / np.linalg.norm(w_dir))
    assert np.abs(leak).max() < 1e-12


def test_positional_encoding_cached_read_only():
    pe = positional_encoding(CFG, 5)
    assert positional_encoding(CFG, 5) is pe
    assert not pe.flags.writeable
    with pytest.raises(ValueError):
        pe[0, 0, 0] = 1.0
    assert positional_encoding.__wrapped__(CFG, 5).tobytes() == pe.tobytes()


def test_mask_feature_shape_and_determinism():
    f = clean_frame()
    a = mask_feature(f.mask, CFG)
    b = mask_feature(f.mask, CFG)
    assert a.shape == CFG.feature_shape
    assert np.array_equal(a, b)
    with pytest.raises(ShapeError):
        mask_feature(np.zeros((16, 16)), CFG)


# ---------------------------------------------------------------------------
# prompts


def test_prompt_is_the_checked_box():
    assert encode_prompt((0, 0, 32, 32), 32) == (0, 0, 32, 32)
    box = encode_prompt((np.int64(4), 5.0, 20, np.uint8(21)), 32)
    assert box == (4, 5, 20, 21)
    assert all(type(v) is int for v in box)


def test_prompt_rejects_inverted_box():
    with pytest.raises(ValueError):
        encode_prompt((10, 0, 5, 32), 32)
    with pytest.raises(ValueError):
        encode_prompt((0, 20, 32, 10), 32)
    with pytest.raises(ValueError):
        encode_prompt((0, 0, 40, 10), 32)


def test_bbox_of_tight_box():
    m = np.zeros((8, 8), dtype=np.uint8)
    m[2:5, 3:7] = 1
    assert bbox_of(m) == (3, 2, 7, 5)
    with pytest.raises(ValueError):
        bbox_of(np.zeros((4, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# decoder


def test_predict_perfect_embedding_reproduces_aligned_mask():
    # patch-aligned rectangle: a mask feature built from the label decodes
    # back to the label exactly, and the confidence saturates at the cap
    mask = np.zeros((32, 32), dtype=np.uint8)
    mask[8:16, 12:24] = 1
    frame = Frame(features=np.zeros((32, 32, 4)), mask=mask, slice_index=0)
    e_cond = mask_feature(mask, CFG)
    prompt = encode_prompt(bbox_of(mask), 32)
    mask_hat, y_hat = predict(e_cond, prompt, frame, CFG)
    assert np.array_equal(mask_hat, mask)
    assert y_hat == pytest.approx(math.log((1 - 1e-9) / 1e-9), rel=1e-6)


def test_predict_empty_prediction_logit_floor():
    mask = np.zeros((32, 32), dtype=np.uint8)
    mask[8:16, 8:16] = 1
    frame = Frame(features=np.zeros((32, 32, 4)), mask=mask, slice_index=0)
    # background-everywhere embedding decodes to an empty mask
    e_cond = mask_feature(np.zeros((32, 32), dtype=np.uint8), CFG)
    prompt = encode_prompt(bbox_of(mask), 32)
    mask_hat, y_hat = predict(e_cond, prompt, frame, CFG)
    assert mask_hat.sum() == 0
    assert y_hat == pytest.approx(math.log(1e-9 / (1 - 1e-9)), rel=1e-6)


def test_predict_confidence_matches_true_iou():
    # interior IoU: exact round trip through logit/sigmoid
    task = TaskSpec(0, "ct", 11, noise=NoiseConfig(feature_noise_sigma=0.8))
    f = gen_frame(task, 0, 0)
    e, _ = encode_stack([f], [], CFG)[0]
    prompt = encode_prompt(bbox_of(f.mask), 32)
    mask_hat, y_hat = predict(e, prompt, f, CFG, miscalibration=0.0)
    true_iou = iou(mask_hat, f.mask)
    assert 0.0 < true_iou < 1.0
    assert abs(float(sigmoid(np.float64(y_hat))) - true_iou) < 1e-9

    # boundary IoU = 0: the clip keeps sigmoid(y_hat) within 1e-9 of it
    e_bg = mask_feature(np.zeros((32, 32), dtype=np.uint8), CFG)
    mask_hat0, y0 = predict(e_bg, prompt, f, CFG, miscalibration=0.0)
    assert iou(mask_hat0, f.mask) == 0.0
    assert float(sigmoid(np.float64(y0))) <= 1.01e-9


def test_predict_miscalibration_only_touches_corrupted():
    f = clean_frame(sigma=0.5, seed=13)
    e, _ = encode_stack([f], [], CFG)[0]
    prompt = encode_prompt(bbox_of(f.mask), 32)
    _, y0 = predict(e, prompt, f, CFG, miscalibration=2.0, rng_seed=5)
    _, y1 = predict(e, prompt, f, CFG, miscalibration=0.0, rng_seed=5)
    assert y0 == y1  # clean frame: miscalibration has no effect

    corrupted = Frame(features=f.features, mask=f.mask, slice_index=0, is_corrupted=True)
    _, y2 = predict(e, prompt, corrupted, CFG, miscalibration=2.0, rng_seed=5)
    _, y3 = predict(e, prompt, corrupted, CFG, miscalibration=2.0, rng_seed=5)
    assert y2 != y1  # corrupted frame: perturbed
    assert y2 == y3  # deterministic per seed


def test_predict_upsampling_matches_kron():
    from memseg.pipeline import _read_out

    rng = np.random.default_rng(8)
    w_dir, tau = _read_out(CFG)
    frame = clean_frame()
    for _ in range(5):
        e = rng.normal(0.0, 3.0, CFG.feature_shape)
        on = np.einsum("chw,c->hw", e, w_dir) > tau
        want = np.kron(on, np.ones((CFG.patch_size, CFG.patch_size), dtype=bool))
        mask_hat, _ = predict(e, encode_prompt((0, 0, 32, 32)), frame, CFG)
        assert mask_hat.dtype == bool
        # a bool mask hashes as the 0/1 bytes of a uint8 one
        assert mask_hat.tobytes() == want.astype(np.uint8).tobytes()


def test_predict_gates_to_prompt_box():
    mask = np.zeros((32, 32), dtype=np.uint8)
    mask[4:28, 4:28] = 1
    frame = Frame(features=np.zeros((32, 32, 4)), mask=mask, slice_index=0)
    e_cond = mask_feature(mask, CFG)
    narrow = encode_prompt((4, 4, 12, 12), 32)
    mask_hat, _ = predict(e_cond, narrow, frame, CFG)
    assert mask_hat[:, 12:].sum() == 0  # nothing outside the box
    assert mask_hat[4:12, 4:12].sum() > 0


def test_prompt_tokens_at_patch_boundaries():
    cfg = EncoderConfig(patch_size=4)
    # pixel rows 4-7, every column
    assert prompt_tokens((0, 4, 32, 8), cfg) == (slice(1, 2), slice(0, 8))
    # pixel rows 3-4 and columns 7-8 straddle a patch edge each
    assert prompt_tokens((7, 3, 9, 5), cfg) == (slice(0, 2), slice(1, 3))
    # pixel columns 4-7 end on a patch edge
    assert prompt_tokens((4, 0, 8, 32), cfg) == (slice(0, 8), slice(1, 2))
    assert prompt_tokens((0, 0, 32, 32), cfg) == (slice(0, 8), slice(0, 8))
    # one pixel in the last patch
    assert prompt_tokens((31, 31, 32, 32), cfg) == (slice(7, 8), slice(7, 8))
    assert prompt_tokens((5, 31, 6, 32), cfg) == (slice(7, 8), slice(1, 2))
    two = EncoderConfig(image_size=8, patch_size=2)
    assert prompt_tokens((1, 2, 6, 3), two) == (slice(1, 2), slice(0, 3))


def test_predict_reads_only_the_prompt_tokens():
    """Tokens outside the box's rows and, within them, outside its columns
    are redrawn; the mask and confidence stay the same bits."""
    rng = np.random.default_rng(21)
    frame = clean_frame()
    for prompt in [(4, 4, 12, 12), (0, 3, 32, 5), (9, 17, 30, 32), (13, 0, 14, 32)]:
        e = rng.normal(0.0, 3.0, CFG.feature_shape)
        rows, cols = prompt_tokens(prompt, CFG)
        other = rng.normal(0.0, 3.0, CFG.feature_shape)
        other[:, rows, cols] = e[:, rows, cols]
        want, y_want = predict(e, prompt, frame, CFG)
        got, y_got = predict(other, prompt, frame, CFG)
        assert got.tobytes() == want.tobytes() and y_got == y_want
