"""Tests for memory-attention fusion."""

import numpy as np
import pytest

from memseg.fusion import fuse, structured_fusion_params
from memseg.kernels import (
    AttentionParams,
    ShapeError,
    attention_params,
    layer_norm,
    multi_head_attention,
)

C, H, W = 4, 3, 3
SHAPE = (C, H, W)
NONE = np.empty((0, *SHAPE))  # an empty retrieval: k = 0


def random_params(seed, heads=2):
    return attention_params(np.random.default_rng(seed), C, heads)


def stacks(retrieved):
    """(features, encodings) stacks of a list of (feature, encoding) pairs."""
    return tuple(np.stack(a) for a in zip(*retrieved))


def test_empty_retrieval_returns_input_bitwise():
    rng = np.random.default_rng(0)
    e = rng.normal(size=SHAPE)
    out = fuse(e, rng.normal(size=SHAPE), NONE, NONE, random_params(1))
    assert np.array_equal(out, e)


def test_zero_output_projection_is_identity():
    rng = np.random.default_rng(2)
    p = random_params(3)
    zeroed = AttentionParams(p.num_heads, p.w_q, p.w_k, p.w_v, np.zeros((C, C)))
    e = rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE))]
    out = fuse(e, rng.normal(size=SHAPE), *stacks(retrieved), zeroed)
    assert np.array_equal(out, e)


def test_single_entry_hand_computed():
    # C=2, H=W=1: one query token, one kv token; softmax over one key is 1,
    # so out = E + 1.5 * 1.0 * (LN(F) + PE_mem) under the production gains
    # (output 1.5, value 1.0; the key gain does not matter).
    params = structured_fusion_params(2)
    e = np.array([0.3, -0.7]).reshape(2, 1, 1)
    pe = np.array([0.1, 0.2]).reshape(2, 1, 1)
    f = np.array([1.0, 3.0]).reshape(2, 1, 1)
    pe_mem = np.array([0.5, -0.5]).reshape(2, 1, 1)
    out = fuse(e, pe, f[None], pe_mem[None], params)
    ln_f = layer_norm(f.reshape(1, 2)[::], np.ones(2), np.zeros(2))
    expected = e + 1.5 * (ln_f.ravel() + pe_mem.ravel()).reshape(2, 1, 1)
    assert np.allclose(out, expected, atol=1e-12)


def test_memory_order_invariance():
    rng = np.random.default_rng(4)
    p = random_params(5)
    e = rng.normal(size=SHAPE)
    pe = rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(4)]
    out = fuse(e, pe, *stacks(retrieved), p)
    out_perm = fuse(e, pe, *stacks(retrieved[::-1]), p)
    assert np.max(np.abs(out - out_perm)) <= 1e-12


def test_output_shape_matches_input():
    rng = np.random.default_rng(6)
    p = random_params(7)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(2)]
    out = fuse(rng.normal(size=SHAPE), rng.normal(size=SHAPE), *stacks(retrieved), p)
    assert out.shape == SHAPE


def test_shape_mismatch_raises():
    rng = np.random.default_rng(8)
    p = random_params(9)
    with pytest.raises(ShapeError):
        fuse(
            rng.normal(size=SHAPE),
            rng.normal(size=SHAPE),
            *stacks([(rng.normal(size=(C, H, W + 1)), rng.normal(size=(C, H, W + 1)))]),
            p,
        )
    with pytest.raises(ShapeError):
        fuse(rng.normal(size=(C + 1, H, W)), rng.normal(size=(C + 1, H, W)), NONE, NONE, p)
    e, pe = rng.normal(size=SHAPE), rng.normal(size=SHAPE)
    feats, encs = stacks([(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(4)])
    # features with a wrong trailing extent beside conforming encodings
    with pytest.raises(ShapeError, match="retrieved stacks"):
        fuse(e, pe, feats[..., :-1], encs, p)
    # three encodings for four features
    with pytest.raises(ShapeError, match="retrieved stacks"):
        fuse(e, pe, feats, encs[:3], p)


def test_fuse_deterministic():
    rng = np.random.default_rng(12)
    p = random_params(13)
    e = rng.normal(size=SHAPE)
    pe = rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(3)]
    assert np.array_equal(fuse(e, pe, *stacks(retrieved), p), fuse(e, pe, *stacks(retrieved), p))


def _tokens(t):
    return t.transpose(1, 2, 0).reshape(-1, t.shape[0])


def fuse_per_entry(e, pe, retrieved, p):
    """Reference: one unit-affine layer norm per retrieved entry, blocks
    concatenated."""
    ones, zeros = np.ones(C), np.zeros(C)
    kv = np.concatenate([
        layer_norm(_tokens(f), ones, zeros) + _tokens(mem_pe) for f, mem_pe in retrieved
    ])
    tokens = _tokens(e)
    q = layer_norm(tokens, ones, zeros) + _tokens(pe)
    out = tokens + multi_head_attention(q, kv, kv, p)
    return out.reshape(H, W, C).transpose(2, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_layer_norm_matches_per_entry_loop(n):
    rng = np.random.default_rng(20 + n)
    p = random_params(30 + n)
    e, pe = rng.normal(size=SHAPE), rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(n)]
    got = fuse(e, pe, *stacks(retrieved), p)
    assert np.max(np.abs(got - fuse_per_entry(e, pe, retrieved, p))) <= 1e-13
