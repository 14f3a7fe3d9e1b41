"""Tests for memory-attention fusion."""

import numpy as np
import pytest

from memseg.fusion import FusionParams, fuse, fusion_params, structured_fusion_params
from memseg.kernels import AttentionParams, ShapeError, layer_norm, multi_head_attention

C, H, W = 4, 3, 3
SHAPE = (C, H, W)


def random_params(seed, heads=2):
    return fusion_params(np.random.default_rng(seed), C, num_heads=heads)


def test_empty_retrieval_returns_input_bitwise():
    rng = np.random.default_rng(0)
    e = rng.normal(size=SHAPE)
    out = fuse(e, rng.normal(size=SHAPE), [], random_params(1))
    assert np.array_equal(out, e)


def test_zero_output_projection_is_identity():
    rng = np.random.default_rng(2)
    p = random_params(3)
    zeroed = FusionParams(
        attn=AttentionParams(
            p.attn.num_heads, p.attn.w_q, p.attn.w_k, p.attn.w_v, np.zeros((C, C))
        ),
        ln_q_gamma=p.ln_q_gamma,
        ln_q_beta=p.ln_q_beta,
        ln_kv_gamma=p.ln_kv_gamma,
        ln_kv_beta=p.ln_kv_beta,
    )
    e = rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE))]
    out = fuse(e, rng.normal(size=SHAPE), retrieved, zeroed)
    assert np.array_equal(out, e)


def test_single_entry_hand_computed():
    # C=2, H=W=1: one query token, one kv token; softmax over one key is 1,
    # so out = E + (LN(F) + PE_mem) under identity projections.
    params = structured_fusion_params(2)
    e = np.array([0.3, -0.7]).reshape(2, 1, 1)
    pe = np.array([0.1, 0.2]).reshape(2, 1, 1)
    f = np.array([1.0, 3.0]).reshape(2, 1, 1)
    pe_mem = np.array([0.5, -0.5]).reshape(2, 1, 1)
    out = fuse(e, pe, [(f, pe_mem)], params)
    ln_f = layer_norm(f.reshape(1, 2)[::], np.ones(2), np.zeros(2))
    expected = e + (ln_f.ravel() + pe_mem.ravel()).reshape(2, 1, 1)
    assert np.allclose(out, expected, atol=1e-12)


def test_memory_order_invariance():
    rng = np.random.default_rng(4)
    p = random_params(5)
    e = rng.normal(size=SHAPE)
    pe = rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(4)]
    out = fuse(e, pe, retrieved, p)
    out_perm = fuse(e, pe, retrieved[::-1], p)
    assert np.max(np.abs(out - out_perm)) <= 1e-12


def test_output_shape_matches_input():
    rng = np.random.default_rng(6)
    p = random_params(7)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(2)]
    out = fuse(rng.normal(size=SHAPE), rng.normal(size=SHAPE), retrieved, p)
    assert out.shape == SHAPE


def test_shape_mismatch_raises():
    rng = np.random.default_rng(8)
    p = random_params(9)
    with pytest.raises(ShapeError):
        fuse(
            rng.normal(size=SHAPE),
            rng.normal(size=SHAPE),
            [(rng.normal(size=(C, H, W + 1)), rng.normal(size=(C, H, W + 1)))],
            p,
        )
    with pytest.raises(ShapeError):
        fuse(rng.normal(size=(C + 1, H, W)), rng.normal(size=(C + 1, H, W)), [], p)


def test_fuse_deterministic():
    rng = np.random.default_rng(12)
    p = random_params(13)
    e = rng.normal(size=SHAPE)
    pe = rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(3)]
    assert np.array_equal(fuse(e, pe, retrieved, p), fuse(e, pe, retrieved, p))


def _tokens(t):
    return t.transpose(1, 2, 0).reshape(-1, t.shape[0])


def fuse_per_entry(e, pe, retrieved, p):
    """Reference: one layer norm per retrieved entry, blocks concatenated."""
    kv = np.concatenate([
        layer_norm(_tokens(f), p.ln_kv_gamma, p.ln_kv_beta) + _tokens(mem_pe)
        for f, mem_pe in retrieved
    ])
    tokens = _tokens(e)
    q = layer_norm(tokens, p.ln_q_gamma, p.ln_q_beta) + _tokens(pe)
    out = tokens + multi_head_attention(q, kv, kv, p.attn)
    return out.reshape(H, W, C).transpose(2, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_layer_norm_matches_per_entry_loop(n):
    rng = np.random.default_rng(20 + n)
    p = random_params(30 + n)
    p.ln_kv_gamma[:] = rng.normal(size=C)
    p.ln_kv_beta[:] = rng.normal(size=C)
    e, pe = rng.normal(size=SHAPE), rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(n)]
    got = fuse(e, pe, retrieved, p)
    assert np.max(np.abs(got - fuse_per_entry(e, pe, retrieved, p))) <= 1e-13


@pytest.mark.parametrize("bad", [0, 2, 3])
def test_one_mismatched_entry_among_several_raises(bad):
    rng = np.random.default_rng(40)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(4)]
    f, mem_pe = retrieved[bad]
    retrieved[bad] = (f, mem_pe[:, :, :-1]) if bad % 2 else (f[:-1], mem_pe)
    with pytest.raises(ShapeError, match="retrieved entry shapes"):
        fuse(rng.normal(size=SHAPE), rng.normal(size=SHAPE), retrieved, random_params(41))
