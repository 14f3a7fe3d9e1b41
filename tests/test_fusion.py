"""Tests for memory-attention fusion."""

import hashlib

import numpy as np
import pytest

from memseg import fusion
from memseg.fusion import KEY_GAIN, OUT_GAIN, VALUE_GAIN, fuse, structured_fusion_params
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


def fuse_reference(e, pe, features, encodings, p):
    """Reference: the general fusion body, unit-affine layer norms and
    multi_head_attention, for any (C, H, W)."""
    c, h, w = e.shape
    ones, zeros = np.ones(c), np.zeros(c)
    if not len(features):
        return e.copy()
    tok = lambda t: t.transpose(*range(t.ndim - 3), -2, -1, -3).reshape(-1, c)  # noqa: E731
    kv = layer_norm(tok(features), ones, zeros)
    kv += tok(encodings)
    tokens = tok(e)
    q = layer_norm(tokens, ones, zeros) + tok(pe)
    tokens = tokens + multi_head_attention(q, kv, kv, p)
    return tokens.reshape(h, w, c).transpose(2, 0, 1)


def draw(rng, shape, k, amplitude=2.5):
    """An embedding, its PE and k retrieved (feature, encoding) rows; the
    encodings carry the production PE amplitude."""
    return (
        rng.normal(size=shape),
        amplitude * rng.normal(size=shape),
        rng.normal(size=(k, *shape)),
        amplitude * rng.normal(size=(k, *shape)),
    )


# sha256 of fuse's output bytes under structured_fusion_params(16), four
# seeded (16, 8, 8) draws at each k = 0..4.  Regenerate only with an
# explained change, like perfbench/reference.json.
STRUCTURED_FUSE_SHA256 = "e7087e87ef23d52e05da78a62ee6bd8148c76faf6edab82f62fb79cf43dc6ef4"


def test_structured_fusion_matches_pin():
    params = structured_fusion_params(16)
    rng = np.random.default_rng(0xF05E)
    digest = hashlib.sha256()
    for k in range(5):
        for _ in range(4):
            digest.update(fuse(*draw(rng, (16, 8, 8), k), params).tobytes())
    assert digest.hexdigest() == STRUCTURED_FUSE_SHA256


@pytest.mark.parametrize("shape", [(16, 8, 8), (16, 1, 1), (4, 3, 5), (2, 1, 6), (8, 4, 1)])
def test_structured_fusion_equals_general_body_bitwise(shape):
    """Under scaled-identity params fuse equals the layer-norm plus
    multi_head_attention body bit for bit; k = 1 gives Fortran-ordered
    token views, where matmul operand order shows."""
    params = structured_fusion_params(shape[0])
    rng = np.random.default_rng(sum(shape))
    for k in range(6):
        for _ in range(10):
            args = draw(rng, shape, k)
            assert np.array_equal(fuse(*args, params), fuse_reference(*args, params)), k


@pytest.mark.parametrize("heads", [1, 2])
def test_random_param_fusion_equals_general_body_bitwise(heads):
    params = random_params(40 + heads, heads)
    rng = np.random.default_rng(50 + heads)
    for k in range(5):
        args = draw(rng, SHAPE, k)
        assert np.array_equal(fuse(*args, params), fuse_reference(*args, params))


def fusion_params(kind):
    return structured_fusion_params(C) if kind == "structured" else random_params(60)


@pytest.mark.parametrize("kind", ["structured", "random"])
@pytest.mark.parametrize("where", ["e", "pe", "features", "encodings"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(kind, where, bad):
    names = ("e", "pe", "features", "encodings")
    args = dict(zip(names, draw(np.random.default_rng(7), SHAPE, 2)))
    args[where][(0,) * args[where].ndim] = bad
    with pytest.raises(ValueError):
        fuse(args["e"], args["pe"], args["features"], args["encodings"], fusion_params(kind))


@pytest.mark.parametrize("kind", ["structured", "random"])
def test_overflowing_scores_raise(kind):
    """Finite inputs whose query-key products overflow: the scores are
    checked, not only the inputs."""
    e, pe, feats, encs = draw(np.random.default_rng(8), SHAPE, 2)
    with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
        fuse(e, np.full(SHAPE, 1e200), feats, np.full(feats.shape, 1e200), fusion_params(kind))


def test_scalar_path_is_chosen_by_the_params(monkeypatch):
    """One head and scaled-identity projections select the scalar path,
    which never calls multi_head_attention; anything else does not."""
    eye = np.eye(C)
    assert structured_fusion_params(C).identity_gains == (KEY_GAIN, KEY_GAIN, VALUE_GAIN, OUT_GAIN)
    assert AttentionParams(2, eye, eye, eye, eye).identity_gains is None
    off_diagonal = eye.copy()
    off_diagonal[0, 1] = 1e-300
    assert AttentionParams(1, eye, eye, off_diagonal, eye).identity_gains is None
    assert random_params(1, heads=1).identity_gains is None

    def general(*args):
        raise AssertionError("general path taken")

    monkeypatch.setattr(fusion, "multi_head_attention", general)
    fuse(*draw(np.random.default_rng(9), SHAPE, 3), structured_fusion_params(C))


def test_scalar_path_with_other_gains_equals_general_body_bitwise():
    eye = np.eye(C)
    params = AttentionParams(1, 2.0 * eye, 0.5 * eye, 3.0 * eye, -1.25 * eye)
    rng = np.random.default_rng(10)
    for k in range(4):
        args = draw(rng, SHAPE, k)
        assert np.array_equal(fuse(*args, params), fuse_reference(*args, params))
