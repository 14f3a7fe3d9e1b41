"""Tests for memory-attention fusion."""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memseg.fusion import KEY_GAIN, OUT_GAIN, fuse, memory_tokens
from memseg.kernels import (
    AttentionParams,
    ShapeError,
    layer_norm,
    multi_head_attention,
    softmax,
)
from blas_core import core_type, pin_note

C, H, W = 4, 3, 3
SHAPE = (C, H, W)
NONE = np.empty((0, *SHAPE))  # an empty retrieval: k = 0


def reference_params(c):
    """fuse's attention as general multi-head params: one head, each
    projection its gain times the identity (the value gain is 1)."""
    eye = np.eye(c)
    return AttentionParams(1, KEY_GAIN * eye, KEY_GAIN * eye, eye, OUT_GAIN * eye)


def stacks(retrieved):
    """(features, encodings) stacks of a list of (feature, encoding) pairs."""
    return tuple(np.stack(a) for a in zip(*retrieved))


def test_empty_retrieval_returns_input_bitwise():
    rng = np.random.default_rng(0)
    e = rng.normal(size=SHAPE)
    out = fuse(e, rng.normal(size=SHAPE), memory_tokens(NONE, NONE))
    assert np.array_equal(out, e)


def test_single_entry_hand_computed():
    # C=2, H=W=1: one query token, one kv token; softmax over one key is 1,
    # so out = E + 1.5 * 1.0 * (LN(F) + PE_mem) under the production gains
    # (output 1.5, value 1.0; the key gain does not matter).
    e = np.array([0.3, -0.7]).reshape(2, 1, 1)
    pe = np.array([0.1, 0.2]).reshape(2, 1, 1)
    f = np.array([1.0, 3.0]).reshape(2, 1, 1)
    pe_mem = np.array([0.5, -0.5]).reshape(2, 1, 1)
    out = fuse(e, pe, memory_tokens(f[None], pe_mem[None]))
    ln_f = layer_norm(f.reshape(1, 2)[::], np.ones(2), np.zeros(2))
    expected = e + 1.5 * (ln_f.ravel() + pe_mem.ravel()).reshape(2, 1, 1)
    assert np.allclose(out, expected, atol=1e-12)


def test_memory_order_invariance():
    rng = np.random.default_rng(4)
    e = rng.normal(size=SHAPE)
    pe = rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(4)]
    out = fuse(e, pe, memory_tokens(*stacks(retrieved)))
    out_perm = fuse(e, pe, memory_tokens(*stacks(retrieved[::-1])))
    assert np.max(np.abs(out - out_perm)) <= 1e-12


def test_output_shape_matches_input():
    rng = np.random.default_rng(6)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(2)]
    out = fuse(rng.normal(size=SHAPE), rng.normal(size=SHAPE), memory_tokens(*stacks(retrieved)))
    assert out.shape == SHAPE


def test_shape_mismatch_raises():
    rng = np.random.default_rng(8)
    with pytest.raises(ShapeError, match="memory tokens"):
        fuse(
            rng.normal(size=SHAPE),
            rng.normal(size=SHAPE),
            memory_tokens(
                *stacks([(rng.normal(size=(C, H, W + 1)), rng.normal(size=(C, H, W + 1)))])
            ),
        )
    e, pe = rng.normal(size=SHAPE), rng.normal(size=SHAPE)
    feats, encs = stacks([(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(4)])
    # features with a wrong trailing extent beside conforming encodings
    with pytest.raises(ShapeError, match="retrieved stacks"):
        memory_tokens(feats[..., :-1], encs)
    # three encodings for four features
    with pytest.raises(ShapeError, match="retrieved stacks"):
        memory_tokens(feats, encs[:3])
    # one entry's (C, H, W) feature without its stack axis
    with pytest.raises(ShapeError, match="retrieved stacks"):
        memory_tokens(feats[0], encs[0])
    memory = memory_tokens(feats, encs)
    # tokens of another channel count, or without their entry axis
    for bad in (memory[..., :-1], memory.reshape(-1, C)):
        with pytest.raises(ShapeError, match="memory tokens"):
            fuse(e, pe, bad)


def test_fuse_deterministic():
    rng = np.random.default_rng(12)
    e = rng.normal(size=SHAPE)
    pe = rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(3)]
    memory = memory_tokens(*stacks(retrieved))
    assert np.array_equal(fuse(e, pe, memory), fuse(e, pe, memory))


def _grid_tokens(t):
    """(..., C, H, W) -> (N, C) tokens in row-major grid order."""
    return t.transpose(*range(t.ndim - 3), -2, -1, -3).reshape(-1, t.shape[-3])


def fuse_per_entry(e, pe, retrieved):
    """Reference: one unit-affine layer norm per retrieved entry, blocks
    concatenated."""
    ones, zeros = np.ones(C), np.zeros(C)
    kv = np.concatenate([
        layer_norm(_grid_tokens(f), ones, zeros) + _grid_tokens(mem_pe)
        for f, mem_pe in retrieved
    ])
    tokens = _grid_tokens(e)
    q = layer_norm(tokens, ones, zeros) + _grid_tokens(pe)
    out = tokens + multi_head_attention(q, kv, kv, reference_params(C))
    return out.reshape(H, W, C).transpose(2, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_layer_norm_matches_per_entry_loop(n):
    rng = np.random.default_rng(20 + n)
    e, pe = rng.normal(size=SHAPE), rng.normal(size=SHAPE)
    retrieved = [(rng.normal(size=SHAPE), rng.normal(size=SHAPE)) for _ in range(n)]
    got = fuse(e, pe, memory_tokens(*stacks(retrieved)))
    assert np.max(np.abs(got - fuse_per_entry(e, pe, retrieved))) <= 1e-13


def memory_reference(features, encodings):
    """Reference keys and values: a unit-affine layer norm of the stacks'
    tokens plus their encodings, as (k, H*W, C)."""
    k, c, h, w = features.shape
    kv = layer_norm(_grid_tokens(features), np.ones(c), np.zeros(c))
    kv += _grid_tokens(encodings)
    return kv.reshape(k, h * w, c)


def fuse_reference(e, pe, memory):
    """Reference: a unit-affine layer norm of the queries and
    multi_head_attention under reference_params over the memory tokens,
    one query token at a time, for any (C, H, W)."""
    c, h, w = e.shape
    if not len(memory):
        return e.copy()
    kv = memory.reshape(-1, c)
    tokens = _grid_tokens(e)
    q = layer_norm(tokens, np.ones(c), np.zeros(c)) + _grid_tokens(pe)
    params = reference_params(c)
    tokens = tokens + np.concatenate(
        [multi_head_attention(q[t : t + 1], kv, kv, params) for t in range(len(q))]
    )
    return tokens.reshape(h, w, c).transpose(2, 0, 1)


def draw_stacks(rng, shape, k, amplitude=2.5):
    """An embedding, its PE and k retrieved (feature, encoding) rows as
    stacks; the encodings carry the production PE amplitude."""
    return (
        rng.normal(size=shape),
        amplitude * rng.normal(size=shape),
        rng.normal(size=(k, *shape)),
        amplitude * rng.normal(size=(k, *shape)),
    )


def draw(rng, shape, k):
    """fuse's arguments from draw_stacks: the embedding, its PE and the k
    rows' memory tokens."""
    e, pe, feats, encs = draw_stacks(rng, shape, k)
    return e, pe, memory_tokens(feats, encs)


# sha256 of fuse's output bytes on four seeded (16, 8, 8) draws at each
# k = 0..4, on the OpenBLAS core type blas_core.PIN_CORE_TYPE: one-row
# products round differently on other kernels.  Regenerate only with an
# explained change, like perfbench/reference.json.  Last regenerated when
# fuse began to compute each query token's products on their own: the 16
# outputs with k >= 1 moved, 11,190 of their 20,480 values by at most
# 9.5e-14.
STRUCTURED_FUSE_SHA256 = "ee72ce6a852eb46874fee758bd11b7ceeab857d77f13861f3f552782c4b70260"


def test_structured_fusion_matches_pin():
    rng = np.random.default_rng(0xF05E)
    digest = hashlib.sha256()
    for k in range(5):
        for _ in range(4):
            digest.update(fuse(*draw(rng, (16, 8, 8), k)).tobytes())
    assert digest.hexdigest() == STRUCTURED_FUSE_SHA256, pin_note()


def test_core_type_names_the_kernel_a_process_selects():
    """blas_core.core_type reads the kernel that OPENBLAS_CORETYPE selects
    in a fresh process, so a pin's failure message names the one in use."""
    if core_type() == "unknown" or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("numpy has no bundled x86-64 OpenBLAS")
    run = subprocess.run(
        [sys.executable, "-c", "from blas_core import core_type; print(core_type())"],
        cwd=Path(__file__).parent, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == "Haswell"


@pytest.mark.parametrize("shape", [(16, 8, 8), (16, 1, 1), (4, 3, 5), (2, 1, 6), (8, 4, 1)])
def test_structured_fusion_equals_general_body_bitwise(shape):
    """fuse equals the layer-norm plus multi_head_attention body bit for
    bit; k = 1 gives Fortran-ordered token views, where matmul operand
    order shows."""
    rng = np.random.default_rng(sum(shape))
    for k in range(6):
        for _ in range(10):
            args = draw(rng, shape, k)
            assert np.array_equal(fuse(*args), fuse_reference(*args)), k


@pytest.mark.parametrize("shape", [(16, 8, 8), (16, 1, 1), (4, 3, 5), (2, 1, 6), (8, 4, 1)])
def test_memory_tokens_equal_general_body_bitwise(shape):
    """memory_tokens equals a unit-affine layer norm of the stacks' tokens
    plus their encodings bit for bit, is C-ordered and is read-only."""
    rng = np.random.default_rng(sum(shape) + 1)
    for k in range(6):
        for _ in range(10):
            _, _, feats, encs = draw_stacks(rng, shape, k)
            got = memory_tokens(feats, encs)
            assert got.tobytes() == memory_reference(feats, encs).tobytes(), k
            assert got.shape == (k, shape[1] * shape[2], shape[0])
            assert got.flags.c_contiguous and not got.flags.writeable


# the ids name the fusion's fixed (structured) gains
@pytest.mark.parametrize("kind", ["structured"])
@pytest.mark.parametrize("where", ["e", "pe", "features", "encodings"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(kind, where, bad):
    names = ("e", "pe", "features", "encodings")
    args = dict(zip(names, draw_stacks(np.random.default_rng(7), SHAPE, 2)))
    args[where][(0,) * args[where].ndim] = bad
    with pytest.raises(ValueError):
        fuse(args["e"], args["pe"], memory_tokens(args["features"], args["encodings"]))
    if where in ("e", "pe"):  # an empty retrieval checks them too
        with pytest.raises(ValueError):
            fuse(args["e"], args["pe"], memory_tokens(NONE, NONE))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("token", [0, 5, 17])
def test_non_finite_memory_tokens_raise(bad, token):
    """Tokens handed straight to fuse are not checked on their own: a
    non-finite key makes every query's scores non-finite, and softmax
    raises on them."""
    e, pe, memory = draw(np.random.default_rng(9), SHAPE, 2)
    memory = memory.copy()
    memory.reshape(-1, C)[token, 1] = bad
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        fuse(e, pe, memory)


@pytest.mark.parametrize("kind", ["structured"])
def test_overflowing_scores_raise(kind):
    """Finite inputs whose query-key products overflow: the scores are
    checked, not only the inputs."""
    e, pe, feats, encs = draw_stacks(np.random.default_rng(8), SHAPE, 2)
    memory = memory_tokens(feats, np.full(feats.shape, 1e200))
    with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
        fuse(e, np.full(SHAPE, 1e200), memory)


@pytest.mark.parametrize("c", [8, 12, 16])
@pytest.mark.parametrize("grid", [(4, 4), (8, 8), (3, 5)])
@pytest.mark.parametrize("layout", ["c-contiguous", "encode-stack-view"])
def test_row_restricted_fusion_equals_full_rows_bitwise(c, grid, layout):
    """Every contiguous row range: its rows equal the full call's bits and
    the other rows are the embedding's, in the full call's layout."""
    h, w = grid
    rng = np.random.default_rng(c * h * w)
    for k in range(5):
        e, pe, memory = draw(rng, (c, h, w), k)
        if layout == "encode-stack-view":
            # encode_stack hands out (H, W, C) token maps transposed to (C, H, W)
            e = np.ascontiguousarray(e.transpose(1, 2, 0)).transpose(2, 0, 1)
        full = fuse(e, pe, memory)
        for start in range(h):
            for stop in range(start + 1, h + 1):
                got = fuse(e, pe, memory, slice(start, stop))
                assert got.strides == full.strides
                assert got[:, start:stop].tobytes() == full[:, start:stop].tobytes()
                assert got[:, :start].tobytes() == e[:, :start].tobytes()
                assert got[:, stop:].tobytes() == e[:, stop:].tobytes()


@pytest.mark.parametrize("c", [8, 12, 16])
@pytest.mark.parametrize("grid", [(4, 4), (8, 8), (3, 5)])
@pytest.mark.parametrize("layout", ["c-contiguous", "encode-stack-view"])
def test_box_restricted_fusion_equals_full_box_bitwise(c, grid, layout):
    """Every box of contiguous rows and columns: its tokens equal the full
    call's bits and the other tokens are the embedding's, in the full
    call's layout, one-token boxes included."""
    h, w = grid
    rng = np.random.default_rng(c * h * w + 1)
    spans = lambda n: [slice(a, b) for a in range(n) for b in range(a + 1, n + 1)]  # noqa: E731
    for k in range(5):
        e, pe, memory = draw(rng, (c, h, w), k)
        if layout == "encode-stack-view":
            e = np.ascontiguousarray(e.transpose(1, 2, 0)).transpose(2, 0, 1)
        full = fuse(e, pe, memory)
        for rows in spans(h):
            for cols in spans(w):
                got = fuse(e, pe, memory, rows, cols)
                assert got.strides == full.strides
                inside = np.zeros((h, w), dtype=bool)
                inside[rows, cols] = True
                assert got[:, inside].tobytes() == full[:, inside].tobytes()
                assert got[:, ~inside].tobytes() == e[:, ~inside].tobytes()


@pytest.mark.parametrize("rows", [slice(0, 4, 2), slice(3, 0, -1), slice(2, 2), slice(5, 9)])
def test_rows_must_be_a_non_empty_unit_step_range(rows):
    e, pe, memory = draw(np.random.default_rng(3), (8, 4, 4), 2)
    with pytest.raises(ShapeError, match="rows"):
        fuse(e, pe, memory, rows)
    with pytest.raises(ShapeError, match="rows"):  # an empty retrieval checks them too
        fuse(e, pe, memory[:0], rows)


@pytest.mark.parametrize("cols", [slice(0, 4, 2), slice(3, 0, -1), slice(2, 2), slice(5, 9)])
def test_cols_must_be_a_non_empty_unit_step_range(cols):
    e, pe, memory = draw(np.random.default_rng(3), (8, 4, 4), 2)
    with pytest.raises(ShapeError, match="cols"):
        fuse(e, pe, memory, slice(1, 3), cols)
    with pytest.raises(ShapeError, match="cols"):  # an empty retrieval checks them too
        fuse(e, pe, memory[:0], slice(1, 3), cols)


# the layouts an array of equal values can arrive in: C-ordered, F-ordered
# and a transposed view whose first axis is the contiguous one (what
# encode_stack hands out)
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "view": lambda a: np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0),
}
layouts = st.sampled_from(sorted(LAYOUTS))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 5), min_size=1, max_size=2),
       d=st.integers(1, 24), layout=layouts)
def test_kernel_bits_do_not_depend_on_layout(seed, lead, d, layout):
    """layer_norm and softmax give the same bits whatever the layout of
    their input; a sum along a strided axis would add in another order."""
    x = 3.0 * np.random.default_rng(seed).normal(size=(*lead, d))
    for kernel in (layer_norm, softmax):
        assert kernel(LAYOUTS[layout](x)).tobytes() == kernel(x).tobytes(), kernel.__name__


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), d=st.integers(1, 24))
def test_layer_norm_rows_keep_their_own_bits(seed, rows, d):
    """Each row of one layer_norm call equals a call on that row alone,
    which lets fuse normalise all its tokens in one buffer."""
    x = np.random.default_rng(seed).normal(size=(rows, d))
    whole = layer_norm(x)
    for i in range(rows):
        assert whole[i].tobytes() == layer_norm(x[i : i + 1])[0].tobytes()


@pytest.mark.parametrize("k", range(5))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 16), h=st.integers(1, 5),
       w=st.integers(1, 5), arg_layouts=st.tuples(layouts, layouts, layouts, layouts, layouts))
def test_fuse_bits_do_not_depend_on_layout(k, seed, c, h, w, arg_layouts):
    """memory_tokens and fuse give the same bits for C-ordered, F-ordered
    and transposed-view inputs holding equal values, at every k; at k = 1
    a C-ordered stack's token view is F-ordered.  The last layout is the
    memory tokens' own."""
    e, pe, feats, encs = draw_stacks(np.random.default_rng(seed), (c, h, w), k)
    memory = memory_tokens(feats, encs)
    e_, pe_, feats_, encs_ = (
        LAYOUTS[name](a) for name, a in zip(arg_layouts, (e, pe, feats, encs))
    )
    memory_ = memory_tokens(feats_, encs_)
    assert memory_.tobytes() == memory.tobytes()
    laid_out = fuse(e_, pe_, LAYOUTS[arg_layouts[-1]](memory_))
    assert laid_out.tobytes() == fuse(e, pe, memory).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), c=st.sampled_from([8, 12, 16]),
       h=st.integers(1, 8), w=st.integers(1, 8), order=st.sampled_from(["C", "F"]))
def test_memory_tokens_keep_each_entrys_bits(seed, k, c, h, w, order):
    """A stack's tokens are the concatenation of each entry's own tokens,
    bit for bit, whatever the entries are stacked with: the premise of
    keeping one retrieved slot's tokens across steps."""
    _, _, feats, encs = draw_stacks(np.random.default_rng(seed), (c, h, w), k)
    feats, encs = LAYOUTS[order](feats), LAYOUTS[order](encs)
    own = [memory_tokens(feats[i : i + 1], encs[i : i + 1]) for i in range(k)]
    assert memory_tokens(feats, encs).tobytes() == np.concatenate(own).tobytes()
