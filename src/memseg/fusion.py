"""Memory attention: condition an image embedding on retrieved memory
features via pre-norm cross-attention over the spatial token grid.

Tokens are the H*W spatial positions with C channels.  Queries are
LN(E_new) + PE_new tokens; keys and values are the concatenation over
retrieved entries of LN(F_i) + PE_i tokens.  Positional encodings are
added (not concatenated) so the model dim stays C.  The output is the
residual sum E_new + CrossAttn(...); an empty retrieval (k = 0) returns
E_new unchanged.  Slices of token-grid rows and columns restrict the
queries to that box: each query attends to the keys alone, so the tokens
computed equal the full call's, and the decoder, which reads only the
prompt box's tokens, sees the same bits.  The query and memory tokens are
copied into one C-ordered buffer and normalised by one layer-norm call, so
the output depends on the inputs' values only, never on their memory
layout.

The attention has one head whose projections are fixed gains times the
identity, so each projection is an exact scalar multiply; the value gain
is 1 and multiplies nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import ShapeError, layer_norm, softmax


# the projection gains: queries/keys and output (the value gain is 1)
KEY_GAIN, OUT_GAIN = 1.5, 1.5


def _span(index: slice, n: int, name: str) -> tuple[int, int]:
    start, stop, step = index.indices(n)
    if step != 1 or stop <= start:
        raise ShapeError(f"{name} {index} is not a non-empty step-1 range of {n} {name}")
    return start, stop


def fuse(
    embedding_new: np.ndarray,
    pe_new: np.ndarray,
    features: np.ndarray,
    encodings: np.ndarray,
    rows: slice = slice(None),
    cols: slice = slice(None),
) -> np.ndarray:
    """Condition embedding_new on k retrieved mask features and their
    positional encodings, each a (k, C, H, W) stack.

    Returns a tensor of the same (C, H, W) shape.  Only the token-grid box
    of ``rows`` and ``cols``, each a non-empty slice of step 1, is
    conditioned; the other tokens are embedding_new's values.  Keys and
    values always span every retrieved token.  A restricted call equals the
    full one bitwise on its box as long as the box keeps at least two
    tokens, since BLAS rounds a one-row product differently; so a one-token
    box widens to its whole row (a one-column grid's single token still
    rounds on its own).  With k = 0 the input is returned unchanged
    (bitwise), which is also the behaviour of a capacity-0 memory.  The
    layer norm uses the unit affine.  Non-finite inputs, or scores that
    overflow, raise ValueError.
    """
    e = np.asarray(embedding_new, dtype=np.float64)
    pe = np.asarray(pe_new, dtype=np.float64)
    if e.ndim != 3:
        raise ShapeError(f"embedding must be (C, H, W), got {tuple(e.shape)}")
    if pe.shape != e.shape:
        raise ShapeError(
            f"positional encoding shape {tuple(pe.shape)} != embedding"
            f" shape {tuple(e.shape)}"
        )
    c, h, w = e.shape
    r0, r1 = _span(rows, h, "rows")
    c0, c1 = _span(cols, w, "cols")
    feats = np.asarray(features, dtype=np.float64)
    mem_pes = np.asarray(encodings, dtype=np.float64)
    if feats.shape[1:] != e.shape or mem_pes.shape != feats.shape:
        raise ShapeError(
            f"retrieved stacks {feats.shape}/{mem_pes.shape} are not both"
            f" (k, {c}, {h}, {w})"
        )
    if not (np.isfinite(e).all() and np.isfinite(pe).all()):
        raise ValueError("fusion embedding or its encoding has non-finite values")
    if not len(feats):
        return e.copy()
    if (r1 - r0) * (c1 - c0) == 1:
        c0, c1 = 0, w

    # one C-ordered buffer: the box's tokens, then every entry's tokens in
    # entry order.  Layer norm works row by row, so one call gives each row
    # the bits of a call of its own.
    grid = e.transpose(1, 2, 0)
    box = (slice(r0, r1), slice(c0, c1))
    box_shape = (r1 - r0, c1 - c0, c)
    m = box_shape[0] * box_shape[1]
    buf = np.empty((m + len(feats) * h * w, c))
    buf[:m].reshape(box_shape)[...] = grid[box]
    buf[m:].reshape(-1, h, w, c)[...] = feats.transpose(0, 2, 3, 1)
    normed = layer_norm(buf)
    q, kv = normed[:m], normed[m:]
    q_box = q.reshape(box_shape)
    q_box += pe.transpose(1, 2, 0)[box]
    kv_grid = kv.reshape(-1, h, w, c)
    kv_grid += mem_pes.transpose(0, 2, 3, 1)
    if not np.isfinite(kv).all():
        raise ValueError("fusion keys and values have non-finite values")

    # q and kv are C-ordered like a projection matmul's output, so BLAS
    # rounds as in the kernels' attention under the gains times the identity
    scores = (q * KEY_GAIN) @ (kv * KEY_GAIN).T
    scores /= math.sqrt(c)
    out = softmax(scores) @ kv
    out *= OUT_GAIN
    fused = np.array(grid, order="C")  # C-ordered, like the sum it replaces
    fused[box] += out.reshape(box_shape)
    return fused.transpose(2, 0, 1)
