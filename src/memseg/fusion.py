"""Memory attention: condition an image embedding on retrieved memory
features via pre-norm cross-attention over the spatial token grid.

Tokens are the H*W spatial positions with C channels.  Queries are
LN(E_new) + PE_new tokens; keys and values are the concatenation over
retrieved entries of LN(F_i) + PE_i tokens.  Positional encodings are
added (not concatenated) so the model dim stays C.  The output is the
residual sum E_new + CrossAttn(...); an empty retrieval (k = 0) returns
E_new unchanged.  A slice of token-grid rows restricts the queries to
those rows: each query attends to the keys alone, so the rows computed
equal the full call's, and the decoder, which reads only the prompt box's
rows, sees the same bits.  The query and memory tokens are copied into
one C-ordered buffer and normalised by one layer-norm call, so the output
depends on the inputs' values only, never on their memory layout.

The attention has one head whose projections are fixed gains times the
identity, so each projection is an exact scalar multiply.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import ShapeError, layer_norm, softmax


# the projection gains: queries/keys, values, output
KEY_GAIN, VALUE_GAIN, OUT_GAIN = 1.5, 1.0, 1.5


def _tokens(t: np.ndarray) -> np.ndarray:
    # (C, H, W) -> (H*W, C)
    return t.transpose(1, 2, 0).reshape(-1, t.shape[0])


def fuse(
    embedding_new: np.ndarray,
    pe_new: np.ndarray,
    features: np.ndarray,
    encodings: np.ndarray,
    rows: slice = slice(None),
) -> np.ndarray:
    """Condition embedding_new on k retrieved mask features and their
    positional encodings, each a (k, C, H, W) stack.

    Returns a tensor of the same (C, H, W) shape.  Only the token-grid rows
    in ``rows``, a non-empty slice of step 1, are conditioned; the others
    are embedding_new's values.  Keys and values always span every
    retrieved token.  A restricted call equals the full one bitwise on its
    rows as long as it keeps at least two tokens: BLAS rounds a one-row
    product differently, which a square grid never asks for.  With k = 0
    the input is returned unchanged (bitwise), which is also the behaviour
    of a capacity-0 memory.  The layer norm uses the unit affine.
    Non-finite inputs, or scores that overflow, raise ValueError.
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
    start, stop, step = rows.indices(h)
    if step != 1 or stop <= start:
        raise ShapeError(f"rows {rows} is not a non-empty step-1 range of {h} rows")
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

    # one C-ordered buffer: the queried rows' tokens, then every entry's
    # tokens in entry order.  Layer norm works row by row, so one call
    # gives each row the bits of a call of its own.
    tokens = _tokens(e)
    lo, hi = start * w, stop * w
    m = hi - lo
    buf = np.empty((m + len(feats) * h * w, c))
    buf[:m] = tokens[lo:hi]
    buf[m:].reshape(-1, h, w, c)[...] = feats.transpose(0, 2, 3, 1)
    normed = layer_norm(buf)
    q, kv = normed[:m], normed[m:]
    q += _tokens(pe)[lo:hi]
    kv_grid = kv.reshape(-1, h, w, c)
    kv_grid += mem_pes.transpose(0, 2, 3, 1)
    if not np.isfinite(kv).all():
        raise ValueError("fusion keys and values have non-finite values")

    # q and kv are C-ordered like a projection matmul's output, so BLAS
    # rounds as in the kernels' attention under the gains times the identity
    scores = (q * KEY_GAIN) @ (kv * KEY_GAIN).T
    scores /= math.sqrt(c)
    out = softmax(scores) @ (kv * VALUE_GAIN)
    out *= OUT_GAIN
    fused = tokens.copy()  # C-ordered, like the sum it replaces
    fused[lo:hi] += out
    return fused.reshape(h, w, c).transpose(2, 0, 1)
