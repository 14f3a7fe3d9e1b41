"""Memory attention: condition an image embedding on retrieved memory
features via pre-norm cross-attention over the spatial token grid.

Tokens are the H*W spatial positions with C channels.  Queries are
LN(E_new) + PE_new tokens; keys and values are the concatenation over
retrieved entries of LN(F_i) + PE_i tokens.  Positional encodings are
added (not concatenated) so the model dim stays C.  The output is the
residual sum E_new + CrossAttn(...); an empty retrieval (k = 0) returns
E_new unchanged.

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
    # (..., C, H, W) -> (...*H*W, C)
    return t.transpose(*range(t.ndim - 3), -2, -1, -3).reshape(-1, t.shape[-3])


def fuse(
    embedding_new: np.ndarray,
    pe_new: np.ndarray,
    features: np.ndarray,
    encodings: np.ndarray,
) -> np.ndarray:
    """Condition embedding_new on k retrieved mask features and their
    positional encodings, each a (k, C, H, W) stack.

    Returns a tensor of the same (C, H, W) shape.  With k = 0 the input is
    returned unchanged (bitwise), which is also the behaviour of a
    capacity-0 memory.  Both layer norms use the unit affine.  Non-finite
    inputs, or scores that overflow, raise ValueError.
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

    # one layer norm over all entries' tokens; rows stay in entry order
    kv = layer_norm(_tokens(feats))
    kv += _tokens(mem_pes)
    if not np.isfinite(kv).all():
        raise ValueError("fusion keys and values have non-finite values")

    tokens = _tokens(e)
    q = layer_norm(tokens) + _tokens(pe)
    # the operands are C-ordered like a projection matmul's output, so BLAS
    # rounds as in the kernels' attention under the gains times the identity
    scores = np.multiply(q, KEY_GAIN, order="C") @ np.multiply(kv, KEY_GAIN, order="C").T
    scores /= math.sqrt(c)
    out = softmax(scores) @ np.multiply(kv, VALUE_GAIN, order="C")
    out *= OUT_GAIN
    tokens = tokens + out
    return tokens.reshape(h, w, c).transpose(2, 0, 1)
