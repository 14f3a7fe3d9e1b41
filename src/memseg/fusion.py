"""Memory attention: condition an image embedding on retrieved memory
features via pre-norm cross-attention over the spatial token grid.

Tokens are the H*W spatial positions with C channels.  Queries are
LN(E_new) + PE_new tokens; keys and values are the concatenation over
retrieved entries of LN(F_i) + PE_i tokens.  Positional encodings are
added (not concatenated) so the model dim stays C.  The output is the
residual sum E_new + CrossAttn(...); an empty retrieval (k = 0) returns
E_new unchanged.

Params with one head and every projection a gain times the identity, as
structured_fusion_params' are, take a scalar path: each identity matmul is
an exact scalar multiply, so the path skips them (and a unit value gain)
and gives the same bits as the general multi-head attention.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    AttentionParams,
    ShapeError,
    layer_norm,
    multi_head_attention,
    softmax,
)


# the gains of structured_fusion_params: queries/keys, values, output
KEY_GAIN, VALUE_GAIN, OUT_GAIN = 1.5, 1.0, 1.5


def structured_fusion_params(channels: int) -> AttentionParams:
    """Analytic identity-based weights: queries/keys scaled by KEY_GAIN so
    positional agreement drives the attention pattern, values and output
    scaled by VALUE_GAIN and OUT_GAIN so the retrieved content couples to
    the embedding with a predictable sign and magnitude."""
    eye = np.eye(channels)
    return AttentionParams(1, KEY_GAIN * eye, KEY_GAIN * eye, VALUE_GAIN * eye, OUT_GAIN * eye)


def _tokens(t: np.ndarray) -> np.ndarray:
    # (..., C, H, W) -> (...*H*W, C)
    return t.transpose(*range(t.ndim - 3), -2, -1, -3).reshape(-1, t.shape[-3])


def _scaled_identity_attention(q, kv, gains) -> np.ndarray:
    """multi_head_attention(q, kv, kv) for one head whose projections are
    gains[i] times the identity.  The operands are C-ordered like the
    general path's matmul outputs, so BLAS rounds both paths alike."""
    if not (np.isfinite(q).all() and np.isfinite(kv).all()):
        raise ValueError("fusion queries or keys contain non-finite values")
    g_q, g_k, g_v, g_o = gains
    scores = np.multiply(q, g_q, order="C") @ np.multiply(kv, g_k, order="C").T
    scores /= math.sqrt(q.shape[-1])
    values = np.ascontiguousarray(kv) if g_v == 1.0 else np.multiply(kv, g_v, order="C")
    out = softmax(scores) @ values
    out *= g_o
    return out


def fuse(
    embedding_new: np.ndarray,
    pe_new: np.ndarray,
    features: np.ndarray,
    encodings: np.ndarray,
    attn: AttentionParams,
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
    if attn.model_dim != c:
        raise ShapeError(f"fusion model_dim {attn.model_dim} != channel count {c}")
    feats = np.asarray(features, dtype=np.float64)
    mem_pes = np.asarray(encodings, dtype=np.float64)
    if feats.shape[1:] != e.shape or mem_pes.shape != feats.shape:
        raise ShapeError(
            f"retrieved stacks {feats.shape}/{mem_pes.shape} are not both"
            f" (k, {c}, {h}, {w})"
        )
    if not len(feats):
        return e.copy()

    # one layer norm over all entries' tokens; rows stay in entry order
    kv = layer_norm(_tokens(feats))
    kv += _tokens(mem_pes)

    tokens = _tokens(e)
    q = layer_norm(tokens) + _tokens(pe)
    gains = attn.identity_gains
    if gains is None:
        tokens = tokens + multi_head_attention(q, kv, kv, attn)
    else:
        tokens = tokens + _scaled_identity_attention(q, kv, gains)
    return tokens.reshape(h, w, c).transpose(2, 0, 1)
