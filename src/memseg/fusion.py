"""Memory attention: condition an image embedding on retrieved memory
features via pre-norm cross-attention over the spatial token grid.

Tokens are the H*W spatial positions with C channels.  Queries are
LN(E_new) + PE_new tokens; keys and values are the concatenation over
retrieved entries of LN(F_i) + PE_i tokens.  Positional encodings are
added (not concatenated) so the model dim stays C.  The output is the
residual sum E_new + CrossAttn(...); an empty retrieval (k = 0) returns
E_new unchanged.
"""

from __future__ import annotations

import numpy as np

from .kernels import AttentionParams, ShapeError, layer_norm, multi_head_attention


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
    capacity-0 memory.  Both layer norms use the unit affine.
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

    ones, zeros = np.ones(c), np.zeros(c)
    # one layer norm over all entries' tokens; rows stay in entry order
    kv = layer_norm(_tokens(feats), ones, zeros)
    kv += _tokens(mem_pes)

    tokens = _tokens(e)
    q = layer_norm(tokens, ones, zeros) + _tokens(pe)
    tokens = tokens + multi_head_attention(q, kv, kv, attn)
    return tokens.reshape(h, w, c).transpose(2, 0, 1)
