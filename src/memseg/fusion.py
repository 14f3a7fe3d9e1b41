"""Memory attention: condition an image embedding on retrieved memory
features via pre-norm cross-attention over the spatial token grid.

Tokens are the H*W spatial positions with C channels.  Queries are
LN(E_new) + PE_new tokens; keys and values are the concatenation over
retrieved entries of LN(F_i) + PE_i tokens.  Positional encodings are
added (not concatenated) so the model dim stays C.  The output is the
residual sum E_new + CrossAttn(...); an empty retrieval list returns
E_new unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    AttentionParams,
    ShapeError,
    attention_params,
    layer_norm,
    multi_head_attention,
)


@dataclass
class FusionParams:
    """Cross-attention weights plus the two pre-norm affine pairs; model_dim
    must equal the channel count C of the feature shape."""

    attn: AttentionParams
    ln_q_gamma: np.ndarray
    ln_q_beta: np.ndarray
    ln_kv_gamma: np.ndarray
    ln_kv_beta: np.ndarray

    def __post_init__(self):
        c = self.attn.model_dim
        for name in ("ln_q_gamma", "ln_q_beta", "ln_kv_gamma", "ln_kv_beta"):
            v = getattr(self, name)
            if v.shape != (c,):
                raise ShapeError(f"{name} shape {tuple(v.shape)} != ({c},)")


def fusion_params(rng: np.random.Generator, channels: int, num_heads: int = 1,
                  scale: float | None = None) -> FusionParams:
    """Seeded-random fusion weights with unit layer-norm affines."""
    return FusionParams(
        attn=attention_params(rng, channels, num_heads, scale),
        ln_q_gamma=np.ones(channels),
        ln_q_beta=np.zeros(channels),
        ln_kv_gamma=np.ones(channels),
        ln_kv_beta=np.zeros(channels),
    )


def structured_fusion_params(channels: int, key_gain: float = 1.0,
                             value_gain: float = 1.0, out_gain: float = 1.0) -> FusionParams:
    """Analytic identity-based weights: queries/keys scaled by key_gain so
    positional agreement drives the attention pattern, values and output
    scaled so the retrieved content couples to the embedding with a
    predictable sign and magnitude."""
    eye = np.eye(channels)
    attn = AttentionParams(
        1, key_gain * eye, key_gain * eye, value_gain * eye, out_gain * eye
    )
    return FusionParams(
        attn=attn,
        ln_q_gamma=np.ones(channels),
        ln_q_beta=np.zeros(channels),
        ln_kv_gamma=np.ones(channels),
        ln_kv_beta=np.zeros(channels),
    )


def _tokens(t: np.ndarray) -> np.ndarray:
    # (..., C, H, W) -> (...*H*W, C)
    return t.transpose(*range(t.ndim - 3), -2, -1, -3).reshape(-1, t.shape[-3])


def fuse(
    embedding_new: np.ndarray,
    pe_new: np.ndarray,
    retrieved: list[tuple[np.ndarray, np.ndarray]],
    params: FusionParams,
) -> np.ndarray:
    """Condition embedding_new on retrieved (mask_feature, pe) pairs.

    Returns a tensor of the same (C, H, W) shape.  With an empty retrieved
    list the input is returned unchanged (bitwise), which is also the
    behaviour of a capacity-0 memory.
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
    if params.attn.model_dim != c:
        raise ShapeError(
            f"fusion model_dim {params.attn.model_dim} != channel count {c}"
        )
    if not retrieved:
        return e.copy()

    for feat, mem_pe in retrieved:
        if np.shape(feat) != e.shape or np.shape(mem_pe) != e.shape:
            raise ShapeError(
                f"retrieved entry shapes {np.shape(feat)}/{np.shape(mem_pe)}"
                f" do not match query shape {tuple(e.shape)}"
            )
    feats, mem_pes = (np.array(a, dtype=np.float64) for a in zip(*retrieved))
    # one layer norm over all entries' tokens; rows stay in entry order
    kv = layer_norm(_tokens(feats), params.ln_kv_gamma, params.ln_kv_beta)
    kv += _tokens(mem_pes)

    tokens = _tokens(e)
    q = layer_norm(tokens, params.ln_q_gamma, params.ln_q_beta) + _tokens(pe)
    tokens = tokens + multi_head_attention(q, kv, kv, params.attn)
    return tokens.reshape(h, w, c).transpose(2, 0, 1)
