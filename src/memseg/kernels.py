"""Dense numeric kernels: normalization, projections, a depth-axis
convolution, attention and activations.

Tensors are arrays with explicit shapes.  Layout rule: ``layer_norm`` and
``softmax`` reduce along the last axis of a C-ordered copy of their input
(no copy for C-ordered input), because a sum along a strided axis adds in
a different order from one along a contiguous axis; so their bits depend
on the input's values only, never on its memory layout.  Forward kernels keep
a floating or complex input's dtype (float64 in production, complex128 in
the gradient check's complex step) and cast other inputs to float64; the
``*_vjp`` companions and ``gelu_grad`` cast nothing: they take the float64
arrays the hand-written block backward passes.  The forward kernels the
block runs are analytic -- layer norm squares with ``xc * xc``, softmax is
invariant to its shift and GELU is a ``tanh`` -- so on complex input they
carry a directional derivative in the imaginary part; an ``abs`` or a
``maximum`` would break that.  Every exported operation is pure and
deterministic: identical inputs give identical bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes do not conform to an operation's contract."""


def _float(x) -> np.ndarray:
    a = np.asarray(x)
    return a if a.dtype.kind in "fc" else a.astype(np.float64)


def _arr(x, name: str) -> np.ndarray:
    a = _float(x)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


def _into(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    # ``a`` as the output of an elementwise ufunc on (a, b) when that keeps
    # the result dtype: layer_norm's affine works in place on float64 and on
    # the complex step's complex128, and a float64 a with a complex128 b
    # gets a new array instead of a casting error
    return a if np.result_type(a, b) == a.dtype else None


@dataclass(frozen=True)
class AttentionParams:
    """Weights of one multi-head attention: four square model_dim projections
    split evenly across ``num_heads``."""

    num_heads: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self):
        if self.num_heads < 1:
            raise ValueError(f"num_heads must be positive, got {self.num_heads}")
        d = self.w_q.shape[0] if self.w_q.ndim == 2 else -1
        for name in ("w_q", "w_k", "w_v", "w_o"):
            w = getattr(self, name)
            if w.ndim != 2 or w.shape != (d, d):
                raise ShapeError(
                    f"{name} must be square ({d}, {d}), got {tuple(w.shape)}"
                )
        if d % self.num_heads != 0:
            raise ShapeError(
                f"model_dim {d} not divisible by num_heads {self.num_heads}"
            )

    @property
    def model_dim(self) -> int:
        return self.w_q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


def attention_params(
    rng: np.random.Generator, model_dim: int, num_heads: int, scale: float | None = None
) -> AttentionParams:
    """Seeded-random attention weights; scale defaults to 1/sqrt(model_dim)."""
    if scale is None:
        scale = 1.0 / math.sqrt(model_dim)
    mats = [rng.normal(0.0, scale, (model_dim, model_dim)) for _ in range(4)]
    return AttentionParams(num_heads, *mats)


# ---------------------------------------------------------------------------
# normalization


def layer_norm(x, gamma=None, beta=None, eps: float = 1e-6) -> np.ndarray:
    """Normalize over the last axis to zero mean / unit variance, then apply
    the affine (gamma, beta); without them the unit affine, an exact no-op,
    is skipped."""
    x = np.asarray(_arr(x, "x"), order="C")  # reduce along a contiguous axis
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    d = x.shape[-1]
    affine = gamma is not None or beta is not None
    if affine:
        gamma, beta = _arr(gamma, "gamma"), _arr(beta, "beta")
        if gamma.shape != (d,) or beta.shape != (d,):
            raise ShapeError(
                f"gamma/beta shapes {tuple(gamma.shape)}/{tuple(beta.shape)} do not"
                f" match last axis of x {tuple(x.shape)}"
            )
    # add.reduce / d is mean's arithmetic; each temporary is reused in place
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= d
    var += eps
    xc /= np.sqrt(var, out=var)
    if not affine:
        return xc
    out = np.multiply(xc, gamma, out=_into(xc, gamma))
    return np.add(out, beta, out=_into(out, beta))


def layer_norm_vjp(g, x, gamma, beta, eps: float = 1e-6):
    """Gradients of layer_norm w.r.t. (x, gamma, beta) given upstream g."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    lead = tuple(range(x.ndim - 1))
    dgamma = (g * xhat).sum(axis=lead)
    dbeta = g.sum(axis=lead)
    dxhat = g * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# linear / conv


def linear_vjp(g, x, w):
    """Gradients of y = x @ w + b over the last axis of x w.r.t. (x, w, b)."""
    dx = g @ w.T
    gf = g.reshape(-1, g.shape[-1])
    xf = x.reshape(-1, x.shape[-1])
    dw = xf.T @ gf
    db = gf.sum(axis=0)
    return dx, dw, db


def conv3d(x, kernel) -> np.ndarray:
    """Convolution along the depth axis with symmetric zero "same" padding
    and stride 1: a 3D convolution whose kernel spans one row and column.

    Args:
        x: input volume, shape (D, H, W, Cin).
        kernel: depth taps, shape (kd, Cin, Cout); kd must be odd.

    Returns:
        Output volume of shape (D, H, W, Cout).
    """
    x, kernel = _arr(x, "x"), _arr(kernel, "kernel")
    if x.ndim != 4 or kernel.ndim != 3:
        raise ShapeError(
            f"expected x (D,H,W,Cin) and kernel (kd,Cin,Cout), got"
            f" {tuple(x.shape)} and {tuple(kernel.shape)}"
        )
    kd, cin, cout = kernel.shape
    if kd % 2 == 0:
        raise ShapeError(f"kernel depth extent must be odd, got {kd}")
    if x.shape[3] != cin:
        raise ShapeError(
            f"channel mismatch: x has Cin={x.shape[3]}, kernel expects {cin}"
        )
    # each tap adds into the output slices whose shifted input slice is in
    # range; the zero slices padding would read add nothing
    d = x.shape[0]
    out = np.zeros(x.shape[:3] + (cout,), dtype=np.result_type(x, kernel))
    for i in range(kd):
        offset = i - kd // 2
        lo = max(0, -offset)
        hi = max(lo, min(d, d - offset))
        out[lo:hi] += x[lo + offset : hi + offset] @ kernel[i]
    return out


def conv3d_vjp(g, x, kernel):
    """Gradients of conv3d w.r.t. (x, kernel)."""
    kd, d = kernel.shape[0], x.shape[0]
    pd = kd // 2
    xp = np.pad(x, ((pd, pd), (0, 0), (0, 0), (0, 0)))
    dxp = np.zeros_like(xp)
    dkernel = np.zeros_like(kernel)
    for i in range(kd):
        dxp[i : i + d] += g @ kernel[i].T
        dkernel[i] = np.tensordot(xp[i : i + d], g, axes=([0, 1, 2], [0, 1, 2]))
    return dxp[pd : pd + d], dkernel


# ---------------------------------------------------------------------------
# activations / softmax


def softmax(x) -> np.ndarray:
    """Numerically stable softmax (max-subtracted) along the last axis."""
    x = np.asarray(_arr(x, "x"), order="C")  # reduce along a contiguous axis
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_vjp(g, y) -> np.ndarray:
    """Gradient of softmax given its output y and upstream g."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def sigmoid(x) -> np.ndarray:
    """Exact logistic sigmoid, overflow-safe on both tails."""
    x = _float(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x) -> np.ndarray:
    """GELU with the tanh approximation,
    ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3)))``, evaluated in that
    operation and operand order on one temporary beside the result."""
    x = _float(x)
    t = np.multiply(x, x, out=np.empty_like(x))  # an array even for 0-d x
    t *= x
    np.multiply(0.044715, t, out=t)
    np.add(x, t, out=t)
    np.multiply(_GELU_C, t, out=t)
    np.tanh(t, out=t)
    np.add(1.0, t, out=t)
    out = 0.5 * x
    out *= t
    return out


def gelu_grad(x) -> np.ndarray:
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner


# ---------------------------------------------------------------------------
# attention


def _split_heads(x, num_heads: int):
    b, t, d = x.shape
    return x.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, nh, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * hd)


def _attn_check(q, k, v, params: AttentionParams):
    d = params.model_dim
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError("q, k, v must have at least (seq, model_dim) axes")
    if q.shape[-1] != d or k.shape[-1] != d or v.shape[-1] != d:
        raise ShapeError(
            f"last axis must equal model_dim {d}: q {tuple(q.shape)},"
            f" k {tuple(k.shape)}, v {tuple(v.shape)}"
        )
    if k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(
            f"k and v sequences disagree: {tuple(k.shape)} vs {tuple(v.shape)}"
        )
    if q.shape[:-2] != k.shape[:-2]:
        raise ShapeError(
            f"leading dims disagree: q {tuple(q.shape)} vs k {tuple(k.shape)}"
        )


def _attention_weights(q, k, v, params: AttentionParams):
    # q, k and v of shape (batch, seq, model_dim), projected and split into
    # heads, and the softmaxed scores: the arithmetic the forward and the
    # backward share
    qh, kh, vh = (
        _split_heads(a @ w, params.num_heads)
        for a, w in ((q, params.w_q), (k, params.w_k), (v, params.w_v))
    )
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores /= math.sqrt(params.head_dim)
    return qh, kh, vh, softmax(scores)


def multi_head_attention(q, k, v, params: AttentionParams) -> np.ndarray:
    """Scaled dot-product attention; output has the shape of q.

    Accepts arbitrary leading batch axes as long as they match between q and
    k/v; the last two axes are (sequence, model_dim).
    """
    q, k, v = _arr(q, "q"), _arr(k, "k"), _arr(v, "v")
    _attn_check(q, k, v, params)
    lead, (tq, d) = q.shape[:-2], q.shape[-2:]
    flat = (a.reshape(-1, a.shape[-2], d) for a in (q, k, v))
    _, _, vh, attn = _attention_weights(*flat, params)
    out = _merge_heads(attn @ vh) @ params.w_o
    return out.reshape(lead + (tq, d))


def multi_head_attention_vjp(g, x, params: AttentionParams):
    """Gradients of self-attention, multi_head_attention(x, x, x), w.r.t.
    (x, w_q, w_k, w_v, w_o); x's gradient sums its query, key and value
    paths."""
    d = params.model_dim
    xf = x.reshape(-1, x.shape[-2], d)
    gf = g.reshape(-1, g.shape[-2], d)
    qh, kh, vh, attn = _attention_weights(xf, xf, xf, params)
    merged = _merge_heads(attn @ vh)

    d_merged = gf @ params.w_o.T
    dw_o = np.einsum("btd,bte->de", merged, gf)
    d_oh = _split_heads(d_merged, params.num_heads)
    d_attn = d_oh @ vh.transpose(0, 1, 3, 2)
    d_vh = attn.transpose(0, 1, 3, 2) @ d_oh
    d_scores = softmax_vjp(d_attn, attn)
    d_scores /= math.sqrt(params.head_dim)
    d_qh = d_scores @ kh
    d_kh = d_scores.transpose(0, 1, 3, 2) @ qh

    d_qp, d_kp, d_vp = _merge_heads(d_qh), _merge_heads(d_kh), _merge_heads(d_vh)
    dx = d_qp @ params.w_q.T + d_kp @ params.w_k.T + d_vp @ params.w_v.T
    dw_q, dw_k, dw_v = (np.einsum("btd,bte->de", xf, a) for a in (d_qp, d_kp, d_vp))
    return dx.reshape(x.shape), dw_q, dw_k, dw_v, dw_o
