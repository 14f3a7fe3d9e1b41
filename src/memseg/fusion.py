"""Memory attention: condition an image embedding on retrieved memory
features via pre-norm cross-attention over the spatial token grid.

Tokens are the H*W spatial positions with C channels.  Queries are
LN(E_new) + PE_new tokens; keys and values are the concatenation over
retrieved entries of LN(F_i) + PE_i tokens, which ``memory_tokens``
computes apart from ``fuse``; the memory base keeps each slot's tokens
until an insert writes that slot (``memory.tokens_of``).  Positional
encodings are added (not concatenated) so the model dim stays C.  The
output is the residual sum E_new + CrossAttn(...); an empty retrieval
(k = 0) returns E_new unchanged.  Slices of token-grid rows and columns
restrict the queries to that box: each query's scores and output are its
own one-row products over the keys, so the tokens computed equal the full
call's on any BLAS kernel, and the decoder, which reads only the prompt
box's tokens, sees the same bits.  Both sides normalise a C-ordered copy
of their tokens, so the output depends on the inputs' values only, never
on their memory layout.

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


def memory_tokens(features: np.ndarray, encodings: np.ndarray) -> np.ndarray:
    """Fusion's keys and values for k retrieved mask features and their
    positional encodings, each a (k, C, H, W) stack: the read-only,
    C-ordered (k, H*W, C) array of LN(F_i) + PE_i tokens, entry by entry
    in stack order and each entry's tokens in row-major grid order.

    One unit-affine ``layer_norm`` call normalises every token; it works
    row by row, so an entry's tokens have the same bits whatever it is
    stacked with, and so do the tokens of a stack built from several
    calls' results.  Non-finite values raise ValueError.
    """
    feats = np.asarray(features, dtype=np.float64)
    encs = np.asarray(encodings, dtype=np.float64)
    if feats.ndim != 4 or encs.shape != feats.shape:
        raise ShapeError(
            f"retrieved stacks {feats.shape}/{encs.shape} are not both (k, C, H, W)"
        )
    k, c, h, w = feats.shape
    tokens = layer_norm(feats.transpose(0, 2, 3, 1).reshape(-1, c))
    grid = tokens.reshape(k, h, w, c)
    grid += encs.transpose(0, 2, 3, 1)
    if not np.isfinite(tokens).all():
        raise ValueError("fusion keys and values have non-finite values")
    tokens.flags.writeable = False
    return tokens.reshape(k, h * w, c)


def fuse(
    embedding_new: np.ndarray,
    pe_new: np.ndarray,
    memory: np.ndarray,
    rows: slice = slice(None),
    cols: slice = slice(None),
) -> np.ndarray:
    """Condition embedding_new on the (k, H*W, C) tokens of k retrieved
    entries, as ``memory_tokens`` returns them.  It checks their shape only,
    so it trusts their order: each entry's tokens must be in the embedding
    grid's row-major order, and tokens of a grid with another (H, W) of the
    same H*W pass unnoticed.

    Returns a tensor of the same (C, H, W) shape.  Only the token-grid box
    of ``rows`` and ``cols``, each a non-empty slice of step 1, is
    conditioned; its tokens are layer-normed with the unit affine and get
    pe_new added, and the other tokens are embedding_new's values.  Keys
    and values always span every memory token.  A restricted call equals
    the full one bitwise on its box, one-token boxes included.  With k = 0
    the input is returned unchanged (bitwise), which is also the behaviour
    of a capacity-0 memory.
    Non-finite embeddings or encodings raise ValueError; so do non-finite
    memory tokens and overflowing scores, through the scores they make.
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
    mem = np.asarray(memory, dtype=np.float64, order="C")
    if mem.ndim != 3 or mem.shape[1:] != (h * w, c):
        raise ShapeError(f"memory tokens {mem.shape} are not (k, {h * w}, {c})")
    if not (np.isfinite(e).all() and np.isfinite(pe).all()):
        raise ValueError("fusion embedding or its encoding has non-finite values")
    if not len(mem):
        return e.copy()

    grid = e.transpose(1, 2, 0)
    box = (slice(r0, r1), slice(c0, c1))
    box_shape = (r1 - r0, c1 - c0, c)
    q = layer_norm(grid[box].reshape(-1, c))
    q_box = q.reshape(box_shape)
    q_box += pe.transpose(1, 2, 0)[box]
    kv = mem.reshape(-1, c)

    # each query token's scores and output are its own one-row products, so
    # a token's bits do not depend on which other tokens the box holds
    scores = ((q * KEY_GAIN)[:, None, :] @ (kv * KEY_GAIN).T)[:, 0]
    scores /= math.sqrt(c)
    out = (softmax(scores)[:, None, :] @ kv)[:, 0]
    out *= OUT_GAIN
    fused = np.array(grid, order="C")  # C-ordered, like the sum it replaces
    fused[box] += out.reshape(box_shape)
    return fused.transpose(2, 0, 1)
