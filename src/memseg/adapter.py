"""Temporal-adapter transformer block.

One block maps (B, H, W, C) -> (B, H, W, C):

    x_out = x + adapter(MHA(LN(x)))     spatial attention per frame
    y     = x_out + MLP(LN(x_out))      residual MLP

where the adapter is a bottleneck with a depth-axis convolution:

    adapter(t) = t + W_up(GELU(Conv3D(W_down * LN(t))))

The convolution's (KD, r, r) kernel holds one r x r tap per depth offset,
so it mixes only the B (volumetric/temporal) axis; spatial mixing is the
attention's job.  The backward pass is written by hand through every
kernel and is verified by ``grad_check`` against complex-step derivatives
of the same forward run in complex128.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .kernels import (
    AttentionParams,
    ShapeError,
    _float,
    attention_params,
    conv3d,
    conv3d_vjp,
    gelu,
    gelu_grad,
    layer_norm,
    layer_norm_vjp,
    linear_vjp,
    multi_head_attention,
    multi_head_attention_vjp,
)


@dataclass
class AdapterParams:
    """Bottleneck weights: LN affine, down-projection (C, r), temporal conv
    kernel (kd, r, r) with odd kd, up-projection (r, C)."""

    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    w_down: np.ndarray
    conv_kernel: np.ndarray
    w_up: np.ndarray

    def __post_init__(self):
        c, r = self.w_down.shape
        if r >= c:
            raise ValueError(f"bottleneck r={r} must be smaller than channels C={c}")
        if self.w_up.shape != (r, c):
            raise ShapeError(
                f"w_up shape {tuple(self.w_up.shape)} != ({r}, {c})"
            )
        if self.ln_gamma.shape != (c,) or self.ln_beta.shape != (c,):
            raise ShapeError("adapter LN affine must have length C")
        k = self.conv_kernel
        if k.ndim != 3 or k.shape[1:] != (r, r) or k.shape[0] % 2 == 0:
            raise ShapeError(
                f"conv_kernel shape {tuple(k.shape)} is not (odd kd, {r}, {r})"
            )

    @property
    def channels(self) -> int:
        return self.w_down.shape[0]


@dataclass
class MlpParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        c, hidden = self.w1.shape
        if self.w2.shape != (hidden, c):
            raise ShapeError(
                f"mlp w2 shape {tuple(self.w2.shape)} != ({hidden}, {c})"
            )
        if self.b1.shape != (hidden,) or self.b2.shape != (c,):
            raise ShapeError("mlp bias shapes inconsistent")


@dataclass
class BlockParams:
    """All weights of one block; channel count must be consistent across the
    two LN affines, the attention, the adapter, and the MLP."""

    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    attn: AttentionParams
    adapter: AdapterParams
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    mlp: MlpParams

    def __post_init__(self):
        c = self.attn.model_dim
        if self.adapter.channels != c or self.mlp.w1.shape[0] != c:
            raise ShapeError(
                f"channel mismatch: attn {c}, adapter {self.adapter.channels},"
                f" mlp {self.mlp.w1.shape[0]}"
            )
        for name in ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta"):
            if getattr(self, name).shape != (c,):
                raise ShapeError(f"{name} must have length {c}")

    @property
    def channels(self) -> int:
        return self.attn.model_dim


KD = 3  # temporal extent of the seeded adapter's conv kernel
SCALE = 0.5  # the seeded weights' standard deviation times sqrt(fan-in)


def adapter_params(rng: np.random.Generator, channels: int, bottleneck: int) -> AdapterParams:
    """Seeded-random adapter weights with r = ``bottleneck`` hidden channels."""
    r = bottleneck
    return AdapterParams(
        ln_gamma=np.ones(channels),
        ln_beta=np.zeros(channels),
        w_down=rng.normal(0.0, SCALE / np.sqrt(channels), (channels, r)),
        conv_kernel=rng.normal(0.0, SCALE / np.sqrt(r * KD), (KD, r, r)),
        w_up=rng.normal(0.0, SCALE / np.sqrt(r), (r, channels)),
    )


def mlp_params(rng: np.random.Generator, channels: int) -> MlpParams:
    """Seeded-random MLP weights with 4C hidden units."""
    hidden = 4 * channels
    return MlpParams(
        w1=rng.normal(0.0, SCALE / np.sqrt(channels), (channels, hidden)),
        b1=np.zeros(hidden),
        w2=rng.normal(0.0, SCALE / np.sqrt(hidden), (hidden, channels)),
        b2=np.zeros(channels),
    )


def block_params(
    rng: np.random.Generator,
    channels: int,
    bottleneck: int,
    num_heads: int = 2,
) -> BlockParams:
    """Seeded-random block weights for tests and the pipeline encoder."""
    return BlockParams(
        ln1_gamma=np.ones(channels),
        ln1_beta=np.zeros(channels),
        attn=attention_params(rng, channels, num_heads, SCALE / np.sqrt(channels)),
        adapter=adapter_params(rng, channels, bottleneck),
        ln2_gamma=np.ones(channels),
        ln2_beta=np.zeros(channels),
        mlp=mlp_params(rng, channels),
    )


# ---------------------------------------------------------------------------
# forward


def _as_input(x, channels: int) -> np.ndarray:
    x = _float(x)
    if x.ndim != 4 or x.shape[-1] != channels:
        raise ShapeError(
            f"expected input (B, H, W, C={channels}), got {tuple(x.shape)}"
        )
    return x


def _adapter_cache(x_attn: np.ndarray, p: AdapterParams) -> dict[str, np.ndarray]:
    # the bottleneck's intermediates; "branch" is x_attn + W_up(GELU(conv))
    ha = layer_norm(x_attn, p.ln_gamma, p.ln_beta)
    down = ha @ p.w_down
    conv = conv3d(down, p.conv_kernel)
    s = gelu(conv)
    return {"ha": ha, "down": down, "conv": conv, "s": s, "branch": x_attn + s @ p.w_up}


def _store(cache: dict[str, np.ndarray], index, **values: np.ndarray) -> None:
    # a stage's outputs: whole arrays, or, given an ``index``, one part of
    # each written into a copy of the cached array
    for key, value in values.items():
        if index is not None:
            value, part = cache[key].copy(), value
            value[index] = part
        cache[key] = value


def _attention_stage(cache: dict[str, np.ndarray], p: BlockParams, frame=None) -> None:
    # ln1 and spatial attention over the H*W token grid, independently per
    # frame b, so a given ``frame`` is recomputed alone
    frames = slice(None) if frame is None else slice(frame, frame + 1)
    x = cache["x"][frames]
    _, hh, ww, c = x.shape
    tokens = layer_norm(x, p.ln1_gamma, p.ln1_beta).reshape(-1, hh * ww, c)
    x_attn = multi_head_attention(tokens, tokens, tokens, p.attn).reshape(x.shape)
    _store(cache, None if frame is None else frames, tokens=tokens, x_attn=x_attn)


def _adapter_stage(cache: dict[str, np.ndarray], p: BlockParams, part=None) -> None:
    cache.update(_adapter_cache(cache["x_attn"], p.adapter))
    cache["x_out"] = cache["x"] + cache["branch"]


def _hidden_stage(cache: dict[str, np.ndarray], p: BlockParams, unit=None) -> None:
    # ln2 and the MLP's hidden layer, whose units are independent: a given
    # ``unit`` recomputes its column of m1 and z from the cached h2.  The
    # column is cut from the whole product, because BLAS rounds a
    # one-column product differently
    if unit is None:
        cache["h2"] = layer_norm(cache["x_out"], p.ln2_gamma, p.ln2_beta)
    units = slice(None) if unit is None else slice(unit, unit + 1)
    m1 = (cache["h2"] @ p.mlp.w1)[..., units] + p.mlp.b1[units]
    _store(cache, None if unit is None else (..., units), m1=m1, z=gelu(m1))


def _output_stage(cache: dict[str, np.ndarray], p: BlockParams, part=None) -> None:
    cache["y"] = cache["x_out"] + cache["z"] @ p.mlp.w2 + p.mlp.b2


# The block's forward stages in order.  Each maps what it reads -- the
# input "x", a parameter group (the front of block_param_arrays' names) or
# a full name -- to the axis of that array along which the stage's outputs
# separate, if any: an element of x in frame b changes only frame b of the
# attention, and one of mlp.w1[:, j] or mlp.b1[j] only hidden unit j.  The
# axis matters only for what the stage reads first.
_STAGES = (
    (_attention_stage, {"x": 0, "ln1": None, "attn": None}),
    (_adapter_stage, {"x": None, "adapter": None}),
    (_hidden_stage, {"ln2": None, "mlp.w1": 1, "mlp.b1": 0}),
    (_output_stage, {"mlp.w2": None, "mlp.b2": None}),
)


def _forward(
    x,
    p: BlockParams,
    prefix: dict[str, np.ndarray] | None = None,
    start: int = 0,
    part: int | None = None,
) -> dict[str, np.ndarray]:
    # the block's forward, keeping every intermediate the backward needs;
    # "y" is the output.  Given ``prefix``, the cache of an earlier forward
    # whose inputs differ only in what stage ``start`` reads first, it
    # reruns only the stages from ``start`` on a copy of it, the first of
    # them only at index ``part`` of its separating axis if one is given.
    # An ``x`` given with a prefix replaces the cached input.
    cache = {} if prefix is None else dict(prefix)
    if x is not None:
        cache["x"] = _as_input(x, p.channels)
    for i, (stage, _) in enumerate(_STAGES[start:]):
        stage(cache, p, part if i == 0 else None)
    return cache


def block_forward(x, p: BlockParams) -> np.ndarray:
    """Run one block.  The output keeps a floating or complex input's
    dtype; other inputs run in float64."""
    return _forward(x, p)["y"]


# ---------------------------------------------------------------------------
# backward


def block_param_arrays(p: BlockParams) -> dict[str, np.ndarray]:
    """Name -> array views of every learnable tensor in the block.  After
    "x", these names in this order key block_backward's gradients and
    grad_check's report rows."""
    return {
        "ln1.gamma": p.ln1_gamma,
        "ln1.beta": p.ln1_beta,
        "attn.w_q": p.attn.w_q,
        "attn.w_k": p.attn.w_k,
        "attn.w_v": p.attn.w_v,
        "attn.w_o": p.attn.w_o,
        "adapter.ln.gamma": p.adapter.ln_gamma,
        "adapter.ln.beta": p.adapter.ln_beta,
        "adapter.w_down": p.adapter.w_down,
        "adapter.conv_kernel": p.adapter.conv_kernel,
        "adapter.w_up": p.adapter.w_up,
        "ln2.gamma": p.ln2_gamma,
        "ln2.beta": p.ln2_beta,
        "mlp.w1": p.mlp.w1,
        "mlp.b1": p.mlp.b1,
        "mlp.w2": p.mlp.w2,
        "mlp.b2": p.mlp.b2,
    }


def block_backward(x, p: BlockParams, upstream_grad) -> dict[str, np.ndarray]:
    """Analytic gradients of the block w.r.t. the input ("x") and every
    parameter (keys of block_param_arrays, in its order), by chain rule."""
    f = _forward(np.asarray(x, dtype=np.float64), p)
    x = f["x"]
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != x.shape:
        raise ShapeError(f"upstream gradient shape {g.shape} != input {x.shape}")
    d = dict.fromkeys(["x", *block_param_arrays(p)])

    # MLP branch
    dz, d["mlp.w2"], d["mlp.b2"] = linear_vjp(g, f["z"], p.mlp.w2)
    dm1 = dz * gelu_grad(f["m1"])
    dh2, d["mlp.w1"], d["mlp.b1"] = linear_vjp(dm1, f["h2"], p.mlp.w1)
    dx_out_ln, d["ln2.gamma"], d["ln2.beta"] = layer_norm_vjp(
        dh2, f["x_out"], p.ln2_gamma, p.ln2_beta
    )
    dx_out = g + dx_out_ln

    # adapter branch
    ds, d["adapter.w_up"], _ = linear_vjp(dx_out, f["s"], p.adapter.w_up)
    dconv = ds * gelu_grad(f["conv"])
    ddown, d["adapter.conv_kernel"] = conv3d_vjp(dconv, f["down"], p.adapter.conv_kernel)
    dha, d["adapter.w_down"], _ = linear_vjp(ddown, f["ha"], p.adapter.w_down)
    dx_attn_ln, d["adapter.ln.gamma"], d["adapter.ln.beta"] = layer_norm_vjp(
        dha, f["x_attn"], p.adapter.ln_gamma, p.adapter.ln_beta
    )
    dx_attn = dx_out + dx_attn_ln

    # spatial self-attention over each frame's tokens
    dh1, d["attn.w_q"], d["attn.w_k"], d["attn.w_v"], d["attn.w_o"] = (
        multi_head_attention_vjp(dx_attn.reshape(f["tokens"].shape), f["tokens"], p.attn)
    )
    dx_ln, d["ln1.gamma"], d["ln1.beta"] = layer_norm_vjp(
        dh1.reshape(x.shape), x, p.ln1_gamma, p.ln1_beta
    )
    d["x"] = dx_out + dx_ln
    return d


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckRow:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    rows: list[GradCheckRow]

    def failing(self) -> list[str]:
        return [r.name for r in self.rows if not r.passed]


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _complex(obj):
    # a complex128 copy of an array, or of a params dataclass with every
    # array in it copied; C order, so ravel() of a copy is a view
    if isinstance(obj, np.ndarray):
        return obj.astype(np.complex128, order="C")
    if is_dataclass(obj):
        return replace(obj, **{f.name: _complex(getattr(obj, f.name)) for f in fields(obj)})
    return obj


def _complex_step(forward, arr: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Complex-step gradient of sum(forward(i) * g) w.r.t. the complex copy
    arr, where ``forward(i)`` is the block output with flat element i of
    arr stepped by i*h.

    The forward is analytic, so Im f(x + ih) / h is f'(x) up to O(h^2):
    one forward per element, and with no difference of nearly equal
    outputs there is no cancellation error to balance against that
    truncation (Squire & Trapp, SIAM Review 1998; Martins et al., ACM TOMS
    2003).
    """
    grad = np.zeros(arr.shape)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + 1j * h
        gflat[i] = (forward(i).imag * g).sum() / h
        flat[i] = orig
    return grad


def _first_stage(name: str) -> tuple[int, int | None]:
    """The first forward stage that reads a grad_check target, found by its
    full name or the group at its front, and the target's axis along which
    that stage separates (None if it does not)."""
    group = name.partition(".")[0]
    for i, (_, reads) in enumerate(_STAGES):
        for key in (name, group):
            if key in reads:
                return i, reads[key]
    raise KeyError(name)


_UPSTREAM_SEED = 0x6D5E6  # grad_check's upstream draws; its own SeedSequence


def grad_check(
    p: BlockParams,
    x,
    h: float = 1e-20,
    tol: float = 1e-9,
    mutate: str | None = None,
) -> GradCheckReport:
    """Compare block_backward against complex-step derivatives of the
    output's inner product with a random upstream gradient, elementwise, for
    the input and every parameter.

    The upstream ``g`` is a standard normal draw from its own seed
    (``_UPSTREAM_SEED``), the same for every call of a given shape: a
    uniform upstream would pass a backward that adds 1 where it should add
    ``g``.  The forward runs on complex128 copies of x and of the
    parameters, and each element is stepped by i*h in place
    (``_complex_step``), rerunning the forward only where it reaches, from
    one cache of the unperturbed complex forward.  By stage (``_STAGES``):
    x, ln1.* and attn.* start at ln1, adapter.* at the adapter, ln2.*,
    mlp.w1 and mlp.b1 at ln2 and mlp.w2 and mlp.b2 at the output
    projection.  Within the first stage: an element of x in frame b reruns
    ln1 and attention for frame b alone, and one of mlp.w1[:, j] or
    mlp.b1[j] recomputes hidden unit j's bias and GELU alone; later stages
    run whole.  No stage reads a parameter of a later one, attention never
    mixes frames and hidden units never mix before the output projection,
    so the skipped work would recompute exactly the cached values and
    every derivative is what full forwards give, bit for bit.

    The step ``i*h`` lands in the imaginary part alone, so unlike a real
    step ``h`` may lie below an element's float64 spacing; at the default
    1e-20 the O(h^2) truncation error is far below round-off.  ``mutate``
    names a gradient to scale by 1.1 before comparison, as a sentinel that
    the check actually detects wrong gradients.
    """
    if not (0 < h < np.inf and 0 < tol < np.inf):
        raise ValueError(f"h and tol must be finite and positive, got {h} and {tol}")
    x = np.array(x, dtype=np.float64)
    g = np.random.default_rng(_UPSTREAM_SEED).standard_normal(x.shape)
    analytic = block_backward(x, p, g)
    if mutate is not None:
        if mutate not in analytic:
            raise ValueError(
                f"unknown gradient name {mutate!r}, expected one of {', '.join(analytic)}"
            )
        analytic[mutate] = analytic[mutate] * 1.1

    xc, pc = _complex(x), _complex(p)
    prefix = _forward(xc, pc)
    rows = []
    for name, arr in {"x": xc, **block_param_arrays(pc)}.items():
        start, axis = _first_stage(name)
        if axis is None:
            parts = [None] * arr.size
        else:  # each flat element's frame or hidden unit
            parts = np.indices(arr.shape)[axis].ravel().tolist()
        new_x = xc if name == "x" else None  # the stepped input replaces the cached one
        forward = lambda i: _forward(new_x, pc, prefix, start, parts[i])["y"]
        cs = _complex_step(forward, arr, g, h)
        err = _rel_err(analytic[name], cs)
        rows.append(GradCheckRow(name=name, max_rel_err=err, passed=err <= tol))
    worst = max(r.max_rel_err for r in rows)
    return GradCheckReport(passed=all(r.passed for r in rows), max_rel_err=worst, rows=rows)
