"""Unit and property tests for the numeric kernels."""

import math

import numpy as np
import pytest
from finite_diff import finite_diff_grad

from memseg.kernels import (
    AttentionParams,
    ShapeError,
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
    sigmoid,
    softmax,
    softmax_vjp,
)


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row_is_zero():
    x = np.full((3, 4), 2.5)
    out = layer_norm(x, np.ones(4), np.zeros(4), eps=1e-6)
    assert np.allclose(out, 0.0)


def test_layer_norm_two_point_row():
    # mean 0, population std 1 -> values pass through
    out = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2), eps=1e-12)
    assert np.allclose(out, [1.0, -1.0], atol=1e-9)


def test_layer_norm_zero_gain_passes_bias():
    out = layer_norm(np.array([3.0, 5.0]), np.zeros(2), np.array([7.0, 7.0]))
    assert np.array_equal(out, [7.0, 7.0])


def test_layer_norm_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError) as exc:
        layer_norm(np.zeros((2, 3)), np.ones(4), np.zeros(4))
    assert "(4,)" in str(exc.value) and "(2, 3)" in str(exc.value)


def test_layer_norm_without_affine_equals_unit_affine_bitwise():
    rng = np.random.default_rng(8)
    # a C-ordered batch and the Fortran-ordered token view fuse normalizes
    for x in (rng.normal(3.0, 5.0, (6, 16)), rng.normal(size=(16, 64)).T):
        unit = layer_norm(x, np.ones(16), np.zeros(16))
        assert np.array_equal(layer_norm(x), unit)
    with pytest.raises(ValueError):
        layer_norm(np.array([1.0, np.nan]))


def test_layer_norm_normalizes_before_affine():
    rng = np.random.default_rng(7)
    x = rng.normal(3.0, 5.0, (6, 16))
    out = layer_norm(x, np.ones(16), np.zeros(16), eps=1e-12)
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-9)


def test_layer_norm_vjp_matches_finite_diff():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 5))
    gamma, beta = rng.normal(size=5), rng.normal(size=5)
    g = rng.normal(size=(2, 5))
    dx, dgamma, dbeta = layer_norm_vjp(g, x, gamma, beta, eps=1e-6)
    fd_x = finite_diff_grad(lambda t: float((layer_norm(t, gamma, beta) * g).sum()), x)
    fd_g = finite_diff_grad(lambda t: float((layer_norm(x, t, beta) * g).sum()), gamma)
    fd_b = finite_diff_grad(lambda t: float((layer_norm(x, gamma, t) * g).sum()), beta)
    assert np.allclose(dx, fd_x, atol=1e-7)
    assert np.allclose(dgamma, fd_g, atol=1e-7)
    assert np.allclose(dbeta, fd_b, atol=1e-7)


# ---------------------------------------------------------------------------
# linear


def test_linear_vjp_matches_finite_diff():
    rng = np.random.default_rng(3)
    x, w = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    g = rng.normal(size=(4, 2))
    dx, dw, db = linear_vjp(g, x, w)
    fd_x = finite_diff_grad(lambda t: float(((t @ w) * g).sum()), x)
    fd_w = finite_diff_grad(lambda t: float(((x @ t) * g).sum()), w)
    assert np.allclose(dx, fd_x, atol=1e-7)
    assert np.allclose(dw, fd_w, atol=1e-7)
    assert np.allclose(db, g.sum(axis=0))


# ---------------------------------------------------------------------------
# conv3d


def _delta_kernel(k: int, c: int) -> np.ndarray:
    kern = np.zeros((k, c, c))
    kern[k // 2] = np.eye(c)
    return kern


def test_conv3d_delta_kernel_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=(3, 4, 5, 2))
        out = conv3d(x, _delta_kernel(3, 2))
        assert np.array_equal(out, x)


def test_conv3d_1x1x1_equals_linear():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 3, 4))
    w = rng.normal(size=(4, 5))
    out = conv3d(x, w.reshape(1, 4, 5))
    ref = (x.reshape(-1, 4) @ w).reshape(2, 3, 3, 5)
    assert np.allclose(out, ref, atol=1e-12)


def test_conv3d_ones_kernel_border_counts():
    x = np.ones((3, 1, 1, 1))
    kern = np.ones((3, 1, 1))
    out = conv3d(x, kern)[:, 0, 0, 0]
    assert np.array_equal(out, [2.0, 3.0, 2.0])


def test_conv3d_rejects_even_kernel():
    with pytest.raises(ShapeError, match="odd"):
        conv3d(np.zeros((2, 2, 2, 1)), np.zeros((2, 1, 1)))


def test_conv3d_rejects_channel_mismatch():
    with pytest.raises(ShapeError, match="channel mismatch"):
        conv3d(np.zeros((2, 2, 2, 3)), np.zeros((1, 2, 2)))


def test_conv3d_rejects_kernel_with_spatial_extents():
    with pytest.raises(ShapeError, match=r"\(kd,Cin,Cout\)"):
        conv3d(np.zeros((2, 2, 2, 1)), np.zeros((3, 1, 1, 1, 1)))


def test_conv3d_vjp_matches_finite_diff():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 2, 2, 2))
    kern = rng.normal(size=(3, 2, 2))
    g = rng.normal(size=(3, 2, 2, 2))
    dx, dk = conv3d_vjp(g, x, kern)
    fd_x = finite_diff_grad(lambda t: float((conv3d(t, kern) * g).sum()), x)
    fd_k = finite_diff_grad(lambda t: float((conv3d(x, t) * g).sum()), kern)
    assert np.allclose(dx, fd_x, atol=1e-7)
    assert np.allclose(dk, fd_k, atol=1e-7)


# ---------------------------------------------------------------------------
# softmax / activations


def test_softmax_uniform():
    assert np.allclose(softmax(np.zeros(3)), 1.0 / 3.0)


def test_softmax_extreme_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12


def test_softmax_closed_form():
    out = softmax(np.log([1.0, 2.0, 3.0]))
    assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    x = rng.uniform(-50, 50, (20, 13))
    out = softmax(x)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert ((out > 0) & (out < 1)).all()


def test_sigmoid_values():
    assert float(sigmoid(0.0)) == 0.5
    assert abs(float(sigmoid(40.0)) - 1.0) < 1e-15
    assert abs(float(sigmoid(-40.0))) < 1e-15


def test_gelu_zero():
    assert float(gelu(0.0)) == 0.0


def _gelu_power_reference(x):
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * np.power(x, 3))
    t = np.tanh(inner)
    dinner = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * x**2)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner


def test_gelu_cube_agrees_with_power_formula():
    # x*x*x rounds twice where pow rounds once; on the negative tail 1 + tanh
    # cancels and amplifies that ulp, so the floor is absolute there
    x = np.linspace(-6.0, 6.0, 4001)
    ref, ref_grad = _gelu_power_reference(x)
    np.testing.assert_allclose(gelu(x), ref, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(gelu_grad(x), ref_grad, rtol=1e-15, atol=1e-15)
    xl = x.astype(np.longdouble)
    assert gelu(xl).dtype == np.longdouble
    ref_l, _ = _gelu_power_reference(xl)
    np.testing.assert_allclose(gelu(xl).astype(np.float64), ref_l.astype(np.float64),
                               rtol=1e-15, atol=1e-15)


def test_gelu_grad_matches_finite_diff():
    x = np.linspace(-4, 4, 33)
    fd = finite_diff_grad(lambda t: float(gelu(t).sum()), x)
    assert np.allclose(gelu_grad(x), fd, atol=1e-8)


# ---------------------------------------------------------------------------
# attention


def _identity_params(d: int, heads: int = 1) -> AttentionParams:
    eye = np.eye(d)
    return AttentionParams(heads, eye.copy(), eye.copy(), eye.copy(), eye.copy())


def test_attention_single_key_ignores_query():
    rng = np.random.default_rng(12)
    p = attention_params(rng, 4, 2)
    k = rng.normal(size=(1, 4))
    v = rng.normal(size=(1, 4))
    out1 = multi_head_attention(rng.normal(size=(3, 4)), k, v, p)
    out2 = multi_head_attention(rng.normal(size=(3, 4)), k, v, p)
    # softmax over one element is 1 regardless of the query
    expected = (v @ p.w_v) @ p.w_o
    assert np.allclose(out1, np.broadcast_to(expected, out1.shape), atol=1e-12)
    assert np.allclose(out1, out2, atol=1e-12)


def test_attention_zero_output_projection():
    rng = np.random.default_rng(13)
    p = AttentionParams(
        2, np.eye(4), np.eye(4), np.eye(4), np.zeros((4, 4))
    )
    out = multi_head_attention(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 4)), p)
    assert np.array_equal(out, np.zeros((5, 4)))


def _reference_attention(q, k, v):
    # brute-force single-head attention with identity projections
    d = q.shape[-1]
    scores = q @ k.T / math.sqrt(d)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    return a @ v


def test_attention_two_token_hand_case():
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[1.0, 1.0], [-1.0, 0.5]])
    v = np.array([[2.0, 0.0], [0.0, 3.0]])
    out = multi_head_attention(q, k, v, _identity_params(2))
    assert np.allclose(out, _reference_attention(q, k, v), atol=1e-12)


def test_attention_kv_permutation_equivariance():
    rng = np.random.default_rng(14)
    p = attention_params(rng, 8, 4)
    q = rng.normal(size=(5, 8))
    k = rng.normal(size=(7, 8))
    v = rng.normal(size=(7, 8))
    perm = rng.permutation(7)
    out = multi_head_attention(q, k, v, p)
    out_p = multi_head_attention(q, k[perm], v[perm], p)
    assert np.allclose(out, out_p, atol=1e-12)


def test_attention_batched_matches_per_frame():
    rng = np.random.default_rng(15)
    p = attention_params(rng, 6, 3)
    x = rng.normal(size=(4, 9, 6))
    batched = multi_head_attention(x, x, x, p)
    for b in range(4):
        single = multi_head_attention(x[b], x[b], x[b], p)
        assert np.allclose(batched[b], single, atol=1e-12)


def test_attention_head_divisibility_error():
    with pytest.raises(ShapeError):
        AttentionParams(3, np.eye(4), np.eye(4), np.eye(4), np.eye(4))


def test_attention_vjp_matches_finite_diff():
    # the VJP is of self-attention: x is the query, key and value at once
    rng = np.random.default_rng(16)
    p = attention_params(rng, 4, 2)
    x = rng.normal(size=(2, 5, 4))
    g = rng.normal(size=(2, 5, 4))
    dx, dwq, dwk, dwv, dwo = multi_head_attention_vjp(g, x, p)
    inputs = {"x": x, "w_q": p.w_q, "w_k": p.w_k, "w_v": p.w_v, "w_o": p.w_o}

    def loss_wrt(name):
        def f(t):
            a = {**inputs, name: t}
            pp = AttentionParams(2, a["w_q"], a["w_k"], a["w_v"], a["w_o"])
            return float((multi_head_attention(a["x"], a["x"], a["x"], pp) * g).sum())

        return f

    for name, analytic in zip(inputs, (dx, dwq, dwk, dwv, dwo)):
        fd = finite_diff_grad(loss_wrt(name), inputs[name])
        assert analytic.shape == inputs[name].shape, name
        assert np.allclose(analytic, fd, atol=1e-6), name


def test_kernels_bit_identical_across_calls():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 3, 3, 4))
    p = attention_params(rng, 4, 2)
    kern = rng.normal(size=(3, 4, 4))
    assert np.array_equal(conv3d(x, kern), conv3d(x, kern))
    q = rng.normal(size=(6, 4))
    assert np.array_equal(
        multi_head_attention(q, q, q, p), multi_head_attention(q, q, q, p)
    )
    # floating dtypes are kept; ints run in float64
    ints = rng.integers(-3, 4, size=x.shape)
    for xx, want in ((x.astype(np.longdouble), np.longdouble), (ints, np.float64)):
        t = xx.reshape(2, 9, 4)
        assert layer_norm(xx, np.ones(4), np.zeros(4)).dtype == want
        assert conv3d(xx, kern).dtype == want
        assert multi_head_attention(t, t, t, p).dtype == want
        assert gelu(xx).dtype == want
        assert sigmoid(xx).dtype == want


def _padded_conv3d(x, kernel):
    # conv3d as a sum over depth taps of the depth-padded input
    kd, d = kernel.shape[0], x.shape[0]
    pd = (kd - 1) // 2
    xp = np.pad(x, ((pd, pd), (0, 0), (0, 0), (0, 0)))
    out = np.zeros(x.shape[:3] + kernel.shape[2:], dtype=np.result_type(x, kernel))
    for i in range(kd):
        out += xp[i : i + d] @ kernel[i]
    return out


def _normal(rng, shape, dtype):
    # a complex draw gets an imaginary part, as a complex step gives it
    x = rng.normal(size=shape).astype(dtype)
    return x + 1e-3j * rng.normal(size=shape) if x.dtype.kind == "c" else x


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.complex128])
def test_conv3d_equals_padded_form_bit_for_bit(dtype):
    # each tap adds only its in-range slices; the padded ones it skips add zeros
    rng = np.random.default_rng(18)
    cases = [((3, 4, 4, 4), 3), ((4, 5, 3, 2), 3), ((2, 3, 3, 3), 1),
             ((1, 4, 4, 4), 3), ((2, 3, 2, 2), 5), ((8, 8, 8, 4), 3)]
    for shape, kd in cases:
        x = _normal(rng, shape, dtype)
        kern = rng.normal(size=(kd, shape[3], 3))
        out = conv3d(x, kern)
        assert out.dtype == dtype
        assert np.array_equal(out, _padded_conv3d(x, kern)), (shape, kd)


def _reference_kernels(x, gamma, beta, p):
    # layer_norm, softmax and attention written with fresh temporaries
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    ln = xc / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + 1e-6) * gamma + beta
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    sm = e / e.sum(axis=-1, keepdims=True)
    t = x.reshape(-1, x.shape[-2], x.shape[-1])
    split = lambda a: a.reshape(a.shape[0], a.shape[1], p.num_heads, -1).transpose(0, 2, 1, 3)
    qh, kh, vh = split(t @ p.w_q), split(t @ p.w_k), split(t @ p.w_v)
    scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(p.head_dim)
    a = np.exp(scores - scores.max(axis=-1, keepdims=True))
    a = a / a.sum(axis=-1, keepdims=True)
    heads = (a @ vh).transpose(0, 2, 1, 3)
    attn = (heads.reshape(t.shape[0], t.shape[1], -1) @ p.w_o).reshape(x.shape)
    return ln, sm, attn


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.complex128])
def test_in_place_kernels_keep_bits_and_dtype(dtype):
    rng = np.random.default_rng(19)
    p = attention_params(rng, 8, 2)
    x = _normal(rng, (3, 16, 8), dtype)
    gamma, beta = rng.normal(size=8), rng.normal(size=8)
    ln, sm, attn = _reference_kernels(x, gamma, beta, p)
    for got, want in ((layer_norm(x, gamma, beta), ln), (softmax(x), sm),
                      (multi_head_attention(x, x, x, p), attn)):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
    # a longdouble affine on a float64 input widens only the affine
    x64 = x.real.astype(np.float64)
    for g, b in ((gamma.astype(np.longdouble), beta), (gamma, beta.astype(np.longdouble))):
        got = layer_norm(x64, g, b)
        want = _reference_kernels(x64, g, b, p)[0]
        assert got.dtype == want.dtype == np.longdouble
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# complex input: the gradient check's complex step


def _analytic_kernel(name, rng):
    # a kernel the block runs, as f(*args), its float64 args and the VJP
    # giving the gradient of <f(*args), g> w.r.t. each arg
    x = rng.normal(size=(3, 2, 5, 4))
    if name == "layer_norm":
        return layer_norm, (x, rng.normal(size=4), rng.normal(size=4)), layer_norm_vjp
    if name == "softmax":
        return softmax, (x,), lambda g, a: (softmax_vjp(g, softmax(a)),)
    if name == "gelu":
        return gelu, (x,), lambda g, a: (g * gelu_grad(a),)
    if name == "conv3d":
        return conv3d, (x, rng.normal(size=(3, 4, 2))), conv3d_vjp

    def attention(t, *w):  # self-attention, as the block runs it
        t = t.reshape(-1, 10, 4)
        return multi_head_attention(t, t, t, AttentionParams(2, *w)).reshape(x.shape)

    def attention_vjp(g, t, *w):
        dt, *dw = multi_head_attention_vjp(
            g.reshape(-1, 10, 4), t.reshape(-1, 10, 4), AttentionParams(2, *w)
        )
        return (dt.reshape(x.shape), *dw)

    return attention, (x, *(rng.normal(0.0, 0.5, (4, 4)) for _ in range(4))), attention_vjp


ANALYTIC_KERNELS = ["layer_norm", "softmax", "gelu", "conv3d", "multi_head_attention"]


@pytest.mark.parametrize("name", ANALYTIC_KERNELS)
def test_kernel_on_real_valued_complex_input_is_the_float64_kernel(name):
    f, args, _ = _analytic_kernel(name, np.random.default_rng(20))
    out = f(*(a.astype(np.complex128) for a in args))
    assert out.dtype == np.complex128
    assert not out.imag.any()
    assert np.abs(out.real - f(*args)).max() <= 1e-13


@pytest.mark.parametrize("name", ANALYTIC_KERNELS)
def test_kernel_complex_step_matches_its_vjp(name):
    # Im <f(args + ih v), g> / h is the derivative along v, which the VJP
    # gives as the sum of <grad, v> over the args; an abs or a maximum in
    # the forward would break the first
    rng = np.random.default_rng(21)
    f, args, vjp = _analytic_kernel(name, rng)
    vs = [rng.normal(size=a.shape) for a in args]
    g = rng.normal(size=f(*args).shape)
    h = 1e-20
    stepped = (f(*(a + 1j * h * v for a, v in zip(args, vs))).imag * g).sum() / h
    along = sum((d * v).sum() for d, v in zip(vjp(g, *args), vs))
    assert abs(stepped - along) <= 1e-12 * max(1.0, abs(along)), (stepped, along)


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_sum_of_squares():
    got = finite_diff_grad(lambda t: float((t * t).sum()), np.array([1.0, 2.0]), h=1e-5)
    assert np.allclose(got, [2.0, 4.0], atol=1e-8)


def test_finite_diff_constant_function():
    got = finite_diff_grad(lambda t: 3.0, np.ones((2, 2)))
    assert np.array_equal(got, np.zeros((2, 2)))


def test_finite_diff_linear_function():
    w = np.array([0.5, -1.5, 2.0])
    got = finite_diff_grad(lambda t: float(t @ w), np.zeros(3), h=1e-6)
    assert np.allclose(got, w, atol=1e-9)


def test_finite_diff_does_not_mutate_input():
    x = np.array([1.0, 2.0])
    finite_diff_grad(lambda t: float(t.sum()), x)
    assert np.array_equal(x, [1.0, 2.0])
