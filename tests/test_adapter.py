"""Tests for the temporal-adapter block: forward identities, locality,
and gradient agreement with complex-step derivatives."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memseg import adapter
from memseg.adapter import (
    AdapterParams,
    _adapter_cache,
    adapter_params,
    block_backward,
    block_forward,
    block_param_arrays,
    block_params,
    grad_check,
)
from memseg.kernels import (
    ShapeError,
    conv3d,
    gelu,
    layer_norm,
    multi_head_attention,
)


def tiny_block(seed=0, channels=4, bottleneck=2, heads=2):
    return block_params(
        np.random.default_rng(seed), channels, bottleneck=bottleneck, num_heads=heads
    )


# ---------------------------------------------------------------------------
# adapter forward


def adapter_branch(x, p):
    """The adapter with its residual: x + W_up(GELU(Conv3D(W_down LN(x))))."""
    return _adapter_cache(x, p)["branch"]


def test_adapter_zero_up_projection_is_identity():
    rng = np.random.default_rng(1)
    p = adapter_params(rng, 4, 2)
    p.w_up[:] = 0.0
    x = rng.normal(size=(2, 3, 3, 4))
    assert np.array_equal(adapter_branch(x, p), x)


def test_adapter_single_frame_equals_center_tap():
    rng = np.random.default_rng(2)
    p3 = adapter_params(rng, 4, 2)
    assert p3.conv_kernel.shape[0] == 3
    p1 = AdapterParams(
        ln_gamma=p3.ln_gamma,
        ln_beta=p3.ln_beta,
        w_down=p3.w_down,
        conv_kernel=p3.conv_kernel[1:2].copy(),
        w_up=p3.w_up,
    )
    x = rng.normal(size=(1, 3, 3, 4))
    assert np.allclose(adapter_branch(x, p3), adapter_branch(x, p1), atol=1e-14)


def test_adapter_composition_oracle():
    rng = np.random.default_rng(3)
    p = adapter_params(rng, 6, 3)
    x = rng.normal(size=(4, 2, 2, 6))
    expected = x + gelu(
        conv3d(layer_norm(x, p.ln_gamma, p.ln_beta) @ p.w_down, p.conv_kernel)
    ) @ p.w_up
    assert np.allclose(adapter_branch(x, p), expected, atol=1e-14)


def test_adapter_temporal_locality():
    rng = np.random.default_rng(4)
    p = adapter_params(rng, 4, 2)
    x = rng.normal(size=(6, 2, 2, 4))
    base = adapter_branch(x, p)
    bumped = x.copy()
    bumped[3] += rng.normal(size=(2, 2, 4))
    diff = np.abs(adapter_branch(bumped, p) - base).max(axis=(1, 2, 3))
    assert diff[3] > 0
    for b in (0, 1, 5):
        assert diff[b] <= 1e-12


def test_adapter_rejects_wide_bottleneck():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="bottleneck r=4 must be smaller than channels C=4"):
        AdapterParams(
            ln_gamma=np.ones(4),
            ln_beta=np.zeros(4),
            w_down=rng.normal(size=(4, 4)),
            conv_kernel=rng.normal(size=(3, 4, 4)),
            w_up=rng.normal(size=(4, 4)),
        )


def test_adapter_rejects_even_kernel():
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError, match=r"\(2, 2, 2\) is not \(odd kd, 2, 2\)"):
        AdapterParams(
            ln_gamma=np.ones(4),
            ln_beta=np.zeros(4),
            w_down=rng.normal(size=(4, 2)),
            conv_kernel=rng.normal(size=(2, 2, 2)),
            w_up=rng.normal(size=(2, 4)),
        )


def test_adapter_channel_mismatch():
    rng = np.random.default_rng(7)
    p = tiny_block(7)
    with pytest.raises(ShapeError):
        block_forward(rng.normal(size=(2, 3, 3, 5)), p)


# ---------------------------------------------------------------------------
# block forward


def test_block_residual_floor_identity():
    p = tiny_block(8)
    p.attn.w_o[:] = 0.0
    p.adapter.w_up[:] = 0.0
    p.mlp.w2[:] = 0.0
    p.mlp.b2[:] = 0.0
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 2, 2, 4))
    assert np.array_equal(block_forward(x, p), x)


def test_block_straight_line_composition_oracle():
    p = tiny_block(18)
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 2, 2, 4))
    # independent straight-line recomputation, attention per frame
    h1 = layer_norm(x, p.ln1_gamma, p.ln1_beta)
    x_attn = np.stack(
        [
            multi_head_attention(
                h1[b].reshape(-1, 4), h1[b].reshape(-1, 4), h1[b].reshape(-1, 4), p.attn
            ).reshape(2, 2, 4)
            for b in range(2)
        ]
    )
    ha = layer_norm(x_attn, p.adapter.ln_gamma, p.adapter.ln_beta)
    branch = x_attn + gelu(conv3d(ha @ p.adapter.w_down, p.adapter.conv_kernel)) @ p.adapter.w_up
    x_out = x + branch
    h2 = layer_norm(x_out, p.ln2_gamma, p.ln2_beta)
    expected = x_out + gelu(h2 @ p.mlp.w1 + p.mlp.b1) @ p.mlp.w2 + p.mlp.b2
    assert np.allclose(block_forward(x, p), expected, atol=1e-13)


def test_block_eval_deterministic():
    p = tiny_block(20)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 2, 2, 4))
    assert np.array_equal(block_forward(x, p), block_forward(x, p))


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_upstream_gives_zero_grads():
    p = tiny_block(22)
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 2, 2, 4))
    grads = block_backward(x, p, np.zeros_like(x))
    for name, g in grads.items():
        assert np.array_equal(g, np.zeros_like(g)), name


def test_backward_residual_contribution_near_identity():
    # with sum-loss and all branch outputs zeroed, d loss / dx is exactly 1
    p = tiny_block(24)
    p.attn.w_o[:] = 0.0
    p.adapter.w_up[:] = 0.0
    p.mlp.w2[:] = 0.0
    p.mlp.b2[:] = 0.0
    rng = np.random.default_rng(25)
    x = rng.normal(size=(2, 2, 2, 4))
    grads = block_backward(x, p, np.ones_like(x))
    assert np.allclose(grads["x"], 1.0, atol=1e-12)


def test_backward_matches_finite_differences_small():
    p = tiny_block(26)
    rng = np.random.default_rng(27)
    x = rng.normal(size=(2, 2, 2, 4))
    report = grad_check(p, x, h=1e-6, tol=1e-5)
    assert report.passed, [(r.name, r.max_rel_err) for r in report.rows if not r.passed]


def test_backward_matches_finite_differences_larger_shape():
    rng = np.random.default_rng(28)
    p = block_params(rng, 8, bottleneck=4, num_heads=2)
    x = rng.normal(size=(3, 4, 4, 8))
    report = grad_check(p, x, h=1e-6, tol=1e-5)
    assert report.passed
    assert report.max_rel_err <= 1e-5


def test_grad_check_flags_mutated_w_up_only():
    p = tiny_block(29)
    rng = np.random.default_rng(30)
    x = rng.normal(size=(2, 2, 2, 4))
    report = grad_check(p, x, h=1e-6, tol=1e-5, mutate="adapter.w_up")
    assert not report.passed
    assert report.failing() == ["adapter.w_up"]


# backward mutants that give the true gradients under a uniform upstream
# g = ones, as (correct source line, mutated line) in adapter.py
UNIFORM_UPSTREAM_MUTANTS = {
    "residual-adds-one": ("dx_out = g + dx_out_ln", "dx_out = 1.0 + dx_out_ln"),
    "mlp-vjp-of-ones": ('linear_vjp(g, f["z"], p.mlp.w2)',
                        'linear_vjp(np.ones_like(g), f["z"], p.mlp.w2)'),
    "b2-grad-is-row-count": ('d["x"] = dx_out + dx_ln',
                             'd["x"] = dx_out + dx_ln; d["mlp.b2"] ='
                             ' np.full_like(d["mlp.b2"], g.size // g.shape[-1])'),
}


@pytest.mark.parametrize("old,new", UNIFORM_UPSTREAM_MUTANTS.values(),
                         ids=UNIFORM_UPSTREAM_MUTANTS)
def test_grad_check_fails_a_mutant_that_a_uniform_upstream_passes(
    old, new, tmp_path, monkeypatch
):
    source = Path(adapter.__file__).read_text()
    assert source.count(old) == 1
    path = tmp_path / "adapter_mutant.py"
    path.write_text(source.replace(old, new))
    spec = importlib.util.spec_from_file_location("memseg.adapter_mutant", path)
    mutant = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mutant)
    spec.loader.exec_module(mutant)
    p = tiny_block(42)
    x = np.random.default_rng(43).normal(size=(2, 2, 2, 4))
    ones = np.ones_like(x)
    right, wrong = block_backward(x, p, ones), mutant.block_backward(x, p, ones)
    for name, grad in right.items():
        assert np.array_equal(wrong[name], grad), name
    assert not mutant.grad_check(p, x).passed


def test_block_backward_returns_one_gradient_per_name_in_order():
    # "x" and then block_param_arrays' names, each an array of its own
    # shape: a gradient the backward never fills in would be left as None
    p = tiny_block(36)
    x = np.random.default_rng(37).normal(size=(2, 2, 2, 4))
    grads = block_backward(x, p, np.ones_like(x))
    arrays = {"x": x, **block_param_arrays(p)}
    assert list(grads) == list(arrays)
    for name, arr in arrays.items():
        assert isinstance(grads[name], np.ndarray), name
        assert grads[name].shape == arr.shape, name


def test_grad_check_zero_instance_trivially_passes():
    p = tiny_block(31)
    for arr in block_param_arrays(p).values():
        arr[:] = 0.0
    # zero params keep LN affines at zero too: output reduces to residuals
    report = grad_check(p, np.zeros((1, 2, 2, 4)), h=1e-6, tol=1e-5)
    assert report.passed


def test_fd_reference_forward_matches_production():
    # grad_check's complex step runs block_forward on complex128 copies of x
    # and the parameters; with no step taken that must keep the dtype, give
    # an imaginary part of exactly 0 and track the float64 forward to
    # round-off
    rng = np.random.default_rng(33)
    for seed in range(5):
        p = block_params(np.random.default_rng(seed), 8, bottleneck=4, num_heads=2)
        x = rng.normal(size=(2, 3, 3, 8))
        prod = block_forward(x, p)
        ref = block_forward(adapter._complex(x), adapter._complex(p))
        assert ref.dtype == np.complex128
        assert not ref.imag.any()
        assert np.abs(prod - ref.real).max() < 1e-13


def test_first_stage_of_every_target():
    # x and the ln1/attn parameters rerun the whole block, the adapter's
    # resume at stage 1, ln2, mlp.w1 and mlp.b1 at stage 2 and mlp.w2 and
    # mlp.b2 at the output projection, stage 3; x separates by frame and
    # the hidden layer's parameters by hidden unit
    want = {"x": (0, 0), "ln1": (0, None), "attn": (0, None), "adapter": (1, None),
            "ln2": (2, None), "mlp.w1": (2, 1), "mlp.b1": (2, 0),
            "mlp.w2": (3, None), "mlp.b2": (3, None)}
    for name in ["x", *block_param_arrays(tiny_block(34))]:
        key = name if name in want else name.partition(".")[0]
        assert adapter._first_stage(name) == want[key], name


def test_resumed_forward_equals_full_forward_after_perturbation():
    # step one element of the complex input and of each complex parameter
    # by an imaginary 1e-3; the forward resumed from that array's stage, at
    # the element's frame or hidden unit where the stage separates, must
    # give the full complex forward bit for bit
    rng = np.random.default_rng(35)
    p = adapter._complex(block_params(rng, 8, bottleneck=4, num_heads=2))
    x = adapter._complex(rng.normal(size=(3, 3, 3, 8)))
    prefix = adapter._forward(x.copy(), p)
    for name, arr in {"x": x, **block_param_arrays(p)}.items():
        start, axis = adapter._first_stage(name)
        flat = arr.ravel()
        i = int(rng.integers(flat.size))
        part = None if axis is None else np.unravel_index(i, arr.shape)[axis]
        orig = flat[i]
        flat[i] = orig + 1e-3j
        resumed = adapter._forward(x if name == "x" else None, p, prefix, start, part)
        full = adapter._forward(x, p)
        flat[i] = orig
        assert resumed["y"].dtype == np.complex128
        for key, value in full.items():
            assert np.array_equal(resumed[key], value), (name, key)
        assert not np.array_equal(full["y"], prefix["y"]), name


def test_resume_at_stage_0_gives_the_prefix_output():
    p = tiny_block(36)
    prefix = adapter._forward(np.zeros((1, 2, 2, 4)), p)
    assert np.array_equal(adapter._forward(None, p, prefix)["y"], prefix["y"])


def _recording_complex_step(monkeypatch):
    # grad_check's complex-step gradients, one (g, h, gradient) per target
    calls, real = [], adapter._complex_step

    def recording(forward, arr, g, h):
        cs = real(forward, arr, g, h)
        calls.append((g, h, cs))
        return cs

    monkeypatch.setattr(adapter, "_complex_step", recording)
    return calls


def test_grad_check_fd_equals_full_forward_fd(monkeypatch):
    # grad_check's resumed complex steps, sliced by frame (edge and middle
    # of three) and by hidden unit (16), are bit-identical to the
    # derivatives that full complex forwards give
    p = tiny_block(37)
    x = np.random.default_rng(38).normal(size=(3, 2, 2, 4))
    calls = _recording_complex_step(monkeypatch)
    frames, units = [], []
    attention, gelu_ = adapter.multi_head_attention, adapter.gelu
    monkeypatch.setattr(adapter, "multi_head_attention",
                        lambda q, *a: frames.append(len(q)) or attention(q, *a))
    monkeypatch.setattr(adapter, "gelu", lambda t: units.append(t.shape[-1]) or gelu_(t))
    assert grad_check(p, x).passed
    # one forward per element: x's attend over one frame, mlp.w1's and
    # mlp.b1's compute one unit
    assert frames.count(1) == x.size
    assert units.count(1) == p.mlp.w1.size + p.mlp.b1.size
    monkeypatch.undo()
    xc, pc = adapter._complex(x), adapter._complex(p)
    targets = {"x": xc, **block_param_arrays(pc)}
    assert len(calls) == len(targets)
    for (g, h, cs), arr in zip(calls, targets.values()):
        full = adapter._complex_step(lambda i: block_forward(xc, pc), arr, g, h)
        assert np.array_equal(cs, full)


def test_complex_step_agrees_with_longdouble_central_differences(monkeypatch):
    # the oracle this check replaced: central differences of full
    # longdouble forwards, each quotient over the step the float64 element
    # actually took.  Both are O(h^2) estimates, their errors of opposite
    # sign; the worst relative difference measured here is 1.5e-9, at an
    # mlp.w1 element whose gradient is 1.9e-4.  The central difference needs
    # a real step, so both take h=1e-6 rather than grad_check's default
    p = tiny_block(40)
    x = np.random.default_rng(41).normal(size=(2, 2, 2, 4))
    calls = _recording_complex_step(monkeypatch)
    assert grad_check(p, x, h=1e-6).passed
    worst = 0.0
    for (g, h, cs), arr in zip(calls, {"x": x, **block_param_arrays(p)}.values()):
        fd = np.zeros(arr.shape)
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            ys = []
            for theta in (orig + h, orig - h):
                flat[i] = theta
                ys.append(block_forward(x.astype(np.longdouble), p))
            step = np.longdouble(orig + h) - np.longdouble(orig - h)
            flat[i] = orig
            fd.flat[i] = ((ys[0] - ys[1]) * g).sum() / step
        worst = max(worst, adapter._rel_err(cs, fd))
    assert worst <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.integers(2, 4),
    dtype=st.sampled_from([np.float64, np.longdouble, np.complex128]),
    data=st.data(),
)
def test_perturbing_one_frame_leaves_other_frames_attention(seed, frames, dtype, data):
    # the frame reach of grad_check rests on this: ln1 and attention never
    # mix frames, so the other frames' x_attn keep their bits
    rng = np.random.default_rng(seed)
    p = block_params(rng, 4, bottleneck=2, num_heads=2)
    x = rng.normal(size=(frames, 2, 3, 4)).astype(dtype)
    if x.dtype.kind == "c":  # as a complex step gives it
        x = x + 1e-3j * rng.normal(size=x.shape)
    b = data.draw(st.integers(0, frames - 1))
    i = data.draw(st.integers(0, x[b].size - 1))
    y = x.copy()
    y[b].flat[i] += data.draw(st.floats(-1.0, 1.0).filter(lambda d: d != 0.0))
    before, after = adapter._forward(x, p)["x_attn"], adapter._forward(y, p)["x_attn"]
    others = [f for f in range(frames) if f != b]
    assert np.array_equal(before[others], after[others])


def test_grad_check_accepts_steps_below_float64_spacing():
    # the complex step moves only the imaginary part, so an h that leaves
    # every element unchanged as a real step still gives the derivative
    p = tiny_block(39)
    x = np.random.default_rng(39).normal(size=(1, 2, 2, 4))
    for h in (1e-20, 1e-300):
        report = grad_check(p, x, h=h, tol=1e-9)
        assert report.passed, (h, report.max_rel_err, report.failing())


def test_grad_check_validates_args():
    p = tiny_block(32)
    with pytest.raises(ValueError):
        grad_check(p, np.zeros((1, 2, 2, 4)), h=0.0)
    with pytest.raises(ValueError):
        grad_check(p, np.zeros((1, 2, 2, 4)), tol=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            grad_check(p, np.zeros((1, 2, 2, 4)), h=bad)
        with pytest.raises(ValueError):
            grad_check(p, np.zeros((1, 2, 2, 4)), tol=bad)
    with pytest.raises(ValueError, match="'nope', expected one of x, ln1.gamma, .*, mlp.b2$"):
        grad_check(p, np.zeros((1, 2, 2, 4)), mutate="nope")
