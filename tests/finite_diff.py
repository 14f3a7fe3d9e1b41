"""Central-difference gradient harness for the kernel VJP tests."""

import numpy as np


def finite_diff_grad(f, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of scalar-valued f at x."""
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    # own a contiguous copy so the in-place perturbation is visible to f
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        grad.ravel()[i] = (fp - fm) / (2.0 * h)
    return grad
