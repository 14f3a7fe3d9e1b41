"""The OpenBLAS core type numpy's bundled BLAS runs on, for the whole-output
pins: their bytes hold for the core type they were taken on, since a BLAS
product's bits depend on the kernel that computes it.

A run selects another kernel with ``OPENBLAS_CORETYPE=Haswell`` (any
x86-64 CPU with AVX2 and FMA runs it); the variable acts on the process
that sets it only.
"""

import ctypes
import glob
import os

import numpy as np

# the core type every whole-output pin (the report pins, the tiny-grid pin
# and the structured-fuse pin) was taken on
PIN_CORE_TYPE = "SkylakeX"


def core_type() -> str:
    """The runtime core type of numpy's bundled scipy-openblas, such as
    "SkylakeX" or "Haswell", or "unknown" where numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        # the library numpy has loaded already, so its selected kernel
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pin_note() -> str:
    """A pin's failure message: the core type it was taken on and the one
    in use."""
    return (
        f"pinned on OpenBLAS core type {PIN_CORE_TYPE}, running on {core_type()};"
        " the pinned bytes hold for the same core type only"
    )
