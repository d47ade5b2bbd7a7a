"""Validated Hermitian matrix-vector product for the channel module."""

import numpy as np

from .errors import DimensionError


def matvec_hermitian(h, x):
    """H^H x for a complex matrix H of shape (m, n) and vector x of length m."""
    hm = np.asarray(h, dtype=np.complex128)
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim != 1:
        raise DimensionError(f"x must be a 1-d vector, got shape {xv.shape}")
    if hm.ndim != 2:
        raise DimensionError(f"h must be a 2-d matrix, got shape {hm.shape}")
    if hm.shape[0] != xv.shape[0]:
        raise DimensionError(
            f"h has {hm.shape[0]} rows but x has length {xv.shape[0]}"
        )
    return xv @ np.conj(np.ascontiguousarray(hm))


def backend():
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
