"""Validated Hermitian matrix-vector product, the link-gain table's kernel.

channel._cascade contracts each element block of a surface through
matvec_hermitian, looked up at call time, so a wrapper bound in its place
sees every product (perfbench/tracer.py wraps it). backend() names the
implementation for perfbench/child.py.
"""

import numpy as np

from .errors import DimensionError


def matvec_hermitian(h, x):
    """H^H x for a complex matrix H of shape (m, n) and a vector x of length
    m; for x of shape (rows, m), the rows (x[r] @ conj(H)) stacked into a
    (rows, n) array. Computed as conj(conj(x) @ H), so conj(H) is never
    formed."""
    hm = np.asarray(h, dtype=np.complex128)
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim not in (1, 2):
        raise DimensionError(
            f"x must be a vector or a (rows, m) matrix, got shape {xv.shape}")
    if hm.ndim != 2:
        raise DimensionError(f"h must be a 2-d matrix, got shape {hm.shape}")
    if hm.shape[0] != xv.shape[-1]:
        raise DimensionError(
            f"h has {hm.shape[0]} rows but x has length {xv.shape[-1]}"
        )
    return np.conj(np.conj(xv) @ hm)


def backend():
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
