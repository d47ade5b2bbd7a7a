"""Transmit power allocation by successive convex approximation.

The sum rate splits into concave-minus-concave parts; linearizing the
subtracted part at the current iterate, with its derivative there as the
slope, gives a concave surrogate whose maximizer never decreases the true
sum rate. The surrogate is solved over {p >= 0, sum(p) <= P_max} by an
active-set projected Newton method with a projected-gradient fallback
(`_kernels.solve_inner`). The stop rules are the constants below.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NumericError
from .rate import _check_power, _interference, sum_rate

# outer loop: stop when the true sum rate moves less than OUTER_TOL
# bit/s/Hz, or after OUTER_MAX steps
OUTER_TOL = 1e-6
OUTER_MAX = 50
# inner solve: stop when the unit-step gradient mapping norm is at most
# INNER_TOL, or after INNER_MAX iterations
INNER_TOL = 1e-8
INNER_MAX = 500


@dataclass(frozen=True)
class ScaTrace:
    """True sum rate at the initial point and after each outer step, the
    inner iterations summed over the outer steps, and how many inner
    solves stopped without meeting their tolerance."""

    objective_per_iteration: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    inner_iterations: int = 0
    inner_unconverged: int = 0


def surrogate_gradient(gm, p_t):
    """Linearization weights rho[k, i] of the interference log at p_t:
    d/dp_i log2(I_k) = g_{k,i} / (I_k ln 2), zero on the diagonal."""
    _, interf = _interference(gm, _check_power(gm, p_t))
    if (interf <= 0.0).any():
        raise NumericError("interference-plus-noise must be positive")
    rho = gm.g / (interf * _kernels._LN2)[:, None]
    np.fill_diagonal(rho, 0.0)
    if not np.isfinite(rho).all():
        raise NumericError("non-finite surrogate gradient")
    return rho


def _check_budget(p_max):
    p_max = float(p_max)
    if not np.isfinite(p_max) or p_max <= 0.0:
        raise NumericError(f"p_max must be positive and finite, got {p_max}")
    return p_max


def solve_inner(gm, p_t, p_max):
    """Maximize the surrogate expanded at p_t over the power set.

    Returns (p, iterations, converged): active-set projected Newton with
    an Armijo search along the projection arc, stopped by INNER_TOL and
    INNER_MAX.
    """
    p_t = _check_power(gm, p_t)
    p_max = _check_budget(p_max)
    rho_col = np.ascontiguousarray(surrogate_gradient(gm, p_t).sum(axis=0))
    g = np.ascontiguousarray(gm.g)
    # tol and max_iter go positionally: perfbench/tracer.py reads the cap
    # as the call's seventh argument
    return _kernels.solve_inner(g, gm.noise_power, rho_col, p_t, p_max,
                                INNER_TOL, INNER_MAX)


def sca_power(gm, p_max, init=None):
    """Run the outer SCA loop from a feasible start (default: uniform split).

    Returns the final allocation and a trace of true sum rates, one entry
    per visited iterate, which the minorant argument keeps non-decreasing.
    The trace also counts the inner iterations and the inner solves that
    ended unconverged. Stops by OUTER_TOL and OUTER_MAX.
    """
    k = gm.num_ius
    p_max = _check_budget(p_max)
    if init is None:
        init = np.full(k, p_max / k)
    p = _check_power(gm, init)
    if p.sum() > p_max * (1 + 1e-12):
        raise NumericError(
            f"initial allocation spends {p.sum()} of budget {p_max}")
    objective = [sum_rate(gm, p).sum_rate]
    inner_iterations = inner_unconverged = 0
    for _ in range(OUTER_MAX):
        p, n_inner, inner_ok = solve_inner(gm, p, p_max)
        inner_iterations += n_inner
        inner_unconverged += not inner_ok
        objective.append(sum_rate(gm, p).sum_rate)
        converged = abs(objective[-1] - objective[-2]) < OUTER_TOL
        if converged:
            break
    return p, ScaTrace(objective_per_iteration=objective,
                       iterations=len(objective) - 1, converged=converged,
                       inner_iterations=inner_iterations,
                       inner_unconverged=inner_unconverged)


def sca_power_for_config(gm, cfg, init=None):
    """sca_power with the budget taken from the config."""
    return sca_power(gm, cfg.p_max_w, init=init)
