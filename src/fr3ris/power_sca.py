"""Transmit power allocation by successive convex approximation.

The sum rate splits into concave-minus-concave parts; linearizing the
subtracted part at the current iterate gives a concave surrogate whose
maximizer never decreases the true sum rate. The surrogate is solved over
{p >= 0, sum(p) <= P_max} by an active-set projected Newton method with a
projected-gradient fallback (`_kernels.solve_inner`).
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NumericError
from .rate import _check_power, sum_rate

ARMIJO_BETA = 0.5
ARMIJO_C = 1e-4
_LN2 = float(np.log(2.0))


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


def surrogate_gradient(gm, p_t, variant="derivative"):
    """Linearization weights rho[k, i] of the interference log at p_t.

    "derivative" uses d/dp_i log2(I_k) = g_{k,i} / (I_k ln 2); the
    "log-denominator" variant divides by log2(I_k) instead and is kept
    only for comparison (it is not the derivative and voids the bound).
    Diagonal entries are zero in both variants.
    """
    p_t = _check_power(gm, p_t)
    diag = np.diag(gm.g)
    interf = gm.g @ p_t - diag * p_t + gm.noise_power
    if np.any(interf <= 0.0):
        raise NumericError("interference-plus-noise must be positive")
    if variant == "derivative":
        denom = interf * _LN2
    elif variant == "log-denominator":
        denom = _LN2 * np.log2(interf)
    else:
        raise ValueError(f"unknown rho variant {variant!r}")
    rho = gm.g / denom[:, None]
    np.fill_diagonal(rho, 0.0)
    if not np.all(np.isfinite(rho)):
        raise NumericError("non-finite surrogate gradient")
    return rho


def surrogate_objective(gm, p, rho):
    """sum_k log2(sum_i p_i g_{k,i} + sigma_k^2) - sum_{k,i} rho[k,i] p_i.

    Constant terms of the surrogate (values fixed by the expansion point)
    are dropped, so this is comparable only across p for fixed rho.
    """
    p = _check_power(gm, p)
    return float(_kernels.surrogate_value(
        np.ascontiguousarray(gm.g), gm.noise_power,
        np.ascontiguousarray(rho.sum(axis=0)), p))


def surrogate_rate_bound(gm, p, p_t, variant="derivative"):
    """Per-IU minorant rates at p, expanded at p_t (the dropped constants
    restored): log2(D_k(p)) - log2(I_k(p_t)) - sum_i rho[k,i] (p_i - p_t_i)."""
    p = _check_power(gm, p)
    p_t = _check_power(gm, p_t)
    rho = surrogate_gradient(gm, p_t, variant)
    diag = np.diag(gm.g)
    d_full = gm.g @ p + gm.noise_power
    interf_t = gm.g @ p_t - diag * p_t + gm.noise_power
    return np.log2(d_full) - np.log2(interf_t) - rho @ (p - p_t)


def solve_inner(gm, p_t, p_max, tol=1e-8, max_iter=500, variant="derivative"):
    """Maximize the surrogate expanded at p_t over the power set.

    Active-set projected Newton with an Armijo search along the
    projection arc; stops when the unit-step gradient mapping norm falls
    below tol or after max_iter iterations.
    """
    return _solve_inner(gm, p_t, p_max, tol, max_iter, variant)[0]


def _solve_inner(gm, p_t, p_max, tol, max_iter, variant):
    # solve_inner, also returning (iterations, converged)
    p_t = _check_power(gm, p_t)
    p_max = float(p_max)
    if not np.isfinite(p_max) or p_max <= 0.0:
        raise NumericError(f"p_max must be positive and finite, got {p_max}")
    rho = surrogate_gradient(gm, p_t, variant)
    rho_col = np.ascontiguousarray(rho.sum(axis=0))
    g = np.ascontiguousarray(gm.g)
    return _kernels.solve_inner(g, gm.noise_power, rho_col, p_t, p_max,
                                tol, int(max_iter), ARMIJO_C, ARMIJO_BETA)


def sca_power(gm, p_max, init=None, outer_tol=1e-6, outer_max=50,
              inner_tol=1e-8, inner_max=500, variant="derivative"):
    """Run the outer SCA loop from a feasible start (default: uniform split).

    Returns the final allocation and a trace of true sum rates, one entry
    per visited iterate; the trace is non-decreasing for the "derivative"
    variant by the minorant argument. The trace also counts the inner
    iterations and the inner solves that ended unconverged.
    """
    k = gm.num_ius
    p_max = float(p_max)
    if init is None:
        init = np.full(k, p_max / k)
    p = _check_power(gm, init)
    if p.sum() > p_max * (1 + 1e-12):
        raise NumericError(
            f"initial allocation spends {p.sum()} of budget {p_max}")
    objective = [sum_rate(gm, p).sum_rate]
    converged = False
    iterations = inner_iterations = inner_unconverged = 0
    for _ in range(int(outer_max)):
        iterations += 1
        p, n_inner, inner_ok = _solve_inner(gm, p, p_max, inner_tol,
                                            inner_max, variant)
        inner_iterations += n_inner
        inner_unconverged += not inner_ok
        objective.append(sum_rate(gm, p).sum_rate)
        if abs(objective[-1] - objective[-2]) < outer_tol:
            converged = True
            break
    return p, ScaTrace(objective_per_iteration=objective,
                       iterations=iterations, converged=converged,
                       inner_iterations=inner_iterations,
                       inner_unconverged=inner_unconverged)


def sca_power_for_config(gm, cfg, init=None):
    """sca_power with the budget and variant taken from the config."""
    return sca_power(gm, cfg.p_max_w, init=init, variant=cfg.rho_variant)
