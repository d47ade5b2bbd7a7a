"""Independent brute-force evaluators used only by tests.

Everything here is written from the defining formulas with plain loops or
dense grids, deliberately sharing no code with the package internals.
"""

import math

import numpy as np


def rate_oracle(g, sigma2, p):
    """Scalar-loop SINR and rate evaluation. Returns (sinrs, rates, total)."""
    k_count = len(p)
    sinrs, rates = [], []
    for k in range(k_count):
        interf = sigma2[k]
        for i in range(k_count):
            if i != k:
                interf += p[i] * g[k][i]
        lam = p[k] * g[k][k] / interf
        sinrs.append(lam)
        rates.append(math.log2(1.0 + lam))
    return sinrs, rates, sum(rates)


def surrogate_batch(g, sigma2, rho, points):
    """Surrogate objective at each row of points, vectorized."""
    d = points @ g.T + sigma2
    return np.log2(d).sum(axis=1) - points @ rho.sum(axis=0)


def sum_rate_batch(g, sigma2, points):
    """True sum rate at each row of points, vectorized."""
    diag = np.diag(g)
    interf = points @ g.T - points * diag + sigma2
    lam = points * diag / interf
    return np.log2(1.0 + lam).sum(axis=1)


def grid_max(eval_batch, k, p_max, steps=200):
    """Max of eval_batch over a dense grid of {p >= 0, sum(p) <= p_max}."""
    axis = np.linspace(0.0, p_max, steps + 1)
    if k == 1:
        return float(eval_batch(axis[:, None]).max())
    if k == 2:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        mask = a + b <= p_max + 1e-12
        pts = np.stack([a[mask], b[mask]], axis=1)
        return float(eval_batch(pts).max())
    if k == 3:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        best = -np.inf
        for x in axis:
            mask = a + b <= p_max - x + 1e-12
            if not mask.any():
                continue
            pts = np.empty((int(mask.sum()), 3))
            pts[:, 0] = x
            pts[:, 1] = a[mask]
            pts[:, 2] = b[mask]
            best = max(best, float(eval_batch(pts).max()))
        return best
    raise ValueError("grid oracle supports k <= 3 only")


def random_feasible_points(rng, n, k, p_max):
    """Uniformly scattered feasible power vectors (interior and boundary)."""
    raw = rng.random((n, k))
    scale = (rng.random((n, 1)) * p_max) / raw.sum(axis=1, keepdims=True)
    return raw * scale


def project_capped_simplex_oracle(y, p_max, iters=200):
    """Projection onto {q >= 0, sum(q) <= p_max}: clamp negatives, and if
    that leaves the budget exceeded, find by bisection the threshold tau
    with sum(max(y - tau, 0)) = p_max."""
    y = [float(v) for v in y]
    if sum(max(v, 0.0) for v in y) <= p_max:
        return np.array([max(v, 0.0) for v in y])
    lo, hi = 0.0, max(y)  # the clipped sum is above p_max at lo, 0 at hi
    for _ in range(iters):
        tau = 0.5 * (lo + hi)
        if sum(max(v - tau, 0.0) for v in y) > p_max:
            lo = tau
        else:
            hi = tau
    tau = 0.5 * (lo + hi)
    return np.array([max(v - tau, 0.0) for v in y])
