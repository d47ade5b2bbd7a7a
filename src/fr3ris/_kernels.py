"""Inner solver of the SCA power surrogate and the projection it uses.

The caller sets only the stop rule (`tol`, `max_iter`); the Armijo
constants and the other step rules are module constants. `solve_inner`
reaches `project_capped_simplex` and `surrogate_value` through module
globals, so wrapping either name here wraps every call the solver makes.
"""

import math

import numpy as np

_LN2 = float(np.log(2.0))


# ---------------------------------------------------------------------------
# Euclidean projection onto {q : q >= 0, sum(q) <= p_max}
# ---------------------------------------------------------------------------

def project_capped_simplex(y, p_max):
    q = np.maximum(y, 0.0)
    if q.sum() <= p_max:
        return q
    # sorted-threshold projection onto the simplex sum(q) = p_max: tau is
    # set by the last sorted entry j that stays above its threshold
    u = -y
    u.sort()
    u = -u
    css = u.cumsum()
    above = (u - (css - p_max) / np.arange(1.0, len(y) + 1.0)
             > 0.0).nonzero()[0]
    rho = above[-1] if len(above) else 0
    tau = (css[rho] - p_max) / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


# ---------------------------------------------------------------------------
# Inner solver of the concave power surrogate:
#   maximize  sum_k log2(g[k, :] @ p + sigma2[k]) - rho_col @ p
#   over      p >= 0, sum(p) <= p_max
# by an active-set projected Newton method (Bertsekas 1982, "Projected
# Newton methods for optimization problems with simple constraints",
# SIAM J. Control Optim.). The Hessian is -g^T diag(1 / (d^2 ln 2)) g
# with d = g @ p + sigma2; on rank-one channels g is singular, so it is
# damped by _DAMP times its largest diagonal entry (times 1 if that is 0).
# ---------------------------------------------------------------------------

ARMIJO_C = 1e-4
ARMIJO_BETA = 0.5
_DAMP = 1e-12
# a Newton point whose f drop is within this share of |f| is rounding
_ROUNDING = 1e-15
_MIN_ARC = 1e-12
_REACH = 10.0


def surrogate_value(g, sigma2, rho_col, p):
    d = g @ p + sigma2
    return np.log2(d).sum() - np.dot(rho_col, p)


def _stationarity(g, sigma2, rho_col, p, p_max):
    """(d, gradient, unit-step gradient mapping norm, budget multiplier)
    at p. The multiplier is the threshold of the projection of p + grad,
    zero when the budget does not bind."""
    d = g @ p + sigma2
    grad = (1.0 / (d * _LN2)) @ g - rho_col
    y = p + grad
    q = project_capped_simplex(y, p_max)
    on = q > 0.0
    mu = float((y[on] - q[on]).max()) if on.any() else 0.0
    return d, grad, math.sqrt(np.dot(p - q, p - q)), mu


def _newton_step(g, d, grad, mu, p, p_max):
    """Damped Newton step on the free set: the positive entries and the
    zeros whose gradient beats the budget multiplier mu. When the budget
    binds (mu > 0) the step solves the KKT system with the budget row,
    scaled like the Hessian, so sum(p + step) = p_max unless the step is
    shortened below."""
    free = (p > 0.0) | (grad > mu)
    gf = g[:, free]
    n = gf.shape[1]
    bind = int(mu > 0.0)
    size = n + bind
    kkt = np.zeros((size, size))
    kkt[:n, :n] = (gf.T * (1.0 / (d * d * _LN2))) @ gf
    top = float(kkt.diagonal().max())
    scale = top if top > 0.0 else 1.0
    # kkt is C-ordered, so its flat view steps along the diagonal
    kkt.ravel()[:n * (size + 1):size + 1] += _DAMP * scale
    rhs = np.zeros(size)
    rhs[:n] = grad[free]
    if bind:
        kkt[n, :n] = kkt[:n, n] = scale
        rhs[n] = scale * (p_max - p.sum())
    step = np.zeros(len(p))
    step[free] = np.linalg.solve(kkt, rhs)[:n]
    # damped singular directions give steps of ~1e10 p_max, which cost
    # the projection its precision; _REACH p_max still carries the
    # projection past every face of the set, so zeros land exactly
    reach = float(np.abs(step).max())
    if reach > _REACH * p_max:
        step *= _REACH * p_max / reach
    return step


def solve_inner(g, sigma2, rho_col, p0, p_max, tol, max_iter):
    """Returns (p, iterations, converged). Each iteration backtracks
    along the projection arc of the Newton step until Armijo holds, and
    takes a projected-gradient Armijo step if it never does: if the arc
    falls below _MIN_ARC, or once its Armijo gain is at most the rounding
    of f (_ROUNDING |f|), past which no shorter arc can meet it. Under a
    slack budget only a gain within that rounding of zero does so: an arc
    whose gain is below -_ROUNDING |f| overshoots and keeps shortening.
    Stops when the unit-step gradient mapping norm is at most tol."""
    p = project_capped_simplex(p0, p_max)
    f_cur = surrogate_value(g, sigma2, rho_col, p)
    d, grad, gm, mu = _stationarity(g, sigma2, rho_col, p, p_max)
    pg_step = 1.0
    n_iter = 0
    converged = False
    for _ in range(max_iter):
        n_iter += 1
        if gm <= tol:
            converged = True
            break
        step = _newton_step(g, d, grad, mu, p, p_max)
        alpha = 1.0
        while alpha >= _MIN_ARC:
            q = project_capped_simplex(p + alpha * step, p_max)
            f_new = surrogate_value(g, sigma2, rho_col, q)
            gain = ARMIJO_C * np.dot(grad, q - p)
            if f_new >= f_cur + gain:
                break
            # near the optimum the predicted gain is below the rounding
            # of f: take the full step if it shrinks the gradient mapping
            if (alpha == 1.0 and f_new >= f_cur - _ROUNDING * abs(f_cur)
                    and _stationarity(g, sigma2, rho_col, q, p_max)[2] < gm):
                break
            # a gain below the rounding of f cannot be met on a shorter
            # arc either: go to the projected-gradient step. Under a
            # slack budget a negative gain says only that the arc
            # overshoots (a long step crosses the budget face, whose
            # projection leaves the Newton direction): shorten it
            rounding = _ROUNDING * abs(f_cur)
            overshot = mu == 0.0 and gain < -rounding
            alpha *= ARMIJO_BETA if gain > rounding or overshot else 0.0
        else:
            pg_step /= ARMIJO_BETA
            while True:
                q = project_capped_simplex(p + pg_step * grad, p_max)
                f_new = surrogate_value(g, sigma2, rho_col, q)
                if f_new >= f_cur + ARMIJO_C * np.dot(grad, q - p):
                    break
                pg_step *= ARMIJO_BETA
                if pg_step < 1e-20:
                    return p, n_iter, False
        p, f_cur = q, f_new
        d, grad, gm, mu = _stationarity(g, sigma2, rho_col, p, p_max)
    return p, n_iter, converged
