"""Inner solver of the SCA power surrogate and the projection it uses.

`solve_inner` reaches `project_capped_simplex` and `surrogate_value`
through module globals, so wrapping either name here wraps every call
the solver makes.
"""

import numpy as np

_LN2 = float(np.log(2.0))


# ---------------------------------------------------------------------------
# Euclidean projection onto {q : q >= 0, sum(q) <= p_max}
# ---------------------------------------------------------------------------

def project_capped_simplex(y, p_max):
    q = np.maximum(y, 0.0)
    if np.sum(q) <= p_max:
        return q
    # sorted-threshold projection onto the simplex sum(q) = p_max
    u = -np.sort(-y)
    css = np.cumsum(u)
    k = y.shape[0]
    rho = 0
    for j in range(k):
        if u[j] - (css[j] - p_max) / (j + 1.0) > 0.0:
            rho = j
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

_DAMP = 1e-12
# a Newton point whose f drop is within this share of |f| is rounding
_ROUNDING = 1e-15
_MIN_ARC = 1e-12
_REACH = 10.0


def surrogate_value(g, sigma2, rho_col, p):
    d = g @ p + sigma2
    return np.sum(np.log2(d)) - np.dot(rho_col, p)


def _stationarity(g, sigma2, rho_col, p, p_max):
    """(d, gradient, unit-step gradient mapping norm, budget multiplier)
    at p. The multiplier is the threshold of the projection of p + grad,
    zero when the budget does not bind."""
    d = g @ p + sigma2
    grad = (1.0 / (d * _LN2)) @ g - rho_col
    y = p + grad
    q = project_capped_simplex(y, p_max)
    on = q > 0.0
    mu = float(np.max(y[on] - q[on])) if on.any() else 0.0
    return d, grad, float(np.sqrt(np.dot(p - q, p - q))), mu


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
    kkt = np.zeros((n + bind, n + bind))
    kkt[:n, :n] = (gf.T * (1.0 / (d * d * _LN2))) @ gf
    top = float(np.max(np.diag(kkt)))
    scale = top if top > 0.0 else 1.0
    kkt[np.arange(n), np.arange(n)] += _DAMP * scale
    rhs = np.zeros(n + bind)
    rhs[:n] = grad[free]
    if bind:
        kkt[n, :n] = kkt[:n, n] = scale
        rhs[n] = scale * (p_max - np.sum(p))
    step = np.zeros_like(p)
    step[free] = np.linalg.solve(kkt, rhs)[:n]
    # damped singular directions give steps of ~1e10 p_max, which cost
    # the projection its precision; _REACH p_max still carries the
    # projection past every face of the set, so zeros land exactly
    reach = float(np.max(np.abs(step)))
    if reach > _REACH * p_max:
        step *= _REACH * p_max / reach
    return step


def solve_inner(g, sigma2, rho_col, p0, p_max, tol, max_iter,
                armijo_c, armijo_beta):
    """Returns (p, iterations, converged). Each iteration backtracks
    along the projection arc of the Newton step until Armijo holds, and
    takes a projected-gradient Armijo step if it never does: if the arc
    falls below _MIN_ARC, or once its Armijo gain is at most the rounding
    of f (_ROUNDING |f|), past which no shorter arc can meet it. Stops
    when the unit-step gradient mapping norm is at most tol."""
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
            gain = armijo_c * np.dot(grad, q - p)
            if f_new >= f_cur + gain:
                break
            # near the optimum the predicted gain is below the rounding
            # of f: take the full step if it shrinks the gradient mapping
            if (alpha == 1.0 and f_new >= f_cur - _ROUNDING * abs(f_cur)
                    and _stationarity(g, sigma2, rho_col, q, p_max)[2] < gm):
                break
            # a gain below the rounding of f cannot be met on a shorter
            # arc either: go to the projected-gradient step
            alpha *= armijo_beta if gain > _ROUNDING * abs(f_cur) else 0.0
        else:
            pg_step /= armijo_beta
            while True:
                q = project_capped_simplex(p + pg_step * grad, p_max)
                f_new = surrogate_value(g, sigma2, rho_col, q)
                if f_new >= f_cur + armijo_c * np.dot(grad, q - p):
                    break
                pg_step *= armijo_beta
                if pg_step < 1e-20:
                    return p, n_iter, False
        p, f_cur = q, f_new
        d, grad, gm, mu = _stationarity(g, sigma2, rho_col, p, p_max)
    return p, n_iter, converged
