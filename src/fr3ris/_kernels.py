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
# by projected gradient ascent with an adaptive Armijo line search: the
# step warm-starts at the previous accepted value and may grow as well
# as shrink, so nearly linear surrogates do not crawl along the budget
# face in unit-bounded increments.
# ---------------------------------------------------------------------------

def surrogate_value(g, sigma2, rho_col, p):
    d = g @ p + sigma2
    return np.sum(np.log2(d)) - np.dot(rho_col, p)


def solve_inner(g, sigma2, rho_col, p0, p_max, tol, max_iter,
                armijo_c, armijo_beta):
    gt = g.T.copy()
    p = project_capped_simplex(p0, p_max)
    f_cur = surrogate_value(g, sigma2, rho_col, p)
    step = 1.0
    n_iter = 0
    converged = False
    for _ in range(max_iter):
        n_iter += 1
        d = g @ p + sigma2
        grad = gt @ (1.0 / (d * _LN2)) - rho_col
        # gradient mapping at unit step decides termination
        gm = p - project_capped_simplex(p + grad, p_max)
        if np.sqrt(np.dot(gm, gm)) <= tol:
            converged = True
            break
        q = project_capped_simplex(p + step * grad, p_max)
        f_new = surrogate_value(g, sigma2, rho_col, q)
        if f_new >= f_cur + armijo_c * np.dot(grad, q - p):
            # warm step accepted: expand while that keeps paying off
            while step < 1e12:
                wide = step / armijo_beta
                q2 = project_capped_simplex(p + wide * grad, p_max)
                f2 = surrogate_value(g, sigma2, rho_col, q2)
                if f2 > f_new and f2 >= f_cur + armijo_c * np.dot(grad, q2 - p):
                    step = wide
                    q = q2
                    f_new = f2
                else:
                    break
        else:
            stalled = False
            while True:
                step *= armijo_beta
                if step < 1e-20:
                    stalled = True
                    break
                q = project_capped_simplex(p + step * grad, p_max)
                f_new = surrogate_value(g, sigma2, rho_col, q)
                if f_new >= f_cur + armijo_c * np.dot(grad, q - p):
                    break
            if stalled:
                break
        p = q
        f_cur = f_new
    return p, n_iter, converged
