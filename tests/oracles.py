"""Independent brute-force evaluators used only by tests.

Everything here is written from the defining formulas with plain loops or
dense grids, deliberately sharing no code with the package internals. The
exceptions are former implementations kept as references:
`project_capped_simplex_loop`, `armijo_inner_oracle`, `inline_link_gains`,
and `exhaustive_loop_oracle` and
`utility_gather_oracle`, which score through the package's own gain gather
and rates so that their results can be compared with `==`. The helpers near the end are evaluators that only tests call;
they check their inputs with the package's own validators. Last come the
seeded random inputs that several test modules share.
"""

import cmath
import itertools
import math

import numpy as np

from fr3ris import _kernels
from fr3ris.association import Association, _check_utilities
from fr3ris.channel import (_ENTRIES, ChannelSet, GainMatrix, _beam_gains,
                            _unit)
from fr3ris.power_sca import surrogate_gradient
from fr3ris.rate import _check_power, association_sum_rate, link_rates
from fr3ris.topology import as_position


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


def project_capped_simplex_loop(y, p_max):
    """`_kernels.project_capped_simplex` as it found the simplex threshold
    with a Python loop over the sorted entries, kept as the reference that
    its vectorized search is compared with by ==."""
    q = np.maximum(y, 0.0)
    if np.sum(q) <= p_max:
        return q
    u = -np.sort(-y)
    css = np.cumsum(u)
    rho = 0
    for j in range(y.shape[0]):
        if u[j] - (css[j] - p_max) / (j + 1.0) > 0.0:
            rho = j
    tau = (css[rho] - p_max) / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


def gain_matrix_oracle(direct, ap_ris, ris_iu, gamma):
    """K x K link gains of a one-to-one association, entry by entry.

    RIS l serving IU s reflects element m with the unit coefficient
    exp(j (arg d_s[0] - arg(conj(A_l[m, 0]) r_ls[m]))). IU k's channel as
    seen by IU i's beam is d_k + sum_m conj(A_l[m, :]) theta_m r_lk[m] with l
    the RIS serving i (d_k alone when i has none); i's MRT beam is its own
    such channel, normalized; g[k, i] = |<channel, beam>|^2.
    """
    k_count, n_count = len(direct), len(direct[0])
    l_count = len(gamma[0]) if k_count else 0
    surface = [-1] * k_count
    for k in range(k_count):
        for l in range(l_count):
            if gamma[k][l]:
                surface[k] = l

    def channel(k, l, s):
        h = [complex(direct[k][n]) for n in range(n_count)]
        if l < 0:
            return h
        for m in range(len(ap_ris[l])):
            via = ap_ris[l][m][0].conjugate() * ris_iu[l][s][m]
            theta = cmath.exp(1j * (cmath.phase(direct[s][0]) - cmath.phase(via)))
            for n in range(n_count):
                h[n] += ap_ris[l][m][n].conjugate() * theta * ris_iu[l][k][m]
        return h

    g = np.zeros((k_count, k_count))
    for i in range(k_count):
        own = channel(i, surface[i], i)
        norm = math.sqrt(sum(abs(x) ** 2 for x in own))
        for k in range(k_count):
            h = channel(k, surface[i], i)
            inner = sum(h[n].conjugate() * own[n] for n in range(n_count))
            g[k][i] = abs(inner / norm) ** 2
    return g


def inline_link_gains(channels):
    """ChannelSet's link-gain table as it was built with each element
    block's contraction written inline, every @ conj(v), before it went
    through numerics.matvec_hermitian: the same blocks, co-phasing and
    beam gains, so the tables can be compared with ==."""
    d, a, r = channels.direct, channels.ap_ris, channels.ris_iu
    u = a[:, :, :1] if a.strides[2] == 0 else a
    l_count, k, _ = r.shape
    rank = u.shape[2]
    step = max(1, _ENTRIES // max(k * rank, 1))
    gains = np.empty((l_count + 1, k, k))
    for i in range(k):
        gains[0, :, i] = _beam_gains(d, i)
    lead = _unit(d[:, 0])
    for li in range(l_count):
        out = np.zeros((k, k * rank), dtype=np.complex128)
        for m0 in range(0, u.shape[1], step):
            ub = u[li, m0:m0 + step]
            every = np.ascontiguousarray(r[li, :, m0:m0 + step])
            # a (1, block) row, as in _cascade: numpy 2.4 multiplies a
            # (1,) by a (1, 1) complex array without the fused
            # multiply-add of its other complex products
            phase = _unit(np.conj(ub[:, :1].T) * every)
            v = phase.T[:, :, None] * ub[:, None, :]
            out += every @ np.conj(v).reshape(len(ub), k * rank)
        cascade = out.reshape(k, k, rank) * lead[:, None]
        for j in range(k):
            gains[li + 1, :, j] = _beam_gains(cascade[:, j] + d, j)
    return gains


def blocking_pair_oracle(u, gamma):
    """Stability of a one-to-one association under utilities u, checked
    from the definition. IU k accepts RIS l only if u[k, l] > 0 and prefers
    higher utility, ties to the lower RIS index; RIS l prefers the IU with
    the higher u[., l], ties to the lower IU index, and any IU to none.
    Returns (k, -1) for an IU held at a RIS it does not accept, else the
    first (k, l) that would both rather be together, else None."""
    k_count = len(u)
    l_count = len(u[0]) if k_count else 0
    partner, holder = {}, {}
    for k in range(k_count):
        for l in range(l_count):
            if gamma[k][l]:
                if k in partner or l in holder:
                    raise ValueError(f"association is not one-to-one at ({k}, {l})")
                partner[k] = l
                holder[l] = k
    for k, l in partner.items():
        if u[k][l] <= 0:
            return (k, -1)

    def ius_prefers(k, l):
        if u[k][l] <= 0:
            return False
        if k not in partner:
            return True
        cur = partner[k]
        return u[k][l] > u[k][cur] or (u[k][l] == u[k][cur] and l < cur)

    def ris_prefers(l, k):
        if l not in holder:
            return True
        cur = holder[l]
        return u[k][l] > u[cur][l] or (u[k][l] == u[cur][l] and k < cur)

    for k in range(k_count):
        for l in range(l_count):
            if partner.get(k) != l and ius_prefers(k, l) and ris_prefers(l, k):
                return (k, l)
    return None


def _project_sorted(y, p_max):
    # projection onto {q >= 0, sum(q) <= p_max}: clamp, else the simplex
    # threshold from the largest prefix whose mean excess stays positive
    q = np.maximum(y, 0.0)
    if q.sum() <= p_max:
        return q
    u = np.sort(y)[::-1]
    excess = (np.cumsum(u) - p_max) / np.arange(1, len(u) + 1)
    tau = excess[np.flatnonzero(u > excess)[-1]]
    return np.maximum(y - tau, 0.0)


def armijo_inner_oracle(g, sigma2, rho_col, p0, p_max, tol, max_iter,
                        armijo_c, armijo_beta):
    """Maximize sum_k log2(g[k] @ p + sigma2[k]) - rho_col @ p over
    {p >= 0, sum(p) <= p_max} by projected gradient ascent with an
    adaptive Armijo step: it warm-starts at the last accepted step and
    grows while that keeps paying off. Stops when the unit-step gradient
    mapping norm is at most tol. Returns (p, iterations, converged).
    The first-order reference for `_kernels.solve_inner`."""
    def value(p):
        return np.sum(np.log2(g @ p + sigma2)) - np.dot(rho_col, p)

    def accepted(f_new, f_cur, grad, q, p):
        return f_new >= f_cur + armijo_c * np.dot(grad, q - p)

    gt = g.T.copy()
    p = _project_sorted(p0, p_max)
    f_cur = value(p)
    step = 1.0
    for n_iter in range(1, max_iter + 1):
        grad = gt @ (1.0 / ((g @ p + sigma2) * math.log(2.0))) - rho_col
        if np.linalg.norm(p - _project_sorted(p + grad, p_max)) <= tol:
            return p, n_iter, True
        q = _project_sorted(p + step * grad, p_max)
        f_new = value(q)
        if accepted(f_new, f_cur, grad, q, p):
            while step < 1e12:
                q2 = _project_sorted(p + step / armijo_beta * grad, p_max)
                f2 = value(q2)
                if not (f2 > f_new and accepted(f2, f_cur, grad, q2, p)):
                    break
                step, q, f_new = step / armijo_beta, q2, f2
        else:
            while True:
                step *= armijo_beta
                if step < 1e-20:
                    return p, n_iter, False
                q = _project_sorted(p + step * grad, p_max)
                f_new = value(q)
                if accepted(f_new, f_cur, grad, q, p):
                    break
        p, f_cur = q, f_new
    return p, max_iter, False


def exhaustive_loop_oracle(channels, p_star, noise_power_w):
    """Best association by scoring every feasible one alone, in
    enumeration order (j served IUs, combinations of IUs, permutations of
    RISs), through `rate.association_sum_rate`; a later candidate wins
    only with a strictly larger rate. Returns (gamma, sum rate). The
    per-candidate reference for `association.exhaustive_association`."""
    k_count, l_count = channels.num_ius, channels.num_riss
    best_gamma, best_rate = None, -np.inf
    for j in range(min(k_count, l_count) + 1):
        for ius in itertools.combinations(range(k_count), j):
            for riss in itertools.permutations(range(l_count), j):
                gamma = np.zeros((k_count, l_count), dtype=np.int64)
                gamma[list(ius), list(riss)] = 1
                rate = association_sum_rate(channels, gamma, p_star,
                                            noise_power_w)
                if rate > best_rate:
                    best_gamma, best_rate = gamma, rate
    return best_gamma, float(best_rate)


def utility_gather_oracle(channels, p_star, noise_power_w):
    """u[k, l] as IU k's entry of the rates of the association "IU k alone
    on RIS l", all K L associations gathered in full and scored in one
    rate.link_rates batch; zero channels raise as gather_gains does. The
    former `association.utility_matrix`, O(K^3 L), the per-association
    reference for its (L, K, K) stack."""
    k_count, l_count = channels.num_ius, channels.num_riss
    users = np.arange(k_count)
    links = np.zeros((k_count, l_count, k_count), dtype=np.intp)
    links[users, :, users] = np.arange(1, l_count + 1)
    rates = link_rates(channels, links.reshape(-1, k_count), p_star,
                       noise_power_w)
    return rates.reshape(k_count, l_count, k_count)[users, :, users]


# -- evaluators only tests call ---------------------------------------------

def distance(a, b):
    """Euclidean distance in meters between two positions."""
    return float(np.linalg.norm(as_position(a, "a") - as_position(b, "b")))


def interference(gm, p, k):
    """Received interference plus noise at IU k: sum_{i != k} p_i g_{k,i} + sigma_k^2."""
    p = _check_power(gm, p)
    row = gm.g[k]
    return float(row @ p - row[k] * p[k] + gm.noise_power[k])


def sinr(gm, p, k):
    """p_k g_{k,k} / (interference + noise) at IU k."""
    p = _check_power(gm, p)
    return float(p[k] * gm.g[k, k]) / interference(gm, p, k)


def surrogate_objective(gm, p, rho):
    """sum_k log2(sum_i p_i g_{k,i} + sigma_k^2) - sum_{k,i} rho[k,i] p_i.

    Constant terms of the surrogate (values fixed by the expansion point)
    are dropped, so this is comparable only across p for fixed rho.
    """
    p = _check_power(gm, p)
    return float(_kernels.surrogate_value(
        np.ascontiguousarray(gm.g), gm.noise_power,
        np.ascontiguousarray(rho.sum(axis=0)), p))


def surrogate_rate_bound(gm, p, p_t):
    """Per-IU minorant rates at p, expanded at p_t (the dropped constants
    restored): log2(D_k(p)) - log2(I_k(p_t)) - sum_i rho[k,i] (p_i - p_t_i)."""
    p = _check_power(gm, p)
    p_t = _check_power(gm, p_t)
    rho = surrogate_gradient(gm, p_t)
    diag = np.diag(gm.g)
    d_full = gm.g @ p + gm.noise_power
    interf_t = gm.g @ p_t - diag * p_t + gm.noise_power
    return np.log2(d_full) - np.log2(interf_t) - rho @ (p - p_t)


def empty_association(num_ius, num_riss):
    """The Association that serves nobody through a RIS."""
    return Association(links=np.zeros(num_ius, dtype=np.intp),
                       num_riss=num_riss)


def served_ris(assoc, k):
    """Index of the RIS serving IU k, or -1."""
    return int(assoc.links[k]) - 1


def find_blocking_pair(u, assoc):
    """First (k, l) that would defect together under u, or None if stable."""
    u = _check_utilities(u)
    k_count, l_count = u.shape
    matched_u = np.zeros(k_count)
    holder = [-1] * l_count
    for k in np.flatnonzero(assoc.links):
        l = assoc.links[k] - 1
        matched_u[k] = u[k, l]
        holder[l] = k
    for k in range(k_count):
        for l in range(l_count):
            if u[k, l] <= 0.0 or assoc.links[k] == l + 1:
                continue
            if u[k, l] <= matched_u[k]:
                continue
            cur = holder[l]
            if cur < 0 or u[k, l] > u[cur, l]:
                return (k, l)
    return None


# -- random inputs ----------------------------------------------------------

def rand_complex(rng, *shape):
    """Standard complex normal array: real parts drawn first, then
    imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_channelset(rng, k, l, m, n):
    """ChannelSet of dense standard complex normal links, drawn in the
    order direct, ap_ris, ris_iu."""
    return ChannelSet(direct=rand_complex(rng, k, n),
                      ap_ris=rand_complex(rng, l, m, n),
                      ris_iu=rand_complex(rng, l, k, m),
                      carrier_freq_hz=15e9)


def smooth_instance(rng, k):
    """GainMatrix whose noise is far above its gains. That keeps the
    surrogate curvature below about 1e-2 per axis, so a 200-step grid
    localizes its maximum well inside a 1e-6 comparison tolerance."""
    g = rng.uniform(0.1, 0.8, size=(k, k))
    noise = rng.uniform(20.0, 30.0, size=k)
    return GainMatrix(g=g, noise_power=noise)
