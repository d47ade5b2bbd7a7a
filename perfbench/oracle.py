"""Independent link-gain and rate oracle.

Written from the model's defining formulas and sharing no code with
fr3ris.channel, fr3ris.rate or fr3ris.association:

* co-phasing: surface l, serving user s, gives element m the unit
  coefficient exp(j (arg d_s[0] - arg(conj(A_l[m, 0]) r_ls[m]))), so the
  cascade of user s lands in phase with its direct channel at antenna 0;
* user k's channel as seen by the beam of user i is
  d_k + A_l^H (phi_l o r_lk) with l the surface serving i (d_k alone when
  i uses no surface);
* MRT: w_i is user i's own channel, normalized;
* g[k, i] = |h_{k via i}^H w_i|^2 and
  rate = sum_k log2(1 + p_k g[k, k] / (sum_{i != k} p_i g[k, i] + noise)).
"""

import math

import numpy as np


def surfaces_of(gamma):
    """(surface serving each user or -1, user served by each surface or -1)
    for a binary K x L association; rejects anything not one-to-one."""
    gamma = np.asarray(gamma)
    num_ius, num_riss = gamma.shape
    surface_of = [-1] * num_ius
    user_of = [-1] * num_riss
    for k in range(num_ius):
        for l in range(num_riss):
            if gamma[k, l] == 0:
                continue
            if gamma[k, l] != 1 or surface_of[k] >= 0 or user_of[l] >= 0:
                raise ValueError(f"association is not one-to-one at ({k}, {l})")
            surface_of[k] = l
            user_of[l] = k
    return surface_of, user_of


def gain_matrix(direct, ap_ris, ris_iu, gamma):
    """K x K link gains of one association; see the module docstring."""
    surface_of, user_of = surfaces_of(gamma)
    num_ius = direct.shape[0]
    cascade = {}
    for l, s in enumerate(user_of):
        if s < 0:
            continue
        via = np.conj(ap_ris[l, :, 0]) * ris_iu[l, s, :]
        phi = np.exp(1j * (np.angle(direct[s, 0]) - np.angle(via)))
        through = np.einsum("mn,km->kn", np.conj(ap_ris[l]), phi * ris_iu[l])
        for k in range(num_ius):
            cascade[l, k] = through[k]

    def seen(k, l):
        return direct[k] if l < 0 else direct[k] + cascade[l, k]

    g = np.empty((num_ius, num_ius))
    for i in range(num_ius):
        h_i = seen(i, surface_of[i])
        w_i = h_i / math.sqrt(float(np.vdot(h_i, h_i).real))
        for k in range(num_ius):
            g[k, i] = abs(np.vdot(seen(k, surface_of[i]), w_i)) ** 2
    return g


def user_rates(g, p, noise):
    """Per-user log2(1 + SINR) with plain loops."""
    num_ius = len(p)
    rates = []
    for k in range(num_ius):
        interference = noise
        for i in range(num_ius):
            if i != k:
                interference += p[i] * g[k, i]
        rates.append(math.log2(1.0 + p[k] * g[k, k] / interference))
    return rates


def sum_rate(direct, ap_ris, ris_iu, gamma, p, noise):
    return sum(user_rates(gain_matrix(direct, ap_ris, ris_iu, gamma), p, noise))


def utility(direct, ap_ris, ris_iu, p, noise):
    """u[k, l]: user k's own rate when surface l serves it alone."""
    num_ius, num_riss = direct.shape[0], ap_ris.shape[0]
    u = np.empty((num_ius, num_riss))
    for k in range(num_ius):
        for l in range(num_riss):
            gamma = np.zeros((num_ius, num_riss), dtype=np.int64)
            gamma[k, l] = 1
            g = gain_matrix(direct, ap_ris, ris_iu, gamma)
            u[k, l] = user_rates(g, p, noise)[k]
    return u


def blocking_pair(u, gamma):
    """A (user, surface) pair that both prefer each other to their current
    partners under utilities u, or None. Users only accept u > 0 and
    surfaces break ties towards the lower user index."""
    surface_of, user_of = surfaces_of(gamma)
    num_ius, num_riss = u.shape
    for k in range(num_ius):
        current = u[k, surface_of[k]] if surface_of[k] >= 0 else 0.0
        for l in range(num_riss):
            if l == surface_of[k] or u[k, l] <= 0.0 or u[k, l] <= current:
                continue
            holder = user_of[l]
            if holder < 0 or (u[k, l], -k) > (u[holder, l], -holder):
                return k, l
    return None


def noise_power_w(density_dbm_hz, noise_figure_db, bandwidth_hz):
    """Thermal noise power in watts over the band."""
    dbm = density_dbm_hz + noise_figure_db + 10.0 * math.log10(bandwidth_hz)
    return 10.0 ** (dbm / 10.0) / 1000.0
