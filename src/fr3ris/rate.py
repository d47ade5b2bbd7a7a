"""SINR, per-IU spectral efficiency, and network sum rate."""

from dataclasses import dataclass

import numpy as np

from .channel import GainMatrix, gains_for_association, gather_gains
from .errors import DimensionError, NumericError


@dataclass(frozen=True)
class RateReport:
    per_iu_sinr: np.ndarray  # (K,) linear
    per_iu_rate: np.ndarray  # (K,) bits/s/Hz
    sum_rate: float          # bits/s/Hz


def _check_power(gm, p):
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (gm.num_ius,):
        raise DimensionError(
            f"power vector must have shape ({gm.num_ius},), got {p.shape}")
    if not np.isfinite(p).all() or (p < 0.0).any():
        raise NumericError("powers must be finite and >= 0")
    return p


def _interference(gm, p):
    """Own gains g[k, k] and interference plus noise sum_{i != k} p_i g[k, i]
    + noise_k of every IU (per matrix of a stack) at checked powers p."""
    diag = np.diagonal(gm.g, axis1=-2, axis2=-1)
    return diag, gm.g @ p - diag * p + gm.noise_power


def _rates(gm, p):
    """(SINR, log2(1 + SINR)) of every IU of gm at power p."""
    p = _check_power(gm, p)
    diag, interf = _interference(gm, p)
    lam = p * diag / interf
    return lam, np.log2(1.0 + lam)


def sum_rate(gm, p):
    """Network spectral efficiency: R_k = log2(1 + SINR_k), summed over IUs."""
    lam, rates = _rates(gm, p)
    return RateReport(per_iu_sinr=lam, per_iu_rate=rates,
                      sum_rate=float(rates.sum()))


def link_rates(channels, links, p, noise_power_w):
    """(C, K) per-IU rates of C associations given as link vectors (rows
    of links, see channel.gather_gains) at power p: the rates sum_rate
    gives each association's gain matrix, scored in one batch."""
    gm = GainMatrix(g=gather_gains(channels, links), noise_power=noise_power_w)
    return _rates(gm, p)[1]


def association_sum_rate(channels, assoc, p, noise_power_w):
    """Full coupled sum rate of an association at power vector p."""
    gm = gains_for_association(channels, assoc, noise_power_w)
    return sum_rate(gm, p).sum_rate
