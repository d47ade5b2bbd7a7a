"""SINR, per-IU spectral efficiency, and network sum rate."""

from dataclasses import dataclass

import numpy as np

from .channel import gains_for_association
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
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise NumericError("powers must be finite and >= 0")
    return p


def sum_rate(gm, p):
    """Network spectral efficiency: R_k = log2(1 + SINR_k), summed over IUs."""
    p = _check_power(gm, p)
    diag = np.diag(gm.g)
    interf = gm.g @ p - diag * p + gm.noise_power
    lam = p * diag / interf
    rates = np.log2(1.0 + lam)
    return RateReport(per_iu_sinr=lam, per_iu_rate=rates,
                      sum_rate=float(rates.sum()))


def association_sum_rate(channels, assoc, p, noise_power_w):
    """Full coupled sum rate of an association at power vector p."""
    gm = gains_for_association(channels, assoc, noise_power_w)
    return sum_rate(gm, p).sum_rate
