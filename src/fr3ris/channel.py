"""Channel synthesis and link gains.

Geometry-deterministic line-of-sight model: every coefficient of a link is
sqrt(pathloss) * exp(-j*omega*d) built from the link's center-to-center
distance, so all antennas/elements of one link share magnitude and phase.
Element spacing therefore never enters; randomness comes from IU placement
only. On top of that: RIS co-phasing toward the served IU, MRT precoding
on the effective channel, and the K x K gain matrix feeding SINRs.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionError, NumericError

SPEED_OF_LIGHT = 299_792_458.0
_MIN_DISTANCE = 1e-3


@dataclass(frozen=True)
class ChannelSet:
    """Raw link coefficients for one realization."""

    direct: np.ndarray   # (K, N) AP -> IU
    ap_ris: np.ndarray   # (L, M, N) AP -> RIS
    ris_iu: np.ndarray   # (L, K, M) RIS -> IU
    carrier_freq_hz: float

    def __post_init__(self):
        d = np.asarray(self.direct, dtype=np.complex128)
        a = np.asarray(self.ap_ris, dtype=np.complex128)
        r = np.asarray(self.ris_iu, dtype=np.complex128)
        if d.ndim != 2:
            raise DimensionError(f"direct must be (K, N), got {d.shape}")
        k, n = d.shape
        if a.ndim != 3 or a.shape[2] != n:
            raise DimensionError(f"ap_ris must be (L, M, {n}), got {a.shape}")
        l, m = a.shape[0], a.shape[1]
        if r.shape != (l, k, m):
            raise DimensionError(f"ris_iu must be ({l}, {k}, {m}), got {r.shape}")
        for name, arr in (("direct", d), ("ap_ris", a), ("ris_iu", r)):
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{name} contains non-finite entries")
        object.__setattr__(self, "direct", d)
        object.__setattr__(self, "ap_ris", a)
        object.__setattr__(self, "ris_iu", r)

    @property
    def num_ius(self):
        return self.direct.shape[0]

    @property
    def num_antennas(self):
        return self.direct.shape[1]

    @property
    def num_riss(self):
        return self.ap_ris.shape[0]

    @property
    def num_elements(self):
        return self.ap_ris.shape[1]


@dataclass(frozen=True)
class RisConfig:
    """Reflection profile: per-element amplitude and phase for every RIS."""

    amplitudes: np.ndarray  # (L, M) in [0, 1]
    phases: np.ndarray      # (L, M) in [0, 2*pi)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.float64)
        ph = np.asarray(self.phases, dtype=np.float64)
        if amp.ndim != 2 or amp.shape != ph.shape:
            raise DimensionError(
                f"amplitudes {amp.shape} and phases {ph.shape} must both be (L, M)")
        if amp.size and (amp.min() < 0.0 or amp.max() > 1.0):
            raise NumericError("amplitudes must lie in [0, 1]")
        if ph.size and (ph.min() < 0.0 or ph.max() >= 2.0 * np.pi):
            raise NumericError("phases must lie in [0, 2*pi)")
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "phases", ph)

    def reflection_coefficients(self, l):
        return self.amplitudes[l] * np.exp(1j * self.phases[l])


@dataclass(frozen=True)
class GainMatrix:
    """g[k, i]: power gain of interferer i's beam at IU k, plus noise."""

    g: np.ndarray            # (K, K)
    noise_power: np.ndarray  # (K,) watts

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionError(f"g must be square, got {g.shape}")
        noise = np.broadcast_to(
            np.asarray(self.noise_power, dtype=np.float64), (g.shape[0],)).copy()
        if not np.all(np.isfinite(g)) or np.any(g < 0.0):
            raise NumericError("gain entries must be finite and >= 0")
        if not np.all(np.isfinite(noise)) or np.any(noise <= 0.0):
            raise NumericError("noise power must be finite and > 0")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "noise_power", noise)

    @property
    def num_ius(self):
        return self.g.shape[0]


def _gamma_matrix(assoc):
    gamma = np.asarray(getattr(assoc, "gamma", assoc))
    if gamma.ndim != 2:
        raise DimensionError(f"association matrix must be 2-d, got {gamma.shape}")
    return gamma


def pathloss(d_m, freq_hz, exponent=2.0):
    """Linear power gain (c / 4 pi f)^2 * d^-exponent; free-space at exponent 2."""
    d = float(d_m)
    f = float(freq_hz)
    if d < _MIN_DISTANCE:
        raise NumericError(f"distance {d} m below {_MIN_DISTANCE} m minimum")
    if f <= 0.0:
        raise NumericError(f"carrier frequency must be > 0, got {f}")
    return (SPEED_OF_LIGHT / (4.0 * np.pi * f)) ** 2 * d ** (-float(exponent))


def synthesize_channels(topo, cfg):
    """Build the ChannelSet for one topology under the scenario config."""
    f = cfg.carrier_freq_hz
    alpha = cfg.pathloss_exponent
    omega = 2.0 * np.pi * f / SPEED_OF_LIGHT
    n, m = cfg.num_antennas, cfg.num_elements
    k, l = topo.num_ius, topo.num_riss

    def coeff(d):
        return np.sqrt(pathloss(d, f, alpha)) * np.exp(-1j * omega * d)

    direct = np.empty((k, n), dtype=np.complex128)
    for i, d in enumerate(topo.ap_iu_distances()):
        direct[i, :] = coeff(d)
    ap_ris = np.empty((l, m, n), dtype=np.complex128)
    for j, d in enumerate(topo.ap_ris_distances()):
        ap_ris[j, :, :] = coeff(d)
    ris_iu = np.empty((l, k, m), dtype=np.complex128)
    d_lk = topo.ris_iu_distances()
    for j in range(l):
        for i in range(k):
            ris_iu[j, i, :] = coeff(d_lk[j, i])
    return ChannelSet(direct=direct, ap_ris=ap_ris, ris_iu=ris_iu,
                      carrier_freq_hz=f)


def configure_ris_cophase(channels, assoc):
    """Unit amplitudes; phases align each served IU's cascaded terms with its
    direct channel at reference antenna 0. Unassigned RISs keep zero phase."""
    gamma = _gamma_matrix(assoc)
    l_count, m_count = channels.num_riss, channels.num_elements
    phases = np.zeros((l_count, m_count))
    for l in range(l_count):
        served = np.flatnonzero(gamma[:, l])
        if served.size == 0:
            continue
        k = int(served[0])
        target = np.angle(channels.direct[k, 0])
        through = np.conj(channels.ap_ris[l, :, 0]) * channels.ris_iu[l, k, :]
        phases[l, :] = np.mod(target - np.angle(through), 2.0 * np.pi)
    return RisConfig(amplitudes=np.ones((l_count, m_count)), phases=phases)


def effective_channel(channels, ris, assoc, k):
    """h_k = direct_k + sum over associated RISs of H_l^H Theta_l h_{l,k}."""
    gamma = _gamma_matrix(assoc)
    if not 0 <= k < channels.num_ius:
        raise DimensionError(f"IU index {k} out of range")
    if gamma.shape != (channels.num_ius, channels.num_riss):
        raise DimensionError(
            f"association matrix {gamma.shape} does not match "
            f"(K, L) = ({channels.num_ius}, {channels.num_riss})")
    h = channels.direct[k].copy()
    for l in np.flatnonzero(gamma[k]):
        coeff = ris.reflection_coefficients(l) * channels.ris_iu[l, k]
        h += numerics.matvec_hermitian(channels.ap_ris[l], coeff)
    return h


def mrt_precoder(channels, ris, assoc):
    """Unit-norm beam per IU along its effective channel."""
    k_count = channels.num_ius
    directions = np.empty((k_count, channels.num_antennas), dtype=np.complex128)
    for k in range(k_count):
        h = effective_channel(channels, ris, assoc, k)
        norm = np.linalg.norm(h)
        if norm <= 0.0:
            raise NumericError(f"effective channel of IU {k} is zero")
        directions[k] = h / norm
    return directions


def _ris_of(gamma):
    k_count = gamma.shape[0]
    out = np.full(k_count, -1, dtype=np.int64)
    for k in range(k_count):
        hits = np.flatnonzero(gamma[k])
        if hits.size > 1:
            raise DimensionError(
                f"IU {k} is associated with {hits.size} RISs; gains need <= 1")
        if hits.size:
            out[k] = hits[0]
    return out


def compute_gains(channels, ris, assoc, directions, noise_power_w):
    """K x K gain matrix: entry (k, i) gates IU k's channel by interferer i's
    association, then takes |<channel, beam_i>|^2."""
    gamma = _gamma_matrix(assoc)
    ris_of = _ris_of(gamma)
    k_count, n = channels.direct.shape
    directions = np.ascontiguousarray(directions, dtype=np.complex128)
    if directions.shape != (k_count, n):
        raise DimensionError(
            f"directions must be ({k_count}, {n}), got {directions.shape}")
    cascades = np.zeros((channels.num_riss, k_count, n), dtype=np.complex128)
    for l in np.flatnonzero(gamma.any(axis=0)):
        coeffs = ris.reflection_coefficients(l)
        for k in range(k_count):
            cascades[l, k] = numerics.matvec_hermitian(
                channels.ap_ris[l], coeffs * channels.ris_iu[l, k])
    direct = np.ascontiguousarray(channels.direct)
    g = np.empty((k_count, k_count), dtype=np.float64)
    for i in range(k_count):
        li = ris_of[i]
        h = direct if li < 0 else direct + cascades[li]
        inner = np.conj(h) @ directions[i]
        g[:, i] = inner.real ** 2 + inner.imag ** 2
    return GainMatrix(g=g, noise_power=noise_power_w)


def gains_for_association(channels, assoc, noise_power_w):
    """Co-phase, precode, and compute gains for one association in one step."""
    ris = configure_ris_cophase(channels, assoc)
    directions = mrt_precoder(channels, ris, assoc)
    return compute_gains(channels, ris, assoc, directions, noise_power_w)
