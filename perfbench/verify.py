"""Checks a serial sweep's outputs against the independent oracle.

`Verifier.install` wraps three names in fr3ris.experiment to see, for
each realization, its point config and channels, every scheme's
association with the utilities and power it was chosen at, every SCA
solve with its trace, and the per-scheme sum rates. Each realization is
checked as soon as it ends and then released, so the channels of many
realizations are never held at once. `check_csv` then ties the CSV to
the rates seen, and `check_dense_channels` compares the oracle with
fr3ris on random dense channels, which the geometric workloads never
produce. `check_matching` does the same for deferred acceptance on
random utilities.
"""

import csv
import io
import math

import numpy as np
from fr3ris.association import match_deferred_acceptance
from fr3ris.channel import ChannelSet, gains_for_association
from fr3ris.rate import association_sum_rate

import oracle

RATE_RTOL = 1e-9
GAIN_RTOL = 1e-9
TRACE_SLACK = 1e-9  # absolute, bit/s/Hz, as in the package's own gate
BUDGET_RTOL = 1e-12


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _gains_close(got, want):
    scale = float(np.max(np.abs(want)))
    return bool(np.all(np.abs(got - want) <= GAIN_RTOL * np.abs(want)
                       + 1e-12 * scale))


def _budget_w(dbm):
    return 10.0 ** (dbm / 10.0) / 1000.0


class Verifier:
    """Collects failures as readable strings; an empty list means pass."""

    def __init__(self):
        self.failures = []
        self.rates = []        # per realization: {scheme: sum rate}, in order
        self.point_cfgs = []   # per realization: its point config
        self.checked = 0       # (realization, scheme) results checked
        self.failed_ops = set()
        self._cur = None

    def fail(self, what, op=None):
        self.failures.append(what)
        if op is not None:
            self.failed_ops.add(op)

    def install(self, experiment):
        run_schemes = experiment._run_schemes
        associate = experiment._associate
        sca = experiment.sca_power_for_config

        def traced_run_schemes(cfg, index, schemes):
            self._cur = {"chosen": {}, "power": {}, "first": {},
                         "scheme": None, "channels": None, "prefix_p": None}
            out = run_schemes(cfg, index, schemes)
            self._check_realization(cfg, index, schemes, out)
            self._cur = None
            return out

        def traced_associate(scheme, channels, u, p, cfg, rng):
            assoc = associate(scheme, channels, u, p, cfg, rng)
            cur = self._cur
            cur["scheme"] = scheme
            cur["channels"] = channels
            cur["chosen"][scheme] = assoc
            cur["first"].setdefault(scheme, (assoc, np.array(p), np.array(u)))
            return assoc

        def traced_sca(gm, cfg, init=None):
            p, trace = sca(gm, cfg, init=init)
            obj = trace.objective_per_iteration
            if cfg.rho_variant == "derivative":
                drop = min((b - a for a, b in zip(obj, obj[1:])), default=0.0)
                if drop < -TRACE_SLACK:
                    self.fail(f"SCA trace decreases by {-drop:.3e}")
            cur = self._cur
            if cur["scheme"] is None:
                cur["prefix_p"] = p
            else:
                cur["power"][cur["scheme"]] = p
            return p, trace

        experiment._run_schemes = traced_run_schemes
        experiment._associate = traced_associate
        experiment.sca_power_for_config = traced_sca

    def _check_realization(self, cfg, index, schemes, out):
        realization = len(self.rates)
        self.rates.append(out)
        self.point_cfgs.append(cfg)
        cur = self._cur
        ch = cur["channels"]
        if ch is None:
            self.fail(f"realization {index}: no association was made")
            return
        d, a, r = ch.direct, ch.ap_ris, ch.ris_iu
        noise = cfg.noise_power_w
        want_noise = oracle.noise_power_w(cfg.noise_density_dbm_hz,
                                          cfg.noise_figure_db, cfg.bandwidth_hz)
        if not _close(noise, want_noise, RATE_RTOL):
            self.fail(f"noise power {noise} W, expected {want_noise} W")
        where = f"realization {index} (#{realization})"

        for scheme in schemes:
            op = (realization, scheme)
            self.checked += 1
            gamma = cur["chosen"][scheme].gamma
            p = cur["power"].get(scheme, cur["prefix_p"])
            if not (np.all(p >= 0.0)
                    and p.sum() <= cfg.p_max_w * (1.0 + BUDGET_RTOL)):
                self.fail(f"{where} {scheme}: infeasible power {p.tolist()} "
                          f"for budget {cfg.p_max_w} W", op)
            g_want = oracle.gain_matrix(d, a, r, gamma)
            g_got = gains_for_association(ch, gamma, noise).g
            if not _gains_close(g_got, g_want):
                self.fail(f"{where} {scheme}: gains differ from the oracle "
                          f"by up to {np.max(np.abs(g_got - g_want)):.3e}", op)
            want = sum(oracle.user_rates(g_want, p, noise))
            if not _close(out[scheme], want, RATE_RTOL):
                self.fail(f"{where} {scheme}: sum rate {out[scheme]!r}, "
                          f"oracle {want!r}", op)

        first = cur["first"]
        if "matching" in first:
            assoc, p, u = first["matching"]
            u_want = oracle.utility(d, a, r, p, noise)
            if not np.allclose(u, u_want, rtol=RATE_RTOL, atol=1e-12):
                self.fail(f"{where}: matching utilities differ from the "
                          f"oracle by up to {np.max(np.abs(u - u_want)):.3e}",
                          (realization, "matching"))
            pair = oracle.blocking_pair(u, assoc.gamma)
            if pair is not None:
                self.fail(f"{where}: matching has blocking pair {pair}",
                          (realization, "matching"))
        if "exhaustive" in first:
            best, p_e, _ = first["exhaustive"]
            best_rate = oracle.sum_rate(d, a, r, best.gamma, p_e, noise)
            for scheme, (assoc, p, _) in first.items():
                if scheme == "exhaustive" or not np.array_equal(p, p_e):
                    continue
                other = oracle.sum_rate(d, a, r, assoc.gamma, p_e, noise)
                if other > best_rate * (1.0 + RATE_RTOL):
                    self.fail(f"{where}: {scheme} scores {other!r} above "
                              f"exhaustive {best_rate!r} at its power",
                              (realization, "exhaustive"))

    def check_csv(self, text, sweep_var, values, realizations):
        """The CSV's rows are the means of the per-realization rates seen,
        point by point, and the points are the ones the workload asked for."""
        rows = list(csv.DictReader(io.StringIO(text)))
        schemes = list(self.rates[0]) if self.rates else []
        if len(self.rates) != len(values) * realizations:
            self.fail(f"saw {len(self.rates)} realizations, expected "
                      f"{len(values)} x {realizations}")
            return
        if len(rows) != len(values) * len(schemes):
            self.fail(f"CSV has {len(rows)} rows, expected "
                      f"{len(values)} x {len(schemes)}")
            return
        for vi, value in enumerate(values):
            block = slice(vi * realizations, (vi + 1) * realizations)
            for cfg in self.point_cfgs[block]:
                if sweep_var == "power":
                    ok = _close(cfg.p_max_w, _budget_w(value), BUDGET_RTOL)
                else:
                    ok = cfg.num_elements == value
                if not ok:
                    self.fail(f"a realization of point {value} ran with "
                              f"budget {cfg.p_max_w} W, {cfg.num_elements} "
                              "elements")
                    break
            for si, scheme in enumerate(schemes):
                row = rows[vi * len(schemes) + si]
                rates = [out[scheme] for out in self.rates[block]]
                want = sum(rates) / len(rates)
                if (row["sweep_var"] != sweep_var
                        or not math.isclose(float(row["sweep_value"]), value)
                        or row["scheme"] != scheme
                        or int(row["realizations"]) != realizations
                        or not _close(float(row["mean_sum_rate_bps_hz"]),
                                      want, 1e-12)):
                    self.fail(f"CSV row {row} does not match point {value}, "
                              f"{scheme}, mean {want!r} of {realizations}")


def check_dense_channels(rng, cases=12):
    """Oracle against fr3ris gains and sum rate on random complex Gaussian
    channels and random associations. Returns failure strings."""
    failures = []
    for case in range(cases):
        k, l = int(rng.integers(1, 6)), int(rng.integers(0, 4))
        m, n = int(rng.choice([1, 4, 16, 64])), int(rng.integers(1, 9))

        def gauss(*shape):
            return (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-3, 0)

        d, a, r = gauss(k, n), gauss(l, m, n), gauss(l, k, m)
        gamma = np.zeros((k, l), dtype=np.int64)
        surfaces = list(rng.permutation(l))
        for user in rng.permutation(k):
            pick = int(rng.integers(len(surfaces) + 1))
            if pick < len(surfaces):
                gamma[user, surfaces.pop(pick)] = 1
        noise = 10.0 ** rng.uniform(-8, -4)
        p = rng.uniform(0.0, 1.0, k) * 0.2 / k
        ch = ChannelSet(direct=d, ap_ris=a, ris_iu=r, carrier_freq_hz=15e9)
        g_want = oracle.gain_matrix(d, a, r, gamma)
        g_got = gains_for_association(ch, gamma, noise).g
        if not _gains_close(g_got, g_want):
            failures.append(
                f"dense case {case} (K={k} L={l} M={m} N={n}): gains differ "
                f"by up to {np.max(np.abs(g_got - g_want)):.3e}")
            continue
        want = sum(oracle.user_rates(g_want, p, noise))
        got = association_sum_rate(ch, gamma, p, noise)
        if not _close(got, want, RATE_RTOL):
            failures.append(f"dense case {case}: sum rate {got!r}, "
                            f"oracle {want!r}")
    return failures


def check_matching(rng, cases=200):
    """Deferred acceptance on random utility matrices, some entries <= 0,
    against the oracle's blocking-pair test. At the solved power of the
    workloads a single user holds all the power, so their own matchings
    are trivially stable; these cases make the check bite. Returns
    failure strings."""
    failures = []
    for case in range(cases):
        k, l = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        u = rng.uniform(-0.2, 1.0, (k, l))
        assoc = match_deferred_acceptance(u)
        pair = oracle.blocking_pair(u, assoc.gamma)
        if pair is not None:
            failures.append(f"random matching case {case} (K={k} L={l}): "
                            f"blocking pair {pair}")
    return failures

