"""Acceptance gates for the whole library.

Ten criteria, each printing one verdict line straight to the terminal:
surrogate bound and monotonicity, gradient and inner-solver oracles,
matching stability, exhaustive dominance, the two Monte Carlo trend
figures, cross-thread determinism, and the rate engine oracle.
"""

import subprocess
import sys
import time

import numpy as np

from oracles import (blocking_pair_oracle, grid_max, interference,
                     random_feasible_points, rate_oracle, smooth_instance,
                     surrogate_batch, surrogate_objective)
from fr3ris.association import match_deferred_acceptance
from fr3ris.channel import GainMatrix
from fr3ris.config import ScenarioConfig
from fr3ris.experiment import _run_schemes, sweep
from fr3ris.power_sca import sca_power, solve_inner, surrogate_gradient
from fr3ris.rate import sum_rate


def _report(capsys, number, ok, detail, elapsed, budget_s):
    line = (f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} "
            f"{detail}, {elapsed:.1f}s (budget {budget_s:.0f}s)")
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok and elapsed < budget_s, line


def _instance(rng, k):
    g = rng.uniform(0.1, 2.0, size=(k, k))
    noise = rng.uniform(0.3, 1.0, size=k)
    return GainMatrix(g=g, noise_power=noise)


def _batch_rates(g, sigma2, points):
    received = points @ g.T + sigma2
    interf = received - points * np.diag(g)
    return np.log2(received) - np.log2(interf)


def test_criterion_01_surrogate_minorant(capsys):
    # per-IU surrogate rate never exceeds the true rate on feasible power
    # vectors and is tight at the expansion point
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_gap = -np.inf
    worst_expansion = 0.0
    for _ in range(100):
        gm = _instance(rng, 3)
        p_max = float(rng.uniform(0.5, 2.0))
        p_t = random_feasible_points(rng, 1, 3, p_max)[0]
        rho = surrogate_gradient(gm, p_t)
        interf_t = np.array([interference(gm, p_t, k) for k in range(3)])
        points = random_feasible_points(rng, 1000, 3, p_max)
        received = points @ gm.g.T + gm.noise_power
        bound = (np.log2(received) - np.log2(interf_t)
                 - (points - p_t) @ rho.T)
        true = _batch_rates(gm.g, gm.noise_power, points)
        worst_gap = max(worst_gap, float((bound - true).max()))
        at_t = (np.log2(p_t @ gm.g.T + gm.noise_power) - np.log2(interf_t))
        true_t = _batch_rates(gm.g, gm.noise_power, p_t[None, :])[0]
        worst_expansion = max(worst_expansion,
                              float(np.abs(at_t - true_t).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_expansion <= 1e-9
    _report(capsys, 1, ok,
            f"minorant: max overshoot {worst_gap:.2e} (tol 1e-9), "
            f"expansion-point dev {worst_expansion:.2e}", elapsed, 10)


def test_criterion_02_sca_monotone_sum_rate(capsys):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_drop = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        gm = _instance(rng, k)
        p_max = float(rng.uniform(0.5, 2.0))
        _, trace = sca_power(gm, p_max)
        steps = np.diff(trace.objective_per_iteration)
        if steps.size:
            worst_drop = min(worst_drop, float(steps.min()))
    elapsed = time.perf_counter() - t0
    ok = worst_drop >= -1e-9
    _report(capsys, 2, ok,
            f"sum-rate trace never drops more than {-worst_drop:.2e} "
            f"per outer iteration (slack 1e-9)", elapsed, 30)


def test_criterion_03_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    h = 1e-6
    worst_rel = 0.0       # entries with a resolvable slope
    worst_zero = 0.0      # structurally zero entries, roundoff only
    for _ in range(100):
        k = int(rng.integers(2, 6))
        gm = _instance(rng, k)
        p_t = random_feasible_points(rng, 1, k, 1.5)[0] + 0.05
        rho = surrogate_gradient(gm, p_t)
        for row in range(k):
            for col in range(k):
                hi, lo = p_t.copy(), p_t.copy()
                hi[col] += h
                lo[col] -= h
                fd = (np.log2(interference(gm, hi, row))
                      - np.log2(interference(gm, lo, row))) / (2 * h)
                if max(abs(fd), abs(rho[row, col])) > 1e-6:
                    rel = abs(rho[row, col] - fd) / abs(fd)
                    worst_rel = max(worst_rel, rel)
                else:
                    worst_zero = max(worst_zero, abs(rho[row, col] - fd))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and worst_zero <= 1e-8
    _report(capsys, 3, ok,
            f"interference-slope coefficients vs central differences: "
            f"max rel err {worst_rel:.2e} (tol 1e-5), zero-slope residue "
            f"{worst_zero:.1e}", elapsed, 5)


def test_criterion_04_inner_solver_matches_grid(capsys):
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    sizes = [1, 2, 3] * 6 + [2, 3]
    for k in sizes:
        gm = smooth_instance(rng, k)
        p_max = float(rng.uniform(0.8, 1.5))
        p_t = random_feasible_points(rng, 1, k, p_max)[0]
        rho = surrogate_gradient(gm, p_t)
        p, _, _ = solve_inner(gm, p_t, p_max)
        achieved = surrogate_objective(gm, p, rho)
        best = grid_max(
            lambda pts: surrogate_batch(gm.g, gm.noise_power, rho, pts),
            k, p_max)
        worst = max(worst, abs(achieved - best))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    _report(capsys, 4, ok,
            f"inner solver vs {len(sizes)} dense grids (step p_max/200): "
            f"max objective gap {worst:.2e} (tol 1e-6)", elapsed, 60)


def test_criterion_05_matching_is_stable(capsys):
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        l = int(rng.integers(1, 7))
        u = rng.uniform(-1.0, 2.0, size=(k, l))
        u[rng.random(size=u.shape) < 0.1] = 0.0
        assoc = match_deferred_acceptance(u)
        gamma = assoc.gamma
        assert set(np.unique(gamma)) <= {0.0, 1.0}
        assert gamma.sum(axis=1).max(initial=0) <= 1
        assert gamma.sum(axis=0).max(initial=0) <= 1
        assert blocking_pair_oracle(u, assoc.links) is None
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 1000
    _report(capsys, 5, ok,
            f"deferred acceptance: 0 blocking pairs and exact one-to-one "
            f"constraints on {checked} instances", elapsed, 10)


def test_criterion_06_exhaustive_dominates_matching(capsys):
    cfg = ScenarioConfig(num_ius=3, num_riss=3, ris_elements_y=25,
                         ris_elements_z=25, power_rounds=1,
                         schemes=("matching", "exhaustive"))
    t0 = time.perf_counter()
    match = np.empty(200)
    exhaustive = np.empty(200)
    violations = 0
    for i in range(200):
        rates = _run_schemes(cfg, i, cfg.schemes)
        match[i] = rates["matching"]
        exhaustive[i] = rates["exhaustive"]
        if rates["exhaustive"] < rates["matching"]:
            violations += 1
    elapsed = time.perf_counter() - t0
    ratio = match.mean() / exhaustive.mean()
    ok = violations == 0
    _report(capsys, 6, ok,
            f"exhaustive >= matching on 200/200 realizations "
            f"({violations} violations); mean(matching)/mean(exhaustive) "
            f"= {ratio:.4f}", elapsed, 300)


def _trend_holds(mean, stderr):
    # non-decreasing across sweep values within two combined standard errors
    slack = 2.0 * np.sqrt(stderr[1:] ** 2 + stderr[:-1] ** 2)
    return bool((mean[1:] >= mean[:-1] - slack).all())


def test_criterion_07_power_sweep_trends(capsys):
    cfg = ScenarioConfig(num_ius=3, num_riss=3, ris_elements_y=25,
                         ris_elements_z=25, realizations=200,
                         schemes=("matching", "greedy", "random"))
    t0 = time.perf_counter()
    res = sweep(cfg, "power")
    elapsed = time.perf_counter() - t0
    col = {s: res.schemes.index(s) for s in cfg.schemes}
    rising = all(_trend_holds(res.mean[:, col[s]], res.stderr[:, col[s]])
                 for s in cfg.schemes)
    ordered = True
    for a, b in (("matching", "greedy"), ("greedy", "random")):
        gap = res.mean[:, col[a]] - res.mean[:, col[b]]
        slack = 2.0 * np.sqrt(res.stderr[:, col[a]] ** 2
                              + res.stderr[:, col[b]] ** 2)
        ordered = ordered and bool((gap >= -slack).all())
    ok = rising and ordered
    lead = res.mean[:, col["matching"]] - res.mean[:, col["random"]]
    _report(capsys, 7, ok,
            f"power sweep 10->23 dBm: non-decreasing={rising}, "
            f"matching>=greedy>=random within 2 SE={ordered}, "
            f"matching lead over random {lead.min():.2f}"
            f"..{lead.max():.2f} b/s/Hz", elapsed, 600)


def test_criterion_08_element_sweep_trend(capsys):
    cfg = ScenarioConfig(num_ius=3, num_riss=3, realizations=200,
                         schemes=("matching", "greedy", "random"))
    t0 = time.perf_counter()
    res = sweep(cfg, "elements")
    elapsed = time.perf_counter() - t0
    per_scheme = {s: _trend_holds(res.mean[:, i], res.stderr[:, i])
                  for i, s in enumerate(res.schemes)}
    ok = all(per_scheme.values())
    span = res.mean[-1] - res.mean[0]
    _report(capsys, 8, ok,
            f"element sweep {res.values}: non-decreasing per scheme "
            f"{per_scheme}, gain from 100 to 2500 elements "
            f"{span.min():.2f}..{span.max():.2f} b/s/Hz", elapsed, 600)


def test_criterion_09_thread_count_does_not_change_csv(capsys, tmp_path,
                                                       cli_env):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "num_antennas = 8\nnum_ius = 3\nnum_riss = 3\n"
        "ris_elements_y = 2\nris_elements_z = 2\n"
        "realizations = 6\nmaster_seed = 5\n")
    outputs = []
    t0 = time.perf_counter()
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        env = dict(cli_env, FR3_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "fr3ris.cli", "sweep-power",
             "--config", str(cfg_path), "--out", str(out),
             "--values", "10,23"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1]
    _report(capsys, 9, ok,
            f"FR3_THREADS=1 vs 2: CSV bytes identical={ok} "
            f"({len(outputs[0])} bytes)", elapsed, 120)


def test_criterion_10_rate_engine_matches_oracle(capsys):
    rng = np.random.default_rng(1010)
    t0 = time.perf_counter()
    worst_rel = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 8))
        g = rng.uniform(0.01, 3.0, size=(k, k))
        sigma2 = rng.uniform(0.05, 2.0, size=k)
        gm = GainMatrix(g=g, noise_power=sigma2)
        p = random_feasible_points(rng, 1, k, float(rng.uniform(0.5, 3)))[0]
        report = sum_rate(gm, p)
        _, rates, total = rate_oracle(g, sigma2, p)
        rel = abs(report.sum_rate - total) / max(abs(total), 1e-12)
        per_iu = np.max(np.abs(report.per_iu_rate - np.asarray(rates))
                        / np.maximum(np.abs(rates), 1e-12))
        worst_rel = max(worst_rel, rel, float(per_iu))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-10
    _report(capsys, 10, ok,
            f"rate engine vs loop oracle: max rel err {worst_rel:.2e} "
            f"(tol 1e-10)", elapsed, 5)
