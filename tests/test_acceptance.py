"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.  Scenario seeds are fixed constants of the suite.
"""

import math
import time

import numpy as np
import pytest

from rmt.doa import SteeringModel, estimate_doa, steering_matrix
from rmt.gestimation import ClusterAssignment, classical_estimate, g_estimate, mu_eigenvalues
from rmt.linalg import RngStream, complex_gaussian
from rmt.spikes import (
    default_tw_table,
    glrt_statistic,
    spike_limits,
    spike_outlier_root,
    tracy_widom,
    tw_quantile,
    tw_standardize,
)
from rmt.simulate import (
    DetectionRocBinding,
    DoaResolutionBinding,
    EigBinding,
    FailureBinding,
    GEstimatorBinding,
    PowerNmseBinding,
    ScenarioSpec,
    histogram,
    run_monte_carlo,
)
from rmt.stieltjes import (
    SpectralModel,
    capacity_identity,
    density_from_stieltjes,
    empirical_stieltjes,
    mp_density,
    mp_stieltjes,
    mp_support,
    solve_companion_stieltjes,
    support_clusters,
)

TABLE = default_tw_table()


def report(num, ok_map, t0):
    status = "PASS" if all(ok_map.values()) else "FAIL"
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in ok_map.items())
    print(f"\n[criterion {num:2d}] {status} ({time.perf_counter() - t0:.1f}s) {detail}")


def upper_half_points(count, seed):
    g = RngStream(seed).generator()
    return g.uniform(-2, 5, count) + 1j * g.uniform(0.05, 3.0, count)


def test_criterion_01_mp_law_histogram_and_support():
    t0 = time.perf_counter()
    spec = ScenarioSpec("mp-null", 500, 2000, 100, seed=3)
    summary = run_monte_carlo(spec, EigBinding("mp-null"))
    eigs0 = summary.records["eigs"][0]
    edges, dens = histogram(eigs0, 50, (0.0, 3.0))
    centers = (edges[:-1] + edges[1:]) / 2
    sup_dev = float(np.max(np.abs(dens - mp_density(spec.ratio, centers))))
    a, b, _ = mp_support(spec.ratio)
    lo = float(np.min(summary.aggregates["per_trial_min"]))
    hi = float(np.max(summary.aggregates["per_trial_max"]))
    ok = {
        f"sup_dev={sup_dev:.4f}<0.06": sup_dev < 0.06,
        f"no_eig_outside[{a - 0.05:.3f},{b + 0.05:.3f}]": lo >= a - 0.05 and hi <= b + 0.05,
    }
    report(1, ok, t0)
    assert all(ok.values())


def test_criterion_02_solver_vs_closed_form():
    t0 = time.perf_counter()
    sup = {}
    for c in (0.1, 0.5, 2.0):
        model = SpectralModel(((1.0, 1.0),), c)
        _, b, _ = mp_support(c)
        start = 0.0 if c < 1 else 0.05
        grid = np.arange(start, b + 0.3, 0.01)
        grid = grid[grid > 0] if c >= 1 else grid
        dens = density_from_stieltjes(model, grid, eps=1e-4)
        sup[c] = float(np.max(np.abs(dens.values - mp_density(c, dens.grid))))
    residual = 0.0
    for c in (0.1, 0.5, 2.0):
        for z in upper_half_points(34, seed=int(100 * c)):
            m = mp_stieltjes(c, z)
            residual = max(residual, abs(m - 1 / (1 - c - z - z * c * m)))
    ok = {f"sup_dev(c={c})={v:.4f}<0.01": v < 1e-2 for c, v in sup.items()}
    ok[f"mp_residual={residual:.2e}<1e-12"] = residual < 1e-12
    report(2, ok, t0)
    assert all(ok.values())


def test_criterion_03_cluster_structure():
    t0 = time.perf_counter()
    counts = {}
    for values in ((1.0, 3.0, 7.0), (1.0, 3.0, 4.0)):
        model = SpectralModel.from_multiplicities(values, (1, 1, 1), 0.1)
        counts[values] = len(support_clusters(model).intervals)
    ok = {
        "clusters{1,3,7}=3": counts[(1.0, 3.0, 7.0)] == 3,
        "clusters{1,3,4}=2": counts[(1.0, 3.0, 4.0)] == 2,
    }
    report(3, ok, t0)
    assert all(ok.values())


def test_criterion_04_spike_limits_monte_carlo():
    t0 = time.perf_counter()
    spec = ScenarioSpec("spike", 500, 400, 100, seed=2, params={"omegas": [2.0, 2.0, 1.0, 1.0]})
    c = spec.ratio
    threshold = (1 + math.sqrt(c)) ** 2 + 0.1
    rho = spike_limits(2.0, c).rho
    exactly_two = 0
    top1, top2 = [], []
    for eigs in run_monte_carlo(spec, EigBinding("spike")).records["eigs"]:
        exactly_two += int(np.sum(eigs > threshold)) == 2
        top1.append(eigs[-1])
        top2.append(eigs[-2])
    d1 = abs(np.mean(top1) - rho)
    d2 = abs(np.mean(top2) - rho)
    ok = {
        f"exactly2_in_{exactly_two}/100>=95": exactly_two >= 95,
        f"|mean_l1-rho|={d1:.3f}<0.15": d1 < 0.15,
        f"|mean_l2-rho|={d2:.3f}<0.15": d2 < 0.15,
        "rho=4.875": abs(rho - 4.875) < 1e-12,
    }
    report(4, ok, t0)
    assert all(ok.values())


def test_criterion_05_root_condition_cross_validation():
    t0 = time.perf_counter()
    worst = 0.0
    for c in np.geomspace(0.05, 4.0, 20):
        for omega in np.geomspace(math.sqrt(c) * 1.02, math.sqrt(c) * 50, 20):
            worst = max(worst, abs(spike_outlier_root(omega, c) - spike_limits(omega, c).rho))
    ok = {f"max|root-rho|={worst:.2e}<1e-8": worst < 1e-8}
    report(5, ok, t0)
    assert all(ok.values())


def test_criterion_06_tracy_widom_and_glrt_far():
    t0 = time.perf_counter()
    spec = ScenarioSpec("mp-null", 256, 768, 2000, seed=0)
    c = spec.ratio
    summary = run_monte_carlo(spec, EigBinding("mp-null"))
    lam1 = summary.aggregates["per_trial_max"]
    std = np.array([tw_standardize(v, spec.n_dim, c) for v in lam1])
    xs = np.sort(std)
    cdf = np.array([tracy_widom(TABLE, x) for x in xs])
    n = xs.size
    ks = float(max(np.max(cdf - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - cdf)))
    thr = tw_quantile(TABLE, 0.95)
    far_hits = 0
    for eigs in summary.records["eigs"]:
        stat = glrt_statistic(eigs)
        far_hits += tw_standardize(stat, spec.n_dim, c) > thr
    far = far_hits / spec.trials
    ok = {
        f"ks={ks:.4f}<0.05": ks < 0.05,
        f"glrt_far={far:.4f}in[0.03,0.07]": 0.03 <= far <= 0.07,
    }
    report(6, ok, t0)
    assert all(ok.values())


def test_criterion_07_g_estimator_dominance():
    t0 = time.perf_counter()
    spec = ScenarioSpec("masses", 300, 3000, 200, seed=7, params={"atoms": [(1.0, 100), (3.0, 100), (7.0, 100)]})
    agg = run_monte_carlo(spec, GEstimatorBinding()).aggregates
    mse_g, mse_c = agg["mse_g"], agg["mse_classical"]
    # K = 1 reduction: the estimator over all indices is literally the mean
    g = RngStream(701).generator()
    lam = np.sort(g.uniform(0.1, 5.0, 64))
    reduction = abs(
        g_estimate(lam, 640, ClusterAssignment((64,), ((0, 64),))).values[0] - lam.mean()
    )
    ok = {
        "mse_g<mse_classical_k1": mse_g[0] < mse_c[0],
        "mse_g<mse_classical_k2": mse_g[1] < mse_c[1],
        "mse_g<mse_classical_k3": mse_g[2] < mse_c[2],
        f"k1_reduction={reduction:.2e}<1e-10": reduction < 1e-10,
        "classical_biased_up": agg["mean_classical"][2] > 7.0,
        f"gap_recovery={agg['gap_aligned_rate']:.3f}>=0.95": agg["gap_aligned_rate"] >= 0.95,
    }
    report(7, ok, t0)
    assert all(ok.values())


def test_criterion_08_power_inference_nmse():
    t0 = time.perf_counter()
    snrs = (5, 10, 15, 20, 25, 30)
    nmse_g, nmse_c = {}, {}
    binding = PowerNmseBinding()
    for i, snr in enumerate(snrs):
        spec = ScenarioSpec(
            "iid-channel", 24, 128, 2000, seed=800 + i,
            params={"powers": [1 / 16, 1 / 4, 1.0], "multiplicities": [4, 4, 4], "snr_db": float(snr)},
        )
        agg = run_monte_carlo(spec, binding).aggregates
        nmse_g[snr] = float(agg["nmse_g_db"][2])
        nmse_c[snr] = float(agg["nmse_classical_db"][2])
    at15 = nmse_g[15]
    ok = {f"nmse15={at15:.2f}dB in -19.1+-2.5": abs(at15 - (-19.1)) <= 2.5}
    for snr in snrs:
        ok[f"g<classical@{snr}dB"] = nmse_g[snr] < nmse_c[snr]
    report(8, ok, t0)
    assert all(ok.values())


def test_criterion_09_gmusic_resolution():
    t0 = time.perf_counter()
    grid = np.arange(-90.0, 90.0001, 0.05)
    spec = ScenarioSpec("doa", 20, 150, 500, seed=9, params={"angles_deg": [35.0, 37.0], "snr_db": 10.0})
    agg = run_monte_carlo(spec, DoaResolutionBinding(window_deg=1.0)).aggregates
    # noiseless oracle: sigma^2 = 1e-6, n >> N recovers the angle to 0.05 deg
    model = SteeringModel(20)
    g = RngStream(901).generator()
    y = steering_matrix(model, (10.0,)) @ complex_gaussian(1, 2000, g) + 1e-3 * complex_gaussian(20, 2000, g)
    errs = {m: abs(estimate_doa(y, 1, model, grid, m).angles[0] - 10.0) for m in ("music", "gmusic")}
    ok = {
        f"gmusic_rate={agg['gmusic_resolution_rate']:.3f}>=music_rate={agg['music_resolution_rate']:.3f}":
            agg["gmusic_resolution_rate"] >= agg["music_resolution_rate"],
        f"noiseless_music_err={errs['music']:.3f}<=0.05": errs["music"] <= 0.05,
        f"noiseless_gmusic_err={errs['gmusic']:.3f}<=0.05": errs["gmusic"] <= 0.05,
    }
    report(9, ok, t0)
    assert all(ok.values())


def test_criterion_10_detection_roc_ordering():
    t0 = time.perf_counter()
    spec = ScenarioSpec("mp-null", 4, 8, 20_000, seed=10, params={"snr_db": 0.0})
    agg = run_monte_carlo(spec, DetectionRocBinding()).aggregates
    glrt_rate = DetectionRocBinding.detection_at_far(agg, "glrt", 0.01)
    cond_rate = DetectionRocBinding.detection_at_far(agg, "cond", 0.01)
    ok = {f"glrt={glrt_rate:.4f}>=cond={cond_rate:.4f}@far0.01": glrt_rate >= cond_rate}
    report(10, ok, t0)
    assert all(ok.values())


def test_criterion_11_failure_localization():
    t0 = time.perf_counter()
    spec = ScenarioSpec(
        "failure", 10, 102, 5000, seed=11,
        params={"n_params": 10, "alpha": -1.0, "failed_index": 0, "noise_var": 1.0},
    )
    agg = run_monte_carlo(spec, FailureBinding(far=1e-2)).aggregates
    cdr, clr = agg["detection_rate"], agg["localization_rate"]
    ok = {f"clr={clr:.4f}>=0.95*cdr={0.95 * cdr:.4f}": clr >= 0.95 * cdr and cdr > 0}
    report(11, ok, t0)
    assert all(ok.values())


def test_criterion_12_property_suite():
    t0 = time.perf_counter()
    g = RngStream(12).generator()
    ok = {}

    lam = np.sort(g.uniform(0.0, 6.0, 40))
    mu = mu_eigenvalues(lam, 120)
    ok["interlacing"] = bool(np.all(mu <= lam + 1e-12) and np.all(lam[:-1] <= mu[1:] + 1e-12))
    ok["trace_identity"] = abs(np.sum(lam - mu) - np.sum(lam) / 120) < 1e-10

    pos = True
    eigs = np.sort(g.uniform(0.05, 4.0, 12))
    model = SpectralModel(((1.0, 0.4), (3.0, 0.6)), 0.3)
    for z in upper_half_points(25, seed=1201):
        pos &= empirical_stieltjes(eigs, z).imag > 0
        pos &= mp_stieltjes(0.7, z).imag > 0
        sol = solve_companion_stieltjes(model, z)
        pos &= sol.m_under.imag > 0 and sol.m.imag > 0
    ok["stieltjes_positivity"] = bool(pos)

    clusters = ClusterAssignment((6, 6), ((0, 6), (6, 12)))
    base_g = g_estimate(eigs, 60, clusters).values
    base_c = classical_estimate(eigs, clusters).values
    scaled_g = g_estimate(3.0 * eigs, 60, clusters).values
    scaled_c = classical_estimate(3.0 * eigs, clusters).values
    equivariant = all(abs(s - 3 * b) < 1e-9 for s, b in zip(scaled_g, base_g))
    equivariant &= all(abs(s - 3 * b) < 1e-9 for s, b in zip(scaled_c, base_c))
    ok["scale_equivariance"] = bool(equivariant)

    ok["tw_roundtrip"] = all(
        abs(tw_quantile(TABLE, tracy_widom(TABLE, s)) - s) < 1e-6 for s in np.linspace(-4.5, 3.5, 40)
    )

    h = complex_gaussian(6, 4, RngStream(1202))
    direct, integral = capacity_identity(h, 0.8)
    ok["capacity_identity"] = abs(direct - integral) < 1e-6

    stat = glrt_statistic(eigs)
    ok["glrt_scale_invariance"] = abs(glrt_statistic(1e6 * eigs) - stat) <= 1e-12 * stat

    report(12, ok, t0)
    assert all(ok.values())
