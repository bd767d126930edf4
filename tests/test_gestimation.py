import math
from types import SimpleNamespace

import numpy as np
import pytest

from rmt.errors import ParameterError
import rmt.gestimation as ge
from rmt.gestimation import (
    ClusterAssignment,
    classical_estimate,
    clusters_from_gaps,
    g_estimate,
    mu_eigenvalues,
    power_estimate_iid_channel,
    separation_warnings,
)
from rmt import linalg
from rmt.linalg import RngStream, _numpy_openblas, complex_gaussian, hermitian_eig, sample_spectrum


def masses_eigs(values, mults, n_samples, seed, trial=0):
    """Sample-covariance spectrum of the weighted-masses model (U dropped:
    the spectrum is unitarily invariant)."""
    diag = np.concatenate([np.full(m, v, dtype=float) for v, m in zip(values, mults)])
    x = complex_gaussian(diag.size, n_samples, RngStream(seed, trial))
    y = np.sqrt(diag)[:, None] * x
    return np.linalg.eigvalsh(y @ y.conj().T / n_samples)


# --- cluster assignment ------------------------------------------------------


def test_cluster_assignment_validation():
    ClusterAssignment((2, 2), ((0, 2), (2, 4)))
    with pytest.raises(ParameterError):
        ClusterAssignment((2, 2), ((0, 2), (1, 3)))  # overlap
    with pytest.raises(ParameterError):
        ClusterAssignment((2,), ((0, 3),))  # size mismatch


def test_top_ranges_excludes_noise_block():
    ca = ClusterAssignment.top_ranges(24, (4, 4, 4))
    assert ca.ranges == ((12, 16), (16, 20), (20, 24))


# --- classical estimator ------------------------------------------------------


def test_classical_exact_clusters():
    est = classical_estimate([1.0, 1.0, 3.0, 3.0], ClusterAssignment((2, 2), ((0, 2), (2, 4))))
    assert est.values == (1.0, 3.0)
    assert est.method == "classical"


def test_classical_single_cluster_is_mean():
    eigs = np.array([0.5, 1.0, 2.5, 4.0])
    est = classical_estimate(eigs, ClusterAssignment((4,), ((0, 4),)))
    assert np.isclose(est.values[0], eigs.mean())


def test_classical_upward_bias_of_top_cluster():
    # cluster centers of mass sit above the population value when N ~ n
    values, mults = (1.0, 3.0, 7.0), (40, 40, 40)
    tops = []
    for trial in range(60):
        eigs = masses_eigs(values, mults, n_samples=1200, seed=77, trial=trial)
        est = classical_estimate(eigs, ClusterAssignment.top_ranges(120, mults))
        tops.append(est.values[2])
    assert np.mean(tops) > 7.0


def test_classical_rejects_out_of_range():
    with pytest.raises(ParameterError):
        classical_estimate([1.0, 2.0], ClusterAssignment((3,), ((0, 3),)))


# --- mu eigenvalues -------------------------------------------------------------


def test_mu_all_zero():
    assert np.allclose(mu_eigenvalues(np.zeros(5), 7), np.zeros(5))


def test_mu_trace_identity():
    rng = RngStream(8).generator()
    for denom in (3, 10, 1000):
        lam = np.sort(rng.uniform(0.0, 5.0, 20))
        mu = mu_eigenvalues(lam, denom)
        assert abs(np.sum(lam - mu) - np.sum(lam) / denom) < 1e-10


def test_mu_2x2_closed_form():
    # lambda = (1, 2), denom = 2: matrix [[0.5, -sqrt(2)/2], [-sqrt(2)/2, 1.0]]
    # trace 1.5, det 0  =>  eigenvalues {0, 1.5} by the quadratic formula
    mu = mu_eigenvalues(np.array([1.0, 2.0]), 2)
    assert np.allclose(mu, [0.0, 1.5], atol=1e-12)
    m = np.array([[0.5, -math.sqrt(2) / 2], [-math.sqrt(2) / 2, 1.0]])
    assert np.allclose(hermitian_eig(m).eigenvalues, mu, atol=1e-12)


def test_mu_interlacing():
    rng = RngStream(9).generator()
    for _ in range(20):
        lam = np.sort(rng.uniform(0.0, 8.0, 15))
        mu = mu_eigenvalues(lam, 30)
        assert np.all(mu <= lam + 1e-12)
        assert np.all(lam[:-1] <= mu[1:] + 1e-12)


def mu_dense(lam, denom):
    """The oracle: eigvalsh of the dense diag(lambda) - sqrt(lambda) sqrt(lambda)^T / denom."""
    s = np.sqrt(lam)
    return np.linalg.eigvalsh(np.diag(lam) - np.outer(s, s) / denom)


def mu_cases():
    """(spectrum, denominator) pairs: random spectra of N = 1..300, exact zeros,
    exact ties, spectra out of order, and the rank-deficient spectra of c > 1
    draws as `rmt estimate` clips them, whose zeros carry rounding of either sign."""
    rng = RngStream(61).generator()
    for n_dim in list(range(1, 41)) + [64, 100, 128, 300]:
        lam = np.sort(rng.uniform(0.0, 5.0, n_dim))
        for denom in sorted({1, max(1, n_dim // 2), n_dim, 3 * n_dim + 1}):
            yield lam, denom
    yield np.zeros(4), 3
    yield np.array([0.0, 0.0, 0.0, 0.5, 2.0, 2.0]), 4
    yield np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 5.0]), 4
    yield np.repeat([1.0, 3.0, 7.0], 5), 20
    yield np.concatenate([np.zeros(3), np.sort(rng.uniform(1.0, 2.0, 4)), np.full(6, 2.5)]), 5
    yield np.array([3.0, 1.0, 2.0, 0.5, 0.0, 2.0]), 4  # mu_eigenvalues takes any order
    yield rng.permutation(rng.uniform(0.0, 5.0, 50)), 70
    for n_dim, n_samples in ((300, 200), (300, 100), (120, 119), (60, 30)):
        third = n_dim // 3
        x = complex_gaussian(n_dim, n_samples, RngStream(62, n_samples))
        y = np.sqrt(np.repeat([1.0, 3.0, 7.0], [third, third, n_dim - 2 * third]))[:, None] * x
        lam = np.clip(sample_spectrum(y), 0.0, None)
        assert np.sum(lam < 1e-12 * lam[-1]) == n_dim - n_samples
        for denom in (n_samples, n_dim):
            yield lam, denom


def test_mu_rows_agree_with_the_dense_eigensolve():
    # stated in advance: 1e-13 of the matrix's norm bound max(lambda_max, sum(lambda) / denom);
    # both routes are backward stable, each off by a few eps of that bound
    for lam, denom in mu_cases():
        got = mu_eigenvalues(lam, denom)
        scale = max(lam.max(), lam.sum() / denom) or 1.0
        assert np.all(np.diff(got) >= 0), (lam.size, denom)
        assert np.max(np.abs(got - mu_dense(lam, denom))) <= 1e-13 * scale, (lam.size, denom)


def test_mu_rows_of_a_block_equal_its_rows_one_at_a_time():
    # 300 columns: longer than numpy's 128-element summation block
    rng = RngStream(63).generator()
    for n_dim in (24, 300):
        block = np.sort(rng.uniform(0.0, 4.0, (6, n_dim)), axis=1)
        block[3] = 0.0
        block[5, :7] = 0.0
        rows = ge._mu_rows(block, 30)
        for lam, row in zip(block, rows):
            assert row.tobytes() == mu_eigenvalues(lam, 30).tobytes()


def test_mu_rows_without_lapack_fall_back_to_the_dense_eigensolve(monkeypatch):
    monkeypatch.setattr(linalg, "_numpy_openblas", lambda: None)
    for lam, denom in mu_cases():
        scale = max(lam.max(), lam.sum() / denom) or 1.0
        assert np.max(np.abs(ge._mu_rows(lam[None], denom)[0] - mu_dense(lam, denom))) <= 1e-13 * scale


@pytest.mark.skipif(_numpy_openblas() is None, reason="this numpy build does not bundle OpenBLAS")
def test_mu_rows_same_bits_at_one_and_two_blas_threads():
    blas = _numpy_openblas()
    cases = [(lam, denom) for lam, denom in mu_cases() if lam.size >= 64]
    before = blas.get_threads()
    try:
        got = {}
        for threads in (1, 2):
            blas.set_threads(threads)
            got[threads] = [ge._mu_rows(lam[None], denom).tobytes() for lam, denom in cases]
    finally:
        blas.set_threads(before)
    assert got[1] == got[2]


def test_mu_rejects_negative():
    with pytest.raises(ParameterError):
        mu_eigenvalues(np.array([-0.5, 1.0]), 4)
    # eigensolver noise just below zero is clamped, not an error
    mu = mu_eigenvalues(np.array([-1e-13, 1.0]), 4)
    assert mu.size == 2


# --- G-estimator ------------------------------------------------------------------


def test_g_estimate_k1_reduces_to_mean():
    rng = RngStream(10).generator()
    lam = np.sort(rng.uniform(0.1, 4.0, 50))
    est = g_estimate(lam, 500, ClusterAssignment((50,), ((0, 50),)))
    assert abs(est.values[0] - lam.mean()) < 1e-10


def test_g_estimate_constant_spectrum():
    lam = np.full(12, 2.5)
    est = g_estimate(lam, 120, ClusterAssignment((12,), ((0, 12),)))
    assert abs(est.values[0] - 2.5) < 1e-10


def test_g_estimate_scale_equivariance():
    rng = RngStream(12).generator()
    lam = np.sort(rng.uniform(0.1, 4.0, 30))
    clusters = ClusterAssignment((10, 20), ((0, 10), (10, 30)))
    base = g_estimate(lam, 300, clusters).values
    scaled = g_estimate(7.0 * lam, 300, clusters).values
    for b, s in zip(base, scaled):
        assert abs(s - 7.0 * b) < 1e-9 * max(1.0, abs(s))
    classical0 = classical_estimate(lam, clusters).values
    classical7 = classical_estimate(7.0 * lam, clusters).values
    for b, s in zip(classical0, classical7):
        assert abs(s - 7.0 * b) < 1e-9 * max(1.0, abs(s))


def test_g_estimate_beats_classical_small_scenario():
    values, mults = (1.0, 3.0, 7.0), (40, 40, 40)
    clusters = ClusterAssignment.top_ranges(120, mults)
    g_err, c_err = [], []
    for trial in range(60):
        eigs = masses_eigs(values, mults, n_samples=1200, seed=78, trial=trial)
        g = g_estimate(eigs, 1200, clusters).values
        cl = classical_estimate(eigs, clusters).values
        g_err.append([(a - b) ** 2 for a, b in zip(g, values)])
        c_err.append([(a - b) ** 2 for a, b in zip(cl, values)])
    g_mse = np.mean(g_err, axis=0)
    c_mse = np.mean(c_err, axis=0)
    assert np.all(g_mse < c_mse)


# --- i.i.d.-channel estimator -------------------------------------------------------


def test_iid_channel_full_sum_trace_identity():
    rng = RngStream(14).generator()
    lam = np.sort(rng.uniform(0.0, 3.0, 24))
    eta = mu_eigenvalues(lam, 24)
    mu = mu_eigenvalues(lam, 128)
    assert abs(np.sum(eta - mu) - (1 / 128 - 1 / 24) * np.sum(lam)) < 1e-10


def test_iid_channel_noiseless_single_source():
    # sigma -> 0, M1 = 1: P_hat -> P within Monte-Carlo error
    n_dim, n_samples, p_true = 24, 512, 2.0
    vals = []
    for trial in range(40):
        g = RngStream(15, trial).generator()
        h = complex_gaussian(n_dim, 1, g) / math.sqrt(n_dim)
        x = complex_gaussian(1, n_samples, g)
        y = math.sqrt(p_true) * h @ x
        eigs = np.clip(np.linalg.eigvalsh(y @ y.conj().T / n_samples), 0.0, None)
        est = power_estimate_iid_channel(eigs, n_samples, ClusterAssignment((1,), ((n_dim - 1, n_dim),)))
        vals.append(est.values[0])
    assert abs(np.mean(vals) - p_true) < 0.15


def test_iid_channel_rejects_n_not_greater():
    with pytest.raises(ParameterError):
        power_estimate_iid_channel(np.ones(8), 8, ClusterAssignment((1,), ((7, 8),)))


# --- cluster recovery ----------------------------------------------------------------


def test_clusters_from_gaps_huge_gap():
    ca = clusters_from_gaps([1.0, 1.0, 1.0, 9.0, 9.0], (3, 2))
    assert ca.ranges == ((0, 3), (3, 5))
    assert ca.gap_aligned


def test_clusters_from_gaps_tie_and_fallback():
    # equally spaced: tie broken at the lowest split index gives sizes (1, 3),
    # conflicting with (2, 2), so the fixed-size partition is used and flagged
    ca = clusters_from_gaps([1.0, 2.0, 3.0, 4.0], (2, 2))
    assert ca.ranges == ((0, 2), (2, 4))
    assert not ca.gap_aligned


def test_clusters_from_gaps_recovers_ground_truth():
    values, mults = (1.0, 3.0, 7.0), (30, 30, 30)
    aligned = 0
    for trial in range(50):
        eigs = masses_eigs(values, mults, n_samples=900, seed=79, trial=trial)
        ca = clusters_from_gaps(eigs, mults)
        aligned += ca.gap_aligned
    assert aligned / 50 >= 0.95


def test_clusters_from_gaps_guards():
    with pytest.raises(ParameterError):
        clusters_from_gaps([1.0, 2.0], (1, 1, 1))
    with pytest.raises(ParameterError):
        clusters_from_gaps([1.0, 2.0], (3,))


# --- one spectrum and a block of them, against the one-spectrum formulas ------------------


def _one_spectrum_oracle(eigs, n_dim, n_samples, mults):
    """classical, g, iid-channel and gap flag of one ascending spectrum, one
    cluster at a time: the estimators' formulas as written before they ran over
    a trial axis, with mu from the public one-spectrum route."""
    def mu(denom):
        return mu_eigenvalues(np.clip(eigs, 0.0, None), denom)

    start = n_dim - sum(mults)
    idx = [np.arange(a, a + m) for a, m in zip(np.cumsum((start,) + mults[:-1]), mults)]
    classical = tuple(float(np.mean(eigs[i])) for i in idx)
    g = tuple(float(n_samples / m * np.sum((eigs - mu(n_samples))[i])) for m, i in zip(mults, idx))
    front = n_dim * n_samples / (n_samples - n_dim)
    iid = tuple(float(front / m * np.sum((mu(n_samples) - mu(n_dim))[i])) for m, i in zip(mults, idx))
    gaps = np.diff(eigs[start:])
    splits = np.sort(np.lexsort((np.arange(gaps.size), -gaps))[: len(mults) - 1]) + 1
    aligned = tuple(int(s) for s in np.diff(np.concatenate(([0], splits, [gaps.size + 1])))) == mults
    return classical, g, iid, aligned


@pytest.mark.parametrize("values, mults, n_samples", [
    ((1.0, 4.0), (6, 6), 40),
    ((1.0, 4.0), (6, 6), 13),
    ((2.0,), (12,), 40),  # K = 1
    ((0.5, 1.0, 3.0, 7.0), (3, 9, 12, 6), 90),
    ((1.0, 3.0), (150, 150), 900),  # clusters longer than numpy's 128-element summation block
], ids=["12x40", "12x13", "k1", "uneven", "300x900"])
def test_estimators_equal_the_one_spectrum_formulas_bit_for_bit(values, mults, n_samples):
    # the public estimators and a block's rows run one arithmetic, which must
    # equal the per-spectrum formulas exactly
    n_dim = sum(mults)
    block = np.array([masses_eigs(values, mults, n_samples, seed=91, trial=t) for t in range(6)])
    clusters = ClusterAssignment.top_ranges(n_dim, mults)
    stacked = (ge._classical_rows(block, clusters), ge._g_rows(block, n_samples, clusters),
               ge._iid_channel_rows(block, n_dim, n_samples, clusters) if n_samples > n_dim else None,
               ge._gap_aligned_rows(block, mults))
    for t, eigs in enumerate(block):
        classical, g, iid, aligned = _one_spectrum_oracle(eigs, n_dim, n_samples, mults)
        assert classical_estimate(eigs, clusters).values == classical == tuple(stacked[0][t].tolist())
        assert g_estimate(eigs, n_samples, clusters).values == g == tuple(stacked[1][t].tolist())
        assert clusters_from_gaps(eigs, mults).gap_aligned == aligned == stacked[3][t]
        if n_samples > n_dim:
            got = power_estimate_iid_channel(eigs, n_samples, clusters).values
            assert got == iid == tuple(stacked[2][t].tolist())


# --- CLT check -------------------------------------------------------------------------


def clt_check(sample) -> SimpleNamespace:
    """A sample of N (P_hat_k - P_k), one value per trial, against its best-fit normal."""
    from scipy import stats

    mean, sd = float(np.mean(sample)), float(np.std(sample, ddof=1))
    return SimpleNamespace(
        trials=sample.size,
        mean=mean,
        variance=sd**2,
        skewness=float(stats.skew(sample)),
        excess_kurtosis=float(stats.kurtosis(sample)),
        ks_distance=float(stats.kstest(sample, "norm", args=(mean, sd)).statistic),
    )


def test_clt_check_normality_of_g_estimator():
    values, mults = (1.0, 3.0, 7.0), (43, 43, 42)
    n_dim, n_samples, trials = 128, 1280, 2000
    clusters = ClusterAssignment.top_ranges(n_dim, mults)

    sample = np.empty(trials)
    for t in range(trials):
        eigs = masses_eigs(values, mults, n_samples, seed=2025, trial=t)
        sample[t] = n_dim * (float(g_estimate(eigs, n_samples, clusters).values[2]) - 7.0)
    report = clt_check(sample)
    assert report.trials == trials
    assert abs(report.skewness) < 0.15
    assert abs(report.excess_kurtosis) < 0.3
    drift_allowance = 3 * math.sqrt(report.variance / trials) + 0.5
    assert abs(report.mean) < drift_allowance
    assert report.ks_distance < 0.05


# --- separability advisory ----------------------------------------------------------


def test_separation_warning_detects_merge():
    # {1, 3, 4} at c = 0.1 merges into two clusters
    warn = separation_warnings((1.0, 3.0, 4.0), (1, 1, 1), 30, 300)
    assert warn and "2 clusters" in warn[0]
    clean = separation_warnings((1.0, 3.0, 7.0), (1, 1, 1), 30, 300)
    assert clean == ()
    # at c = 10 the three clusters merge into one; the smoothed Dirac mass at
    # zero must not count as a cluster of its own
    merged = separation_warnings((1.0, 3.0, 7.0), (1, 1, 1), 300, 30)
    assert merged and "shows 1 clusters" in merged[0]
