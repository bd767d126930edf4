import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rmt.errors import ParameterError, RegimeError, SingularityError
from rmt.linalg import RngStream, complex_gaussian, hermitian_eig, sample_covariance
from rmt.simulate import EigBinding, ScenarioSpec, run_monte_carlo
from rmt.spikes import (
    FailureHypothesis,
    FluctuationStats,
    TracyWidomTable,
    condition_number_statistic,
    default_tw_table,
    failure_hypotheses,
    false_alarm_threshold,
    fluctuation_stats,
    glrt_statistic,
    glrt_test,
    inverse_sqrt,
    localize_failure,
    spike_limits,
    spike_outlier_root,
    tracy_widom,
    tw_quantile,
    tw_standardize,
    tw_standardize_smallest,
)

TABLE = default_tw_table()


# --- first-order limits -----------------------------------------------------


def test_spike_limits_fig3_values():
    lim = spike_limits(2.0, 1.25)
    assert lim.detectable
    assert np.isclose(lim.rho, 4.875)
    assert np.isclose(lim.xi, 0.6875 / 1.625)
    weak = spike_limits(1.0, 1.25)
    assert not weak.detectable
    assert np.isclose(weak.rho, (1 + math.sqrt(1.25)) ** 2)
    assert weak.xi == 0.0


def test_spike_limits_boundary_continuity():
    c = 0.7
    sq = math.sqrt(c)
    at = spike_limits(sq, c)
    assert np.isclose(at.rho, (1 + sq) ** 2) and at.xi == 0.0
    just_above = spike_limits(sq * (1 + 1e-9), c)
    assert abs(just_above.rho - (1 + sq) ** 2) < 1e-6
    assert just_above.xi < 1e-6


def test_spike_limits_monotone_and_xi_range():
    c = 0.5
    omegas = np.linspace(math.sqrt(c) + 1e-3, 50, 200)
    rhos = [spike_limits(w, c).rho for w in omegas]
    xis = [spike_limits(w, c).xi for w in omegas]
    assert np.all(np.diff(rhos) > 0)
    assert all(0 < x < 1 for x in xis)
    assert spike_limits(1e4, c).xi > 0.999


def test_spike_limits_rejects_nonpositive():
    for omega, c in [(-1.5, 0.5), (1.0, 0.0), (1.0, math.inf), (math.inf, 0.5), (-0.5, math.nan), (math.nan, 0.5),
                     (-math.inf, 0.5), (-0.5, -0.5)]:
        with pytest.raises(ParameterError):
            spike_limits(omega, c)


def test_downward_spike_limits():
    lim = spike_limits(-0.9, 0.1)
    assert lim.detectable
    assert np.isclose(lim.rho, 1 - 0.9 + 0.1 * 0.1 / -0.9)
    assert 0 < lim.xi < 1
    assert np.isclose(spike_limits(-1.0, 0.5).rho, 0.0)
    weak = spike_limits(-0.2, 0.3)
    assert not weak.detectable and np.isclose(weak.rho, (1 - math.sqrt(0.3)) ** 2)
    with pytest.raises(RegimeError):
        spike_limits(-0.5, 1.5)


def test_zero_spike_is_not_detectable():
    for c in (0.25, 1.0, 2.0):
        lim = spike_limits(0.0, c)
        assert not lim.detectable and lim.xi == 0.0 and lim.rho == (1 + math.sqrt(c)) ** 2


def _old_spike_limits(omega, c):
    """The upward-only ``spike_limits`` as it stood before it took both signs."""
    if not (omega > 0) or not (c > 0):
        raise ParameterError("omega and c must be positive")
    sq = math.sqrt(c)
    if omega > sq:
        rho = 1 + omega + c * (1 + omega) / omega
        xi = (1 - c / omega**2) / (1 + c / omega)
        return (True, rho, xi)
    return (False, (1 + sq) ** 2, 0.0)


def _old_downward_spike_limits(omega, c):
    """The removed ``downward_spike_limits``: omega in [-1, 0), c < 1."""
    if not (-1 <= omega < 0):
        raise ParameterError("downward spike needs omega in [-1, 0)")
    if not (0 < c < 1):
        raise RegimeError("downward spikes are only resolvable for c < 1")
    sq = math.sqrt(c)
    if -omega > sq:
        rho = 1 + omega + c * (1 + omega) / omega
        xi = (1 - c / omega**2) / (1 + c / omega)
        return (True, rho, xi)
    return (False, (1 - sq) ** 2, 0.0)


def test_spike_limits_equal_the_two_old_formulas():
    rng = np.random.default_rng(21)
    cs = np.concatenate([np.linspace(0.01, 4.0, 40), rng.uniform(0, 4, 40), [0.25, 0.5, 1.0]])
    cs = cs[cs > 0]
    downs = np.concatenate([np.linspace(-1.0, -1e-3, 60), rng.uniform(-1, 0, 60), [-1.0, -0.5, -np.sqrt(0.25)]])
    ups = np.concatenate([np.geomspace(1e-3, 50, 60), rng.uniform(0, 50, 60), [0.5, 1.0, 50.0]])
    checked = 0
    for c in cs.tolist():
        sq = math.sqrt(c)
        omegas = np.concatenate([downs, ups, [-sq, sq]])  # the threshold itself on both sides
        for omega in omegas[(omegas >= -1) & (omegas != 0) & (omegas <= 50)].tolist():
            old = _old_spike_limits if omega > 0 else _old_downward_spike_limits
            try:
                expected = old(omega, c)
            except RegimeError:
                with pytest.raises(RegimeError):
                    spike_limits(omega, c)
                continue
            lim = spike_limits(omega, c)
            assert (lim.omega, lim.ratio) == (omega, c)
            # equal bits, not just equal values: compare the float's bytes
            got = (lim.detectable, lim.rho, lim.xi)
            assert got[0] == expected[0] and struct.pack("<2d", *got[1:]) == struct.pack("<2d", *expected[1:]), \
                (omega, c, got, expected)
            checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("c", [0.5, 5.0])
def test_spike_limits_at_a_huge_omega(c):
    # omega**2 overflowed a double past 1.3e154; omega * omega rounds to inf and c / inf to 0
    for omega in (1e155, 1e300):
        lim = spike_limits(omega, c)
        assert lim.detectable and lim.xi == 1.0
        assert lim.rho == pytest.approx(omega, rel=1e-15)


# --- root-condition cross-validation -----------------------------------------


def test_outlier_root_examples():
    assert abs(spike_outlier_root(2.0, 1.25) - 4.875) < 1e-8
    assert abs(spike_outlier_root(10.0, 0.1) - 11.11) < 1e-8


def test_outlier_root_matches_rho_on_grid():
    for c in np.geomspace(0.05, 4.0, 8):
        for w in np.geomspace(math.sqrt(c) * 1.05, math.sqrt(c) * 30, 8):
            assert abs(spike_outlier_root(w, c) - spike_limits(w, c).rho) < 1e-8


def test_outlier_root_refuses_subcritical():
    with pytest.raises(RegimeError):
        spike_outlier_root(0.5, 0.5)
    with pytest.raises(RegimeError):
        spike_outlier_root(math.sqrt(0.5), 0.5)


# --- Tracy-Widom table ---------------------------------------------------------


def test_table_bounds():
    assert tracy_widom(TABLE, -10.0) < 1e-6
    assert tracy_widom(TABLE, 6.0) > 1 - 1e-6
    assert TABLE.s[0] <= -10 and TABLE.s[-1] >= 6


def test_table_mean_matches_painleve_oracle():
    # E[S] and E[S^2] via integration by parts over the tabulated CDF
    s, cdf = TABLE.s, TABLE.cdf
    mean = s[-1] * cdf[-1] - s[0] * cdf[0] - np.trapezoid(cdf, s)
    assert abs(mean - (-1.7711)) < 2e-3
    # the generator's published TW2 variance (tools/gen_tw_table.py TARGET_VAR) and its gate
    second = s[-1] ** 2 * cdf[-1] - s[0] ** 2 * cdf[0] - 2.0 * np.trapezoid(s * cdf, s)
    assert abs(second - mean**2 - 0.8131948) < 1e-4


def test_table_median_negative():
    assert tw_quantile(TABLE, 0.5) < 0


def test_quantile_roundtrip():
    for s in np.linspace(-4.5, 3.5, 30):
        p = tracy_widom(TABLE, s)
        assert abs(tw_quantile(TABLE, p) - s) < 1e-6


def pchip_reference(table):
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(table.s, table.cdf)


def quantile_oracle(table, ps):
    """brentq roots of the scipy interpolant at xtol 1e-13, far tighter than the 1e-8 checked."""
    from scipy.optimize import brentq

    ref = pchip_reference(table)
    return [brentq(lambda s: float(ref(s)) - p, table.s[0], table.s[-1], xtol=1e-13) for p in ps]


def interpolation_points(table, n_random, seed):
    s = table.s
    rng = np.random.default_rng(seed)
    inner = np.concatenate([s[1:-1], (s[1:] + s[:-1]) / 2, rng.uniform(s[0], s[-1], n_random)])
    return inner[(inner > s[0]) & (inner < s[-1])]


def flat_run_table():
    # uneven spacing, flat runs (zero interior slopes) and one-sided end slopes
    # that come out negative and are clipped: the end secant is under a third
    # of its neighbour's, from the logistic tail on the left and by hand on the right
    s = np.concatenate([np.linspace(-10, -3, 15), np.linspace(-2.7, 6, 30)])
    cdf = 1 / (1 + np.exp(-3 * s))
    cdf[8:12] = cdf[8]
    cdf[25:29] = cdf[25]
    cdf[-2:] = (1 - 1e-12, 1.0)
    return s, cdf


def test_tracy_widom_matches_scipy_pchip_bit_for_bit():
    xs = interpolation_points(TABLE, 20_000, seed=5)
    ours = np.array([tracy_widom(TABLE, x) for x in xs])
    np.testing.assert_array_equal(ours, np.clip(pchip_reference(TABLE)(xs), 0.0, 1.0))


def test_flat_run_table_matches_scipy_pchip():
    s, cdf = flat_run_table()
    table = TracyWidomTable(s, cdf)
    np.testing.assert_array_equal(table.cdf, cdf)
    xs = interpolation_points(table, 5_000, seed=6)
    ours = np.array([tracy_widom(table, x) for x in xs])
    np.testing.assert_array_equal(ours, np.clip(pchip_reference(table)(xs), 0.0, 1.0))
    ps = np.random.default_rng(7).uniform(1e-6, 1 - 1e-6, 300)
    for p, root in zip(ps, quantile_oracle(table, ps)):
        assert abs(tw_quantile(table, p) - root) < 1e-8, p
    # a plateau level maps to the plateau's first knot, where the CDF first reaches it
    for start in (8, 25):
        assert abs(tw_quantile(table, cdf[start]) - s[start]) < 1e-8


def test_quantile_matches_root_oracle():
    ps = np.concatenate([np.random.default_rng(8).uniform(1e-6, 1 - 1e-6, 300), [0.5, 0.9, 0.95, 0.99, 0.999]])
    ps = np.concatenate([ps, TABLE.cdf[(TABLE.cdf > 1e-6) & (TABLE.cdf < 1 - 1e-6)][::25]])
    for p, root in zip(ps, quantile_oracle(TABLE, ps)):
        assert abs(tw_quantile(TABLE, p) - root) < 1e-8, p


def test_quantile_off_table_ends():
    s, cdf = TABLE.s, TABLE.cdf
    for p in (cdf[0] / 2, cdf[0]):
        assert tw_quantile(TABLE, p) == s[0]
    near_one = [tw_quantile(TABLE, p) for p in (1 - 1e-9, 1 - 1e-11, cdf[-1])]
    assert near_one == sorted(near_one) and near_one[-1] <= s[-1]
    for p in ((1 + cdf[-1]) / 2, np.nextafter(1.0, 0.0)):
        assert tw_quantile(TABLE, p) == s[-1]


def test_table_refuses_unordered_or_nan_rows():
    s, cdf = flat_run_table()
    TracyWidomTable(s, cdf)
    for column, row, value in (("s", 20, np.nan), ("cdf", 20, np.nan), ("cdf", 20, 0.9), ("s", 20, s[19])):
        bad = {"s": s.copy(), "cdf": cdf.copy()}
        bad[column][row] = value
        with pytest.raises(ParameterError):
            TracyWidomTable(bad["s"], bad["cdf"])


def test_quantile_rejects_bad_p():
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ParameterError):
            tw_quantile(TABLE, p)


def test_tw_standardize_values():
    c = 1.0 / 3.0
    edge = (1 + math.sqrt(c)) ** 2
    assert tw_standardize(edge, 100, c) == 0.0
    # center/scale frozen from an independent arbitrary-precision evaluation
    assert abs(edge - 2.4880338717125849) < 1e-12
    scale = (1 + math.sqrt(c)) ** (4.0 / 3.0) * math.sqrt(c)
    assert abs(scale - 1.0600920191521393) < 1e-12
    assert np.isclose(tw_standardize(edge + 1.0, 8, c), 4 / scale)


def test_tw_standardize_smallest_sign():
    c = 0.25
    edge = (1 - math.sqrt(c)) ** 2
    assert tw_standardize_smallest(edge, 100, c) == 0.0
    assert tw_standardize_smallest(edge - 0.1, 100, c) > 0
    with pytest.raises(ParameterError):
        tw_standardize_smallest(0.5, 100, 1.5)


# --- detectors -------------------------------------------------------------------


def test_glrt_statistic_flat_spectrum():
    eigs = np.full(64, 3.7)
    assert abs(glrt_statistic(eigs) - 1.0) < 1e-12
    decision = glrt_test(eigs, 192, far=0.05)
    assert decision.standardized < -5
    assert not decision.signal


def test_glrt_scale_invariance():
    rng = RngStream(5).generator()
    eigs = np.sort(rng.uniform(0.1, 3.0, 32))
    a, b = glrt_statistic(eigs), glrt_statistic(1e7 * eigs)
    assert abs(a - b) <= 1e-12 * a


def test_glrt_null_calibration():
    # empirical false-alarm rate at nominal 0.05 within +-0.02 over 5000 trials;
    # trial t's Y is complex_gaussian(64, 192, RngStream(2024, t))
    spec, far = ScenarioSpec("mp-null", 64, 192, 5000, 2024), 0.05
    thr = tw_quantile(TABLE, 1 - far)
    hits = 0
    for eigs in run_monte_carlo(spec, EigBinding("mp-null")).records["eigs"]:
        hits += tw_standardize(glrt_statistic(eigs), spec.n_dim, spec.ratio) > thr
    rate = hits / spec.trials
    assert 0.03 <= rate <= 0.07, f"empirical FAR {rate:.4f}"


def test_glrt_rejects_degenerate():
    with pytest.raises(SingularityError):
        glrt_statistic(np.zeros(4))
    with pytest.raises(ParameterError):
        glrt_test(np.ones(4), 8, far=0.0)
    for n_samples in (0, -3):
        with pytest.raises(ParameterError, match="need n >= 1"):
            glrt_test(np.ones(4), n_samples, far=0.01)


def test_glrt_refuses_a_far_beyond_the_table():
    # 1 - far above the table's last level has no quantile: the last knot would stand in for it
    tail = 1 - TABLE.cdf[-1]
    eigs = np.linspace(0.5, 1.5, 4)
    for far in (1e-12, tail / 2, 1e-300):
        with pytest.raises(ParameterError, match="smallest usable rate is 3.82e-12"):
            glrt_test(eigs, 8, far=far)
    for far in (tail, 3.82e-12):
        assert glrt_test(eigs, 8, far=far).threshold <= TABLE.s[-1]


def test_false_alarm_threshold_is_the_table_quantile():
    for far in (1e-2, 0.5, 1e-6):
        assert false_alarm_threshold(far) == tw_quantile(TABLE, 1 - far)
        assert glrt_test(np.linspace(0.5, 1.5, 4), 8, far=far).threshold == false_alarm_threshold(far)
    for far in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(ParameterError, match=r"must lie in \(0, 1\)"):
            false_alarm_threshold(far)


def test_condition_number_basics():
    assert condition_number_statistic(np.ones(5)) == 1.0
    assert condition_number_statistic([1.0, 4.0]) == 4.0
    with pytest.raises(SingularityError):
        condition_number_statistic([0.0, 1.0])


# --- spike fluctuations ------------------------------------------------------------


def calibrate_fluctuations(omega: float, c: float, n_dim: int, trials: int, rng: RngStream) -> FluctuationStats:
    """Monte-Carlo covariance of sqrt(N)(|u^H u_hat|^2 - xi, lam - rho) at N x round(N/c).

    The oracle of :func:`fluctuation_stats`.  Requires the detectable regime
    |omega| > sqrt(c); downward spikes use the smallest eigenvalue and need
    c < 1.  The calibrated matrix is ridged by 1e-9 if needed to stay
    positive definite.
    """
    if trials < 1000:
        raise ParameterError("calibration needs at least 1000 trials")
    if n_dim < 2:
        raise ParameterError("need N >= 2")
    limit = spike_limits(omega, c)
    if not limit.detectable:
        raise RegimeError("fluctuations are Gaussian only for |omega| > sqrt(c)")
    n_samples = max(1, int(round(n_dim / c)))
    scale = math.sqrt(1.0 + omega)
    take_largest = omega > 0
    pairs = np.empty((trials, 2))
    base = rng.generator().integers(0, 2**63 - 1)
    for t in range(trials):
        g = RngStream(int(base), t).generator()
        x = complex_gaussian(n_dim, n_samples, g)
        x[0, :] *= scale
        lam, vecs = np.linalg.eigh(x @ x.conj().T / n_samples)
        idx = -1 if take_largest else 0
        pairs[t] = (abs(vecs[0, idx]) ** 2 - limit.xi, lam[idx] - limit.rho)
    pairs *= math.sqrt(n_dim)
    sigma = np.cov(pairs.T)
    if np.linalg.eigvalsh(sigma)[0] <= 0:
        sigma = sigma + 1e-9 * np.eye(2)
    return FluctuationStats(omega, c, limit.xi, limit.rho, sigma)


# (omega, c, N) with the Monte Carlo at N x round(N/c); c = 2 runs at N = 80 because
# at N = 40 (n = 20) its finite-N bias alone puts the statistic at 0.11-0.18
FLUCTUATION_CASES = [(2.0, 0.5, 40), (1.5, 0.25, 40), (-0.8, 0.1, 40), (-0.6, 0.2, 40), (4.0, 1.0, 40), (3.0, 2.0, 80)]


@pytest.mark.parametrize("omega, c, n_dim", FLUCTUATION_CASES)
def test_fluctuation_stats_matches_monte_carlo(omega, c, n_dim):
    exact = fluctuation_stats(omega, c).sigma
    sampled = calibrate_fluctuations(omega, c, n_dim, 2000, RngStream(40)).sigma
    scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
    assert np.max(np.abs(exact - sampled) / scale) < 0.15, (exact, sampled)


@pytest.mark.parametrize("omega, c", [(2.0, 0.5), (0.9, 0.1), (3.0, 2.0), (40.0, 7.0), (-0.8, 0.1), (-0.5, 0.04)])
def test_fluctuation_stats_eigenvalue_entry_and_limits(omega, c):
    st = fluctuation_stats(omega, c)
    limit = spike_limits(omega, c)
    assert st.sigma[1, 1] == pytest.approx(c * (1 + omega) ** 2 * (1 - c / omega**2), rel=1e-12, abs=0)
    assert st.xi == pytest.approx(limit.xi, rel=1e-12, abs=0)
    assert st.rho == pytest.approx(limit.rho, rel=1e-12, abs=0)
    assert st.sigma[0, 1] == st.sigma[1, 0]


def test_fluctuation_stats_positive_definite():
    g = np.random.default_rng(17)
    for _ in range(2000):
        c = 10 ** g.uniform(-2, 0.6)
        sq = math.sqrt(c)
        if c >= 1 or g.random() < 0.5:
            omega = sq * (1 + 10 ** g.uniform(-3, 2))
        else:
            omega = -(sq + (1 - sq) * g.uniform(1e-3, 1 - 1e-3))
        sigma = fluctuation_stats(omega, c).sigma
        assert np.linalg.eigvalsh(sigma)[0] > 0, (omega, c, sigma)


def test_fluctuation_stats_regimes():
    for omega, c in [(0.5, 0.5), (math.sqrt(0.5), 0.5), (-0.3, 0.25), (-0.5, 0.25), (-0.9, 1.0), (-0.9, 2.0),
                     (0.0, 0.5), (0.0, 2.0)]:
        with pytest.raises(RegimeError):
            fluctuation_stats(omega, c)
    for omega in (-1.0, -1.5, math.inf, math.nan):
        with pytest.raises(ParameterError):
            fluctuation_stats(omega, 0.5)
    for omega in (1e31, 1e60, 1e150):  # Sigma_22 = c (1 + omega)^2 (1 - c/omega^2) is still a double
        sigma = fluctuation_stats(omega, 0.5).sigma
        assert np.all(np.isfinite(sigma)) and sigma[1, 1] == pytest.approx(0.5 * omega * omega, rel=1e-15)
    for omega in (3e154, 1e200):  # ... and from omega = 1.9e154 on it overflows
        with pytest.raises(ParameterError, match="overflows a double") as info:
            fluctuation_stats(omega, 0.5)
        assert not isinstance(info.value, RegimeError)  # so localization refuses them instead of skipping


def test_fluctuation_stats_refuse_a_sigma_that_is_not_finite():
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="overflows a double"):
            FluctuationStats(2.0, 0.5, 0.5, 4.0, np.array([[1.0, 0.0], [0.0, bad]]))


def test_fluctuation_stats_refuse_a_subnormal_entry():
    # at c = 0.01, Sigma_11 ~ c^2 (1+c) / omega^2 goes subnormal from omega ~ 6.7e151 on, and lost up to
    # 2e-10 of its value there, long before Sigma_22 ~ c omega^2 overflows (from 1.3e155 on)
    for omega in (1e152, 1e153, 1.3e154, 1e155):
        with pytest.raises(ParameterError, match="underflows a double") as info:
            fluctuation_stats(omega, 0.01)
        assert not isinstance(info.value, RegimeError)  # so localization refuses them instead of skipping
    got, exact = fluctuation_stats(1e150, 0.01).sigma, _exact_fluctuation_sigma(1e150, 0.01)
    assert max(abs(Fraction(float(got[i, j])) - exact[i][j]) / abs(exact[i][j]) for i in (0, 1) for j in (0, 1)) < 1e-13
    with pytest.raises(ParameterError, match="underflows a double"):
        FluctuationStats(2.0, 0.5, 0.5, 4.0, np.array([[1e-310, 0.0], [0.0, 1.0]]))


def _exact_fluctuation_sigma(omega, c):
    """Sigma in exact rational arithmetic, from the resolvent-derivative chain
    that the closed form of :func:`fluctuation_stats` reduces.

    With m0 = -1/(1+omega) and z(m) = -1/m + c/(1+m): a = 1/z', b = -z''/z'^3,
    d = (3 z''^2 - z' z''')/z'^5 and k = 1/rho + b/a (Couillet & Hachem,
    IEEE T-IT 59(1), 2013).
    """
    w, c = Fraction(omega), Fraction(c)
    m0 = -1 / (1 + w)
    z1 = 1 / m0**2 - c / (1 + m0) ** 2
    z2 = -2 / m0**3 + 2 * c / (1 + m0) ** 3
    z3 = 6 / m0**4 - 6 * c / (1 + m0) ** 4
    a, b, d = 1 / z1, -z2 / z1**3, (3 * z2**2 - z1 * z3) / z1**5
    rho = 1 + w + c * (1 + w) / w
    xi = (1 - c / w**2) / (1 + c / w)
    k = 1 / rho + b / a
    cross = -c * (xi / a**2) * (k * a - b / 2)
    return [[c * (xi / a) ** 2 * (k * k * a - k * b + d / 6), cross], [cross, c / a]]


@pytest.mark.parametrize("c", [0.01, 0.5, 0.99, 5.0])
def test_fluctuation_stats_match_the_exact_derivation(c):
    sq = math.sqrt(c)
    omegas = np.geomspace(sq * (1 + 1e-3), 1e30, 200).tolist()
    if c < 1:  # downward spikes, from the threshold to near -1
        omegas += (-np.geomspace(sq * (1 + 1e-3), 1 - 1e-9, 60)).tolist()
    for omega in omegas:
        got = fluctuation_stats(omega, c).sigma
        exact = _exact_fluctuation_sigma(omega, c)
        err = max(abs(Fraction(float(got[i, j])) - exact[i][j]) / abs(exact[i][j]) for i in (0, 1) for j in (0, 1))
        # nearer the threshold than 2 sqrt(c), omega^2 - c cancels and its rounding error grows
        assert err <= (1e-13 if abs(omega) >= 2 * sq else 1e-10), (omega, c, float(err))


def test_calibrate_guards():
    with pytest.raises(ParameterError):
        calibrate_fluctuations(3.0, 0.5, 32, trials=10, rng=RngStream(0))
    with pytest.raises(RegimeError):
        calibrate_fluctuations(0.3, 0.5, 32, trials=1000, rng=RngStream(0))


def test_calibrate_seed_stability_and_centering():
    omega, c, n_dim, trials = 50.0, 0.5, 60, 1000
    stats_a = calibrate_fluctuations(omega, c, n_dim, trials, RngStream(7))
    stats_b = calibrate_fluctuations(omega, c, n_dim, trials, RngStream(8))
    corr = []
    for st in (stats_a, stats_b):
        ev = np.linalg.eigvalsh(st.sigma)
        assert ev[0] > 0
        corr.append(st.sigma[0, 1] / math.sqrt(st.sigma[0, 0] * st.sigma[1, 1]))
    assert abs(corr[0] - corr[1]) < 0.05
    # standardized pair is centered up to 3 sd / sqrt(trials) plus finite-N drift
    pairs = _spike_pairs(omega, c, n_dim, trials, seed=123)
    for j in range(2):
        bound = 3 * np.std(pairs[:, j], ddof=1) / math.sqrt(trials) + 0.5
        assert abs(np.mean(pairs[:, j])) < bound


def _spike_pairs(omega, c, n_dim, trials, seed):
    lim = spike_limits(omega, c)
    n_samples = int(round(n_dim / c))
    out = np.empty((trials, 2))
    for t in range(trials):
        x = complex_gaussian(n_dim, n_samples, RngStream(seed, t))
        x[0, :] *= math.sqrt(1 + omega)
        eig = hermitian_eig(x @ x.conj().T / n_samples)
        idx = -1 if omega > 0 else 0
        out[t] = (
            abs(eig.eigenvectors[0, idx]) ** 2 - lim.xi,
            eig.eigenvalues[idx] - lim.rho,
        )
    return math.sqrt(n_dim) * out


# --- failure hypotheses and localization --------------------------------------------


def test_failure_hypotheses_no_change():
    h = complex_gaussian(6, 3, RngStream(11))
    hyps = failure_hypotheses(h, inverse_sqrt(h @ h.conj().T + np.eye(6)), [0.0, 0.0, 0.0])
    assert all(hyp.omega == 0.0 for hyp in hyps)
    for hyp in hyps:
        assert np.isclose(np.linalg.norm(hyp.u), 1.0, atol=1e-10)
        nz = np.flatnonzero(np.abs(hyp.u) > 1e-12)[0]
        assert hyp.u[nz].imag == pytest.approx(0.0, abs=1e-12)
        assert hyp.u[nz].real > 0


def test_failure_hypotheses_hand_case():
    # H = I, T = (1+s2) I, alpha_1 = 1  =>  omega_1 = 3/(1+s2)
    s2 = 0.5
    n = 4
    hyps = failure_hypotheses(np.eye(n), inverse_sqrt((1 + s2) * np.eye(n)), [1.0, 0.0, 0.0, 0.0])
    assert np.isclose(hyps[0].omega, 3.0 / (1 + s2))


def test_failure_hypotheses_total_collapse_negative():
    h = complex_gaussian(5, 5, RngStream(13))
    hyps = failure_hypotheses(h, inverse_sqrt(h @ h.conj().T + 0.25 * np.eye(5)), [-1.0] * 5)
    for hyp in hyps:
        v2 = -hyp.omega
        assert 0 < v2 < 1  # ||v||^2 = norm of whitened column, strictly below 1


def test_failure_hypotheses_guards():
    with pytest.raises(ParameterError):
        failure_hypotheses(np.eye(3), np.eye(3), [0.0])
    with pytest.raises(ParameterError):
        failure_hypotheses(np.eye(3), np.eye(3), [-2.0, 0.0, 0.0])
    for alphas in (1.0, None, "1.0", [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], ["x", 0.0, 0.0], [[0.0] * 3],
                   [1e200, 1.0, 1.0]):  # (1 + 1e200)^2 overflows a double
        with pytest.raises(ParameterError, match="alphas must be"):
            failure_hypotheses(np.eye(3), np.eye(3), alphas)
    for bad in (np.array([[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]]), np.diag([1.0, math.inf, 1.0])):
        with pytest.raises(ParameterError, match=r"H and T\^\(-1/2\) must be finite"):
            failure_hypotheses(bad, np.eye(3), [0.0] * 3)
        with pytest.raises(ParameterError, match=r"H and T\^\(-1/2\) must be finite"):
            failure_hypotheses(np.eye(3), bad, [0.0] * 3)
    with pytest.raises(ParameterError, match="N x N"):
        failure_hypotheses(np.eye(3), np.eye(2), [0.0] * 3)


def test_inverse_sqrt_guards():
    with pytest.raises(SingularityError):
        inverse_sqrt(np.zeros((3, 3)))
    for bad in (np.array([[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]]), np.diag([1.0, math.inf, 1.0])):
        with pytest.raises(ParameterError, match="T must be finite"):
            inverse_sqrt(bad)
    t_cov = np.array([[2.0, 1j], [-1j, 2.0]])
    w = inverse_sqrt(t_cov)
    assert np.allclose(w @ t_cov @ w, np.eye(2), atol=1e-14)


def test_failure_hypotheses_refuse_a_zero_column():
    h = complex_gaussian(4, 3, RngStream(12))
    h[:, 1] = 0
    inv_sqrt = inverse_sqrt(h @ h.conj().T + np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any 0/0
        with pytest.raises(ParameterError, match="column 1 of H is zero"):
            failure_hypotheses(h, inv_sqrt, [1.0, 1.0, 1.0])

def _unit(n, k):
    u = np.zeros(n, dtype=complex)
    u[k] = 1.0
    return u


def test_localize_single_hypothesis():
    hyp = FailureHypothesis(0, 2.0, _unit(8, 0))
    st = fluctuation_stats(2.0, 0.5)
    k, scores = localize_failure(3.0, _unit(8, 0), [hyp], [st])
    assert k == 0 and scores.size == 1


def test_localize_tie_breaks_low_index():
    hyp = FailureHypothesis(0, 2.0, _unit(8, 0))
    st = fluctuation_stats(2.0, 0.5)
    k, scores = localize_failure(3.0, _unit(8, 0), [hyp, hyp], [st, st])
    assert k == 0
    assert scores[0] == scores[1]


def test_localize_requires_calibration():
    hyp = FailureHypothesis(0, 2.0, _unit(4, 0))
    with pytest.raises(ParameterError):
        localize_failure(3.0, _unit(4, 0), [hyp], [None])


def test_fluctuation_stats_refuse_a_covariance_that_is_not_positive_definite():
    # det > 0 with both eigenvalues negative, det < 0, and a singular matrix
    for sigma in ([[-1.0, 0.0], [0.0, -2.0]], [[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]):
        with pytest.raises(ParameterError, match="positive definite"):
            FluctuationStats(2.0, 0.5, 0.5, 3.0, np.array(sigma))
    st = fluctuation_stats(2.0, 0.5)
    assert np.allclose(st.sigma_inv @ st.sigma, np.eye(2), atol=1e-12)
    assert abs(st.logdet - math.log(np.linalg.det(st.sigma))) < 1e-12


def test_localize_matches_per_hypothesis_scores():
    # the one-expression scores equal a solve and a slogdet per hypothesis
    g = RngStream(91).generator()
    n_dim, c = 12, 0.3
    hyps, stats = [], []
    for k, omega in enumerate((1.5, 2.0, 3.5, 0.9, 6.0)):
        u = complex_gaussian(n_dim, 1, g)[:, 0]
        hyps.append(FailureHypothesis(k, omega, u / np.linalg.norm(u)))
        stats.append(fluctuation_stats(omega, c))
    for _ in range(20):
        u_hat = complex_gaussian(n_dim, 1, g)[:, 0]
        u_hat /= np.linalg.norm(u_hat)
        lam = float(g.uniform(2.0, 9.0))
        want = []
        for hyp, st in zip(hyps, stats):
            delta = np.array([abs(np.vdot(hyp.u, u_hat)) ** 2 - st.xi, lam - st.rho])
            want.append(-n_dim * float(delta @ np.linalg.solve(st.sigma, delta)) - np.linalg.slogdet(st.sigma)[1])
        k, scores = localize_failure(lam, u_hat, hyps, stats)
        assert np.max(np.abs(scores - want)) <= 1e-12 * np.max(np.abs(want))
        assert k == int(np.argmax(want))


def test_exact_separation_three_mass_scenario():
    # each limiting support interval captures exactly its population
    # multiplicity of sample eigenvalues in >= 99% of trials
    from rmt.stieltjes import SpectralModel, support_clusters

    model = SpectralModel.from_multiplicities((1.0, 3.0, 7.0), (1, 1, 1), 0.1)
    intervals = support_clusters(model).intervals
    assert len(intervals) == 3
    spec = ScenarioSpec("masses", 300, 3000, 100, 57, {"atoms": [(1.0, 100), (3.0, 100), (7.0, 100)]})
    good = 0
    for eigs in run_monte_carlo(spec, EigBinding("masses")).records["eigs"]:
        counts = [
            int(np.sum((eigs > lo - 0.05) & (eigs < hi + 0.05))) for lo, hi in intervals
        ]
        good += counts == [100, 100, 100]
    assert good >= 99, f"exact separation held in {good}/100 trials"


def test_localization_rate_well_separated():
    # orthogonal directions, omega gap > 1, data from hypothesis index 0
    n_dim, c = 50, 0.25
    n_samples = int(n_dim / c)
    om_a, om_b = 3.0, 1.2
    hyps = [
        FailureHypothesis(0, om_a, _unit(n_dim, 0)),
        FailureHypothesis(1, om_b, _unit(n_dim, 1)),
    ]
    stats = [fluctuation_stats(om_a, c), fluctuation_stats(om_b, c)]
    hits = 0
    trials = 100
    scale = np.ones(n_dim)
    scale[0] = math.sqrt(1 + om_a)
    for t in range(trials):
        x = complex_gaussian(n_dim, n_samples, RngStream(33, t))
        eig = hermitian_eig(sample_covariance(scale[:, None] * x))
        k, _ = localize_failure(eig.eigenvalues[-1], eig.eigenvectors[:, -1], hyps, stats)
        hits += k == 0
    assert hits / trials > 0.9
