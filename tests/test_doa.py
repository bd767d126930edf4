import math

import numpy as np
import pytest

from rmt.doa import SteeringModel, _doa_from_eigh, estimate_doa, gmusic_weights, steering_matrix
from rmt.errors import DegeneracyError, ParameterError
from rmt.gestimation import mu_eigenvalues
from rmt.linalg import RngStream, complex_gaussian, hermitian_eig, sample_covariance

MODEL20 = SteeringModel(20)


def steering_vector(model, theta_deg):
    return steering_matrix(model, [theta_deg])[:, 0]


def weighted_cost(eigvecs, weights, svecs):
    """Quadratic form s^H (sum_i w_i u_i u_i^H) s for each steering column: the grid-scan
    oracle for the root-MUSIC polynomial costs of estimate_doa."""
    return np.asarray(weights) @ (np.abs(eigvecs.conj().T @ svecs) ** 2)


def music_cost(noise_space, s):
    """Squared projection of s onto the noise subspace, in [0, 1]."""
    proj = noise_space.conj().T @ s
    return float(np.real(np.vdot(proj, proj)))


def doa_observation(model, angles, snr_db, n_samples, seed, trial=0):
    g = RngStream(seed, trial).generator()
    sigma = 10 ** (-snr_db / 20)
    smat = steering_matrix(model, angles)
    x = complex_gaussian(len(angles), n_samples, g)
    w = complex_gaussian(model.n_sensors, n_samples, g)
    return smat @ x + sigma * w


# --- steering vectors -----------------------------------------------------------


def test_steering_broadside_uniform():
    s = steering_vector(SteeringModel(5), 0.0)
    assert np.allclose(s, np.full(5, 1 / math.sqrt(5)))


def test_steering_unit_norm_everywhere():
    for theta in np.linspace(-90, 90, 37):
        assert np.isclose(np.linalg.norm(steering_vector(MODEL20, theta)), 1.0, atol=1e-12)


def test_steering_distinct_angles_not_collinear():
    a = steering_vector(MODEL20, 35.0)
    b = steering_vector(MODEL20, 37.0)
    assert abs(np.vdot(a, b)) < 1.0 - 1e-4


def test_steering_model_validation():
    with pytest.raises(ParameterError):
        SteeringModel(1)
    with pytest.raises(ParameterError):
        SteeringModel(4, spacing=-1.0)
    with pytest.raises(ParameterError, match="alias"):
        SteeringModel(4, spacing=1.5)


# --- MUSIC cost ------------------------------------------------------------------


def test_music_cost_projection_extremes():
    # s inside the noise space -> 1; orthogonal to it -> 0
    noise = np.eye(4, 2).astype(complex)
    inside = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    ortho = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    assert np.isclose(music_cost(noise, inside), 1.0)
    assert np.isclose(music_cost(noise, ortho), 0.0)


def test_music_cost_population_covariance_oracle():
    # exact covariance: the MUSIC cost of estimate_doa's polynomial vanishes at each true angle
    angles = (-20.0, 5.0, 40.0)
    smat = steering_matrix(MODEL20, angles)
    t_cov = smat @ smat.conj().T + 0.1 * np.eye(20)
    # the true angles as the grid; MUSIC's weights do not read the sample count
    res = _doa_from_eigh(hermitian_eig(t_cov), 1000, len(angles), MODEL20, np.array(angles), "music")
    assert np.all(np.abs(res.costs) < 1e-10), res.costs


# --- G-MUSIC weights -----------------------------------------------------------------


def test_gmusic_weights_2x2_hand_expansion():
    # N=2, K=1, lambda=(1,2), n=2: mu=(0,1.5);
    # phi(1) = 1 + [2/(1-2) - 1.5/(1-1.5)] = 2, phi(2) = -[1/(2-1) - 0/2] = -1
    phi = gmusic_weights(np.array([1.0, 2.0]), 2, 1)
    assert np.allclose(phi, [2.0, -1.0], atol=1e-12)


def test_gmusic_weights_classical_limit():
    # fixed well-separated spectrum at n = 1e4 * N: indicator weights recovered
    n_dim, k = 10, 2
    lam = np.concatenate([np.linspace(0.95, 1.05, n_dim - k), [5.0, 9.0]])
    phi = gmusic_weights(lam, 10_000 * n_dim, k)
    assert np.max(np.abs(phi[: n_dim - k] - 1.0)) < 1e-2
    assert np.max(np.abs(phi[n_dim - k :])) < 1e-2


def test_gmusic_weighted_matrix_hermitian_and_real_cost():
    y = doa_observation(MODEL20, (35.0, 37.0), 10.0, 150, seed=41)
    eig = hermitian_eig(sample_covariance(y))
    phi = gmusic_weights(eig.eigenvalues, 150, 2)
    m = (eig.eigenvectors * phi) @ eig.eigenvectors.conj().T
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    s = steering_vector(MODEL20, 36.0)
    quad = np.vdot(s, m @ s)
    assert abs(quad.imag) < 1e-10
    assert np.isclose(weighted_cost(eig.eigenvectors, phi, s[:, None])[0], quad.real, atol=1e-12)


def test_gmusic_degeneracy_error():
    lam = np.array([1.0, 1.0 + 1e-14, 2.0, 3.0])
    with pytest.raises(DegeneracyError):
        gmusic_weights(lam, 100, 1)


def gmusic_weights_loop(lam, n_samples, k):
    """Per-eigenvalue loop form of the G-MUSIC weights, the oracle for the vectorised one."""
    n_dim = lam.size
    if np.any(np.diff(lam) < 1e-13):
        raise DegeneracyError("coincident sample eigenvalues: weights are singular")
    mu = mu_eigenvalues(lam, n_samples)
    noise = np.arange(n_dim - k)
    signal = np.arange(n_dim - k, n_dim)
    phi = np.empty(n_dim)
    for i in range(n_dim):
        others = signal if i < n_dim - k else noise
        dl = lam[i] - lam[others]
        dm = lam[i] - mu[others]
        if np.any(np.abs(dl) < 1e-13) or np.any(np.abs(dm) < 1e-13):
            raise DegeneracyError("lambda/mu collision: weights are singular")
        s = np.sum(lam[others] / dl - mu[others] / dm)
        phi[i] = 1.0 + s if i < n_dim - k else -s
    return phi


def test_gmusic_weights_match_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n_dim = int(rng.integers(2, 25))
        k = int(rng.integers(0, n_dim))
        lam = np.sort(rng.exponential(1.0, n_dim) + rng.uniform(0, 3) * (np.arange(n_dim) >= n_dim - k))
        n_samples = int(rng.integers(n_dim // 2 + 1, 20 * n_dim))
        np.testing.assert_array_equal(gmusic_weights(lam, n_samples, k), gmusic_weights_loop(lam, n_samples, k))


@pytest.mark.parametrize(
    "lam, k, reason",
    [
        (np.array([1.0, 1.0 + 1e-14, 2.0, 3.0]), 1, "coincident"),
        # gaps above 1e-13 with a mu within 1e-13 of a lambda across the split
        (np.array([1.0, 2.0, 3.0, 3.0 + 1.5e-13, 5.0]), 2, "collision"),
        (np.array([0.5, 1.0, 1.0 + 1.2e-13, 4.0]), 2, "collision"),
    ],
)
def test_gmusic_weights_degenerate_inputs_raise_like_the_loop(lam, k, reason):
    with pytest.raises(DegeneracyError, match=reason):
        gmusic_weights_loop(lam, 50, k)
    with pytest.raises(DegeneracyError, match=reason):
        gmusic_weights(lam, 50, k)


def test_indicator_weights_reproduce_music():
    y = doa_observation(MODEL20, (10.0,), 10.0, 200, seed=42)
    eig = hermitian_eig(sample_covariance(y))
    noise_space = eig.eigenvectors[:, :19]
    indicator = np.zeros(20)
    indicator[:19] = 1.0
    thetas = np.linspace(-90, 90, 181)
    smat = steering_matrix(MODEL20, thetas)
    via_weights = weighted_cost(eig.eigenvectors, indicator, smat)
    direct = np.array([music_cost(noise_space, smat[:, j]) for j in range(smat.shape[1])])
    assert np.max(np.abs(via_weights - direct)) < 1e-12


# --- angle extraction ------------------------------------------------------------------


def test_estimate_doa_noiseless_recovery():
    # effectively noiseless single source at 10 degrees (sigma^2 = 1e-6 keeps
    # the sample noise eigenvalues distinct, so the weights stay regular)
    y = doa_observation(MODEL20, (10.0,), 60.0, 2000, seed=43)
    grid = np.arange(-90.0, 90.0001, 0.05)
    for method in ("music", "gmusic"):
        res = estimate_doa(y, 1, MODEL20, grid, method)
        assert res.complete
        assert abs(res.angles[0] - 10.0) < 0.05, (method, res.angles)


def method_weights(y, k, method):
    eig = hermitian_eig(sample_covariance(y))
    if method == "music":
        return eig, (np.arange(y.shape[0]) < y.shape[0] - k).astype(float)
    return eig, gmusic_weights(eig.eigenvalues, y.shape[1], k)


def grid_minima(grid, costs):
    i = np.flatnonzero((costs[1:-1] < costs[:-2]) & (costs[1:-1] <= costs[2:])) + 1
    return grid[i], costs[i]


def test_estimate_doa_costs_match_steering_scan():
    grid = np.arange(-90.0, 90.0001, 0.05)
    for n_dim in (2, 6, 20):
        k = 1 if n_dim == 2 else 2
        for d in (0.5, 0.8, 1.0):
            model = SteeringModel(n_dim, d)
            y = doa_observation(model, (-20.0, 30.0)[:k], 5.0, 3 * n_dim, seed=48 + n_dim)
            for method in ("music", "gmusic"):
                eig, w = method_weights(y, k, method)
                oracle = weighted_cost(eig.eigenvectors, w, steering_matrix(model, grid))
                res = estimate_doa(y, k, model, grid, method)
                assert np.max(np.abs(res.costs - oracle)) < 1e-13, (n_dim, d, method)


def test_estimate_doa_minima_match_fine_grid_oracle():
    # the roots of the cost polynomial against the minima of the cost scanned
    # on a 0.001-degree grid: same count, same angles, same K deepest
    fine = np.arange(-90.0, 90.0, 0.001)
    search = np.arange(-90.0, 90.0001, 0.05)
    cases = [(MODEL20, (35.0, 37.0), 10.0, 150), (SteeringModel(6, 0.8), (-20.0, 40.0), 3.0, 9)]
    for model, angles, snr_db, n_samples in cases:
        smat = steering_matrix(model, fine)
        for trial in range(25):
            y = doa_observation(model, angles, snr_db, n_samples, seed=49, trial=trial)
            for method in ("music", "gmusic"):
                eig, w = method_weights(y, len(angles), method)
                # in column blocks: the whole 180 000-column product would hold ~60 MB at once
                costs = np.concatenate([weighted_cost(eig.eigenvectors, w, smat[:, j:j + 20_000])
                                        for j in range(0, fine.size, 20_000)])
                at, depth = grid_minima(fine, costs)
                got = np.array(estimate_doa(y, len(angles), model, search, method).angles)
                assert all(np.min(np.abs(at - a)) < 1e-3 for a in got), (trial, method, got)
                deepest = np.sort(at[np.argsort(depth, kind="stable")[: len(angles)]])
                assert got.size == deepest.size and np.all(np.abs(got - deepest) < 1e-3), (trial, method)


def test_estimate_doa_angles_do_not_depend_on_grid_step():
    coarse = np.arange(-90.0, 90.0001, 1.0)
    fine = np.arange(-90.0, 90.0001, 0.05)
    for trial in range(5):
        y = doa_observation(MODEL20, (35.0, 37.0), 10.0, 150, seed=50, trial=trial)
        for method in ("music", "gmusic"):
            a = estimate_doa(y, 2, MODEL20, coarse, method)
            b = estimate_doa(y, 2, MODEL20, fine, method)
            assert len(a.angles) == len(b.angles) == 2
            assert np.max(np.abs(np.subtract(a.angles, b.angles))) < 1e-9


def test_estimate_doa_global_phase_invariance():
    y = doa_observation(MODEL20, (25.0,), 10.0, 150, seed=44)
    grid = np.arange(-90.0, 90.0001, 0.1)
    base = estimate_doa(y, 1, MODEL20, grid, "gmusic")
    rotated = estimate_doa(np.exp(1j * 1.234) * y, 1, MODEL20, grid, "gmusic")
    assert np.max(np.abs(base.costs - rotated.costs)) < 1e-10
    assert np.max(np.abs(np.subtract(base.angles, rotated.angles))) < 1e-9


def test_estimate_doa_k_zero():
    # with no signal subspace G-MUSIC weighs every eigenvector by 1, as MUSIC does
    y = doa_observation(MODEL20, (0.0,), 10.0, 100, seed=45)
    grid = np.arange(-10.0, 10.0001, 0.1)
    results = [estimate_doa(y, 0, MODEL20, grid, method) for method in ("music", "gmusic")]
    for res in results:
        assert res.angles == () and res.complete
    assert np.allclose(results[0].costs, results[1].costs, atol=1e-12)
    lam = hermitian_eig(sample_covariance(y)).eigenvalues
    assert np.array_equal(gmusic_weights(lam, 100, 0), np.ones(20))


def test_estimate_doa_refuses_negative_k():
    y = doa_observation(MODEL20, (0.0,), 10.0, 100, seed=45)
    for method in ("music", "gmusic"):
        with pytest.raises(ParameterError):
            estimate_doa(y, -1, MODEL20, np.arange(-10.0, 10.0001, 0.1), method)
    lam = hermitian_eig(sample_covariance(y)).eigenvalues
    with pytest.raises(ParameterError):
        gmusic_weights(lam, 100, -1)


def test_estimate_doa_incomplete_flagged():
    # a window holding a single source but asked for two
    y = doa_observation(MODEL20, (10.0,), 200.0, 2000, seed=46)
    grid = np.arange(9.0, 11.0001, 0.05)
    res = estimate_doa(y, 2, MODEL20, grid, "music")
    assert len(res.angles) < 2
    assert not res.complete


def test_estimate_doa_guards():
    y = doa_observation(MODEL20, (0.0,), 10.0, 100, seed=47)
    with pytest.raises(ParameterError):
        estimate_doa(y, 1, MODEL20, np.arange(-10, 10, 0.05), "bogus")
    with pytest.raises(ParameterError):
        estimate_doa(y, 20, MODEL20, np.arange(-10, 10, 0.05), "music")
    # a NaN grid point returned a NaN cost, and a NaN first point dropped every minimum
    for grid in ([-90.0, math.nan, 90.0], [math.nan, 0.0, 10.0, 20.0], [-90.0, 0.0, math.inf],
                 [-math.inf, 0.0, 90.0], [-90.0, 0.0, 0.0, 90.0]):
        with pytest.raises(ParameterError, match="angle grid must be ascending with >= 3 points"):
            estimate_doa(y, 1, MODEL20, grid)
