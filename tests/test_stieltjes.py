import warnings

import numpy as np
import pytest

from rmt.errors import ParameterError, SingularityError
from rmt.linalg import RngStream, complex_gaussian
from rmt.stieltjes import (
    SpectralModel,
    _companion_polynomial,
    capacity_identity,
    density_from_stieltjes,
    empirical_stieltjes,
    mp_density,
    mp_stieltjes,
    mp_stieltjes_edge,
    mp_support,
    solve_companion_stieltjes,
    support_clusters,
)

SINGLE_ATOM = ((1.0, 1.0),)


def random_upper_half_points(count, seed):
    rng = RngStream(seed).generator()
    re = rng.uniform(-2.0, 5.0, count)
    im = rng.uniform(0.05, 3.0, count)
    return re + 1j * im


# --- empirical transform ------------------------------------------------------


def test_empirical_single_atom():
    assert np.isclose(empirical_stieltjes([1.0], 1j), 0.5 + 0.5j)


def test_empirical_symmetry_cancellation():
    assert np.isclose(empirical_stieltjes([0.0, 2.0], 1.0 + 0j), 0.0)


def test_empirical_matches_resolvent_trace():
    # 6x6 diagonal case: (1/N) tr (X - zI)^{-1} by explicit inversion
    d = np.array([0.3, 0.7, 1.1, 1.9, 2.5, 4.0])
    z = 0.8 + 0.6j
    resolvent = np.linalg.inv(np.diag(d) - z * np.eye(6))
    assert np.isclose(empirical_stieltjes(d, z), np.trace(resolvent) / 6)


def test_empirical_positivity_and_singularity():
    pts = random_upper_half_points(50, 4)
    eigs = np.linspace(0.1, 3.0, 8)
    for z in pts:
        assert empirical_stieltjes(eigs, z).imag > 0
    with pytest.raises(SingularityError):
        empirical_stieltjes([1.0, 2.0], 2.0 + 0j)


# --- Marchenko-Pastur closed forms ---------------------------------------------


def test_mp_support_and_density_c_half():
    a, b, mass0 = mp_support(0.5)
    assert np.isclose(a, 0.0857864376, atol=1e-9)
    assert np.isclose(b, 2.9142135624, atol=1e-9)
    assert mass0 == 0.0
    # Fig-2 curve value frozen from the closed form
    assert abs(mp_density(0.5, 1.0) - 0.421084) < 1e-5


def test_mp_support_c_one_and_c_two():
    a, b, mass0 = mp_support(1.0)
    assert a == 0.0 and np.isclose(b, 4.0) and mass0 == 0.0
    _, _, mass2 = mp_support(2.0)
    assert np.isclose(mass2, 0.5)


def test_mp_density_outside_support_zero():
    assert mp_density(0.5, 0.01) == 0.0
    assert mp_density(0.5, 3.5) == 0.0
    with pytest.raises(ParameterError):
        mp_density(-1.0, 1.0)
    with pytest.raises(ParameterError):
        mp_density(0.5, -0.5)


def test_mp_closed_forms_refuse_non_finite_ratio():
    for c in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            mp_support(c)
        with pytest.raises(ParameterError):
            mp_stieltjes(c, 1j)
        with pytest.raises(ParameterError):
            mp_density(c, 1.0)


def test_mp_density_integrates_to_one():
    for c in (0.1, 0.5, 0.9, 2.0):
        a, b, mass0 = mp_support(c)
        x = np.linspace(a, b, 200001)
        total = np.trapezoid(mp_density(c, x), x) + mass0
        assert abs(total - 1.0) < 1e-3


def test_mp_stieltjes_defining_identity():
    for c in (0.1, 0.5, 1.0, 2.0):
        for z in random_upper_half_points(25, 8):
            m = mp_stieltjes(c, z)
            assert m.imag > 0
            residual = abs(m - 1.0 / (1 - c - z - z * c * m))
            assert residual < 1e-12


def test_mp_stieltjes_matches_density():
    m = mp_stieltjes(0.5, 1.0 + 1e-4j)
    assert abs(m.imag / np.pi - 0.4211) < 1e-3


def test_mp_stieltjes_c_to_zero_limit():
    z = 2.0 + 1.0j
    m = mp_stieltjes(1e-9, z)
    assert abs(m - 1.0 / (1.0 - z)) < 1e-6


def test_mp_stieltjes_edge_branch():
    # boundary value must continue m(z) from above and stay negative
    c = 0.5
    _, b, _ = mp_support(c)
    for x in (b + 0.01, b + 0.5, b + 10):
        edge = mp_stieltjes_edge(c, x)
        above = mp_stieltjes(c, x + 1e-9j)
        assert edge < 0
        assert abs(edge - above.real) < 1e-6
    with pytest.raises(ParameterError):
        mp_stieltjes_edge(c, b - 0.1)


# --- Theorem-1 fixed point ------------------------------------------------------


def test_companion_reproduces_mp_closed_form():
    # single-atom model: m_under must equal the companion of mp_stieltjes,
    # related by m_under = c * m_F + (c-1)/z
    for c in (0.1, 0.5, 2.0):
        model = SpectralModel(SINGLE_ATOM, c)
        for z in random_upper_half_points(34, seed=int(10 * c)):
            sol = solve_companion_stieltjes(model, z)
            mp = mp_stieltjes(c, z)
            assert abs(sol.m_under - (c * mp + (c - 1) / z)) < 1e-8
            assert abs(sol.m - mp) < 1e-8
            assert sol.m_under.imag > 0
            assert sol.residual <= 1e-10


def test_companion_c_to_zero_gives_minus_inv_z():
    model = SpectralModel(((1.0, 0.25), (3.0, 0.75)), 1e-8)
    z = 1.5 + 0.8j
    sol = solve_companion_stieltjes(model, z)
    assert abs(sol.m_under + 1.0 / z) < 1e-6


def random_atoms(rng, k):
    vals = np.sort(rng.uniform(0.2, 9.0, k))
    vals += np.arange(k) * 1e-3  # enforce strict increase
    w = rng.uniform(0.1, 1.0, k)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return tuple(zip(vals, w))


def test_companion_stieltjes_positivity_random_models():
    rng = RngStream(21).generator()
    for trial in range(10):
        k = rng.integers(1, 5)
        model = SpectralModel(random_atoms(rng, k), float(rng.uniform(0.05, 3.0)))
        for z in random_upper_half_points(10, seed=100 + trial):
            sol = solve_companion_stieltjes(model, z)
            assert sol.m_under.imag > 0
            assert sol.m.imag > 0


def damped_fixed_point(model, z, start=None, tol=1e-12, max_iterations=200_000):
    """Reference oracle: the damped companion fixed point m <- (m + map(m)) / 2."""
    t, w, c = model.values(), model.weights(), model.ratio
    m = start if start is not None and start.imag > 0 else -1.0 / z
    for _ in range(max_iterations):
        nxt = -1.0 / (z - c * np.sum(w * t / (1.0 + t * m)))
        if abs(nxt - m) <= tol:
            return nxt
        m = 0.5 * (m + nxt)
    raise AssertionError(f"reference fixed point stalled at z={z}")


def test_companion_roots_match_fixed_point_oracle():
    # K = 1..5, c log-uniform on [1e-8, 5], Im z log-uniform on [1e-4, 10]
    rng = RngStream(22).generator()
    for _ in range(200):
        atoms = random_atoms(rng, rng.integers(1, 6))
        model = SpectralModel(atoms, float(10 ** rng.uniform(-8, np.log10(5))))
        z = complex(rng.uniform(-2.0, 15.0), 10 ** rng.uniform(-4, 1))
        sol = solve_companion_stieltjes(model, z)
        assert abs(sol.m_under - damped_fixed_point(model, z)) < 1e-8, (model, z)
        assert sol.residual < 1e-8


def test_density_matches_fixed_point_oracle_fig3():
    grid = np.arange(0.05, 11.0, 0.01)
    for values in ((1.0, 3.0, 7.0), (1.0, 3.0, 4.0)):
        model = SpectralModel.from_multiplicities(values, (1, 1, 1), 0.1)
        c = model.ratio
        for eps in (1e-3, 1e-4):
            dens = density_from_stieltjes(model, grid, eps=eps)
            ref, m = [], None
            for x in grid:
                z = complex(x, eps)
                m = damped_fixed_point(model, z, start=m)
                ref.append(max(0.0, ((m - (c - 1) / z) / c).imag / np.pi))
            assert np.array_equal(dens.grid, grid) and not dens.skipped
            assert np.max(np.abs(dens.values - np.array(ref))) < 1e-8, (values, eps)


# --- density reconstruction ----------------------------------------------------


def test_density_single_atom_matches_mp():
    for c in (0.1, 0.5, 2.0):
        model = SpectralModel(SINGLE_ATOM, c)
        lo = 0.0 if c < 1 else 0.05
        _, b, _ = mp_support(c)
        grid = np.arange(lo, b + 0.3, 0.01)
        if c >= 1:
            grid = grid[grid > 0]
        dens = density_from_stieltjes(model, grid, eps=1e-4)
        assert not dens.skipped
        sup = np.max(np.abs(dens.values - mp_density(c, dens.grid)))
        assert sup < 1e-2, f"c={c}: sup deviation {sup:.4f}"


def test_density_normalization_and_mass_at_zero():
    model = SpectralModel(SINGLE_ATOM, 2.0)
    grid = np.arange(0.05, 6.5, 0.01)
    dens = density_from_stieltjes(model, grid, eps=1e-4)
    assert np.isclose(dens.mass_at_zero, 0.5)
    assert abs(dens.total_mass() - 1.0) < 2e-2
    assert np.all(dens.values >= 0)


def test_density_above_c_one_leaves_out_the_mass_at_zero():
    # the eps-smoothed Dirac tail near x = 0 is mass_at_zero, not continuous density
    model = SpectralModel(SINGLE_ATOM, 2.0)
    grid = np.arange(0.01, (1 + 2**0.5) ** 2 * 1.4, 0.01)  # the CLI's default grid
    dens = density_from_stieltjes(model, grid, eps=1e-3)
    assert dens.values[0] < 1e-3
    assert abs(dens.total_mass() - 1.0) < 1e-3
    below = (grid > 0.05) & (grid < mp_support(2.0)[0] - 0.01)
    assert np.max(dens.values[below]) < 5e-3


def test_density_cluster_counts_fig3():
    # three masses {1,3,7} at c=0.1 resolve into 3 support intervals,
    # {1,3,4} into 2 (the 3 and 4 clusters merge)
    grid = np.arange(0.05, 11.0, 0.01)
    for values, expected in (((1.0, 3.0, 7.0), 3), ((1.0, 3.0, 4.0), 2)):
        model = SpectralModel.from_multiplicities(values, (1, 1, 1), 0.1)
        dens = density_from_stieltjes(model, grid, eps=1e-4)
        clusters = support_clusters(model)
        assert len(clusters.intervals) == expected, (values, clusters.intervals)
        assert abs(dens.total_mass() - 1.0) < 2e-2
        # interval masses account for everything but the (empty here) zero mass
        assert abs(sum(clusters.masses) - (1.0 - dens.mass_at_zero)) < 2e-2


def test_density_third_cluster_near_seven():
    model = SpectralModel.from_multiplicities((1.0, 3.0, 7.0), (1, 1, 1), 0.1)
    clusters = support_clusters(model)
    lo, hi = clusters.intervals[-1]
    assert lo < 7.0 * 0.8 and hi > 7.0 * 1.2


def test_density_rejects_bad_grid():
    model = SpectralModel(SINGLE_ATOM, 0.5)
    with pytest.raises(ParameterError):
        density_from_stieltjes(model, [1.0, 0.5], eps=1e-3)
    with pytest.raises(ParameterError):
        density_from_stieltjes(model, [0.5, 1.0], eps=-1.0)
    with pytest.raises(ParameterError):
        density_from_stieltjes(model, [0.5, 1.0], eps=np.inf)
    for eps in (-1e-300, np.nan):
        with pytest.raises(ParameterError, match="eps must be nonnegative"):
            density_from_stieltjes(model, [0.5, 1.0], eps=eps)
    with pytest.raises(ParameterError):
        density_from_stieltjes(model, [0.5, np.nan, 1.0], eps=1e-3)


def smoothed_density_oracle(model, grid, eps):
    """Reference for the eps > 0 route, built in line: complex companion
    matrices at x + i*eps, the smoothed Dirac mass taken out."""
    a, b = _companion_polynomial(model)
    z = grid + 1j * eps
    coeffs = a + z[:, None] * b
    degree = b.size - 1
    companion = np.zeros((z.size, degree, degree), dtype=complex)
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    c = model.ratio
    m_f = (roots[np.arange(z.size), np.argmax(roots.imag, axis=1)] - (c - 1) / z) / c
    mass0 = max(0.0, 1 - 1 / c)
    return np.maximum(m_f.imag / np.pi - mass0 * eps / (np.pi * (grid**2 + eps**2)), 0.0)


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0])
def test_exact_density_matches_mp_density(c):
    _, b, mass0 = mp_support(c)
    grid = np.arange(0.0, b + 0.5, 1e-3)
    for dens in (density_from_stieltjes(SpectralModel(SINGLE_ATOM, c), grid),
                 density_from_stieltjes(SpectralModel(SINGLE_ATOM, c), grid, eps=0)):
        assert np.array_equal(dens.grid, grid) and not dens.skipped and dens.mass_at_zero == mass0
        assert np.max(np.abs(dens.values - mp_density(c, grid))) < 1e-12, c


def test_exact_density_is_zero_outside_the_support():
    for model, clusters, grid, inside, away in grid_oracle_models():
        values = density_from_stieltjes(model, grid).values
        assert np.all(values[~inside] == 0.0), (model, clusters)
        assert np.all(values[inside & away] > 0.0), (model, clusters)


def test_exact_density_solves_real_companions_at_positive_x_only(monkeypatch):
    stacks, eigvals = [], np.linalg.eigvals

    def recorded(a):
        stacks.append(a)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    grid = np.array([-2.0, -0.5, 0.0, 0.1, 1.0, 3.0, 20.0])
    for c in (0.5, 2.0):
        model = SpectralModel.from_multiplicities((1.0, 3.0), (1, 1), c)
        values = density_from_stieltjes(model, grid).values
        assert np.all(values[grid <= 0] == 0.0)
        assert np.any(values > 0)
        assert stacks[-1].dtype == np.float64 and stacks[-1].shape == (4, 3, 3)
    assert np.all(density_from_stieltjes(model, [-1.0, 0.0]).values == 0.0)  # nothing to solve
    # an explicit eps > 0 keeps the complex route
    density_from_stieltjes(model, grid, eps=1e-3)
    assert stacks[-1].dtype == np.complex128 and stacks[-1].shape == (7, 3, 3)


def test_smoothed_density_keeps_its_bits():
    grid = np.arange(-0.5, 11.0, 0.01)
    for values, c in (((1.0, 3.0, 7.0), 0.1), ((1.0, 3.0, 4.0), 0.1), ((1.0,), 2.0), ((0.5, 4.0), 3.0)):
        model = SpectralModel.from_multiplicities(values, (1,) * len(values), c)
        for eps in (1e-3, 1e-4, 0.5):
            dens = density_from_stieltjes(model, grid, eps=eps)
            assert dens.values.tobytes() == smoothed_density_oracle(model, grid, eps).tobytes(), (values, c, eps)


# --- support clusters -----------------------------------------------------------


def test_support_clusters_mp_single_interval():
    for c in (0.1, 0.5, 2.0, 10.0):
        a, b, mass0 = mp_support(c)
        clusters = support_clusters(SpectralModel(SINGLE_ATOM, c))
        assert len(clusters.intervals) == 1
        lo, hi = clusters.intervals[0]
        assert abs(lo - a) < 1e-12 and abs(hi - b) < 1e-12, c
        assert abs(clusters.masses[0] - (1.0 - mass0)) < 1e-12, c


def test_support_clusters_c_one_reaches_zero():
    # at c = 1 one critical point sits at m = infinity and the lowest edge at 0
    clusters = support_clusters(SpectralModel(SINGLE_ATOM, 1.0))
    assert np.allclose(clusters.intervals, ((0.0, 4.0),), rtol=0.0, atol=1e-12)
    assert np.allclose(clusters.masses, (1.0,), rtol=0.0, atol=1e-12)
    # reference edges from a 60-digit solve of the same critical-point equation
    model = SpectralModel.from_multiplicities((1.0, 2.0, 3.0, 50.0, 51.0), (1,) * 5, 1.0)
    clusters = support_clusters(model)
    want = ((0.0, 5.194793424525635), (8.19733471034072, 135.83390480851108))
    assert np.allclose(clusters.intervals, want, rtol=1e-9, atol=0.0)
    assert np.allclose(clusters.masses, (0.6, 0.4), atol=1e-12)


def test_support_clusters_refuse_edges_double_precision_merges():
    # at c = 1e-300 both edges of the one cluster round onto the pole u = -1; at
    # 1e-16 the edges around the atom at 1 merge while those around 3 do not
    for atoms, c in ((SINGLE_ATOM, 1e-300), (((1.0, 0.5), (3.0, 0.5)), 1e-16)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="too narrow around some atom"):
                support_clusters(SpectralModel(atoms, c))
    a, b, _ = mp_support(1e-12)
    clusters = support_clusters(SpectralModel(SINGLE_ATOM, 1e-12))
    assert clusters.masses == (1.0,) and np.allclose(clusters.intervals, ((a, b),), rtol=1e-12, atol=0.0)


def continuous_density(model, grid, eps=1e-9):
    """Grid oracle for the support: the smoothed density with the smoothed
    (1 - 1/c)^+ Dirac mass at zero taken off, positive only on the support."""
    mass0 = max(0.0, 1 - 1 / model.ratio)
    dens = density_from_stieltjes(model, grid, eps=eps)
    return dens.values - mass0 * eps / (np.pi * (grid**2 + eps**2))


def grid_oracle_models():
    """50 models (K = 1..5, c log-uniform on [0.01, 5], every fifth at c = 1),
    each with its exact clusters, a 4000-point grid past the top edge, and the
    grid points inside a cluster and away from every edge."""
    rng = RngStream(23).generator()
    for trial in range(50):
        atoms = random_atoms(rng, rng.integers(1, 6))
        c = 1.0 if trial % 5 == 0 else float(10 ** rng.uniform(-2, np.log10(5)))
        model = SpectralModel(atoms, c)
        clusters = support_clusters(model)
        edges = np.ravel(clusters.intervals)
        grid = np.linspace(1e-3, 1.2 * edges[-1], 4000)
        inside = np.zeros(grid.size, dtype=bool)
        for lo, hi in clusters.intervals:
            inside |= (grid > lo) & (grid < hi)
        away = np.min(np.abs(grid[:, None] - edges), axis=1) > 1e-3 * edges[-1]
        yield model, clusters, grid, inside, away


def test_support_clusters_match_grid_oracle():
    for model, clusters, grid, inside, away in grid_oracle_models():
        positive = continuous_density(model, grid) > 1e-6
        assert np.array_equal(positive[away], inside[away]), (model, clusters)
        for (lo, hi), mass in zip(clusters.intervals, clusters.masses):
            # x = s^2 with cosine-spaced s: the grid crowds into the square-root
            # edges, and the 1/sqrt(x) density at a c = 1 edge at 0 stays finite
            s = np.sqrt(lo) + (np.sqrt(hi) - np.sqrt(lo)) * (1 - np.cos(np.linspace(0.0, np.pi, 801))) / 2
            integral = np.trapezoid(continuous_density(model, s**2) * 2 * s, s)
            assert abs(integral - mass) < 2e-3, (model, lo, hi)


# --- support monotonicity / edge identities -------------------------------------


def test_mp_support_width_increases_with_c():
    cs = np.linspace(0.01, 4.0, 40)
    widths = [mp_support(c)[1] - mp_support(c)[0] for c in cs]
    assert np.all(np.diff(widths) > 0)
    for c, w in zip(cs, widths):
        assert np.isclose(w, 4 * np.sqrt(c), atol=1e-12)


def test_mp_edge_exact_identity():
    # b(c) - 1 - 2 sqrt(c) = c exactly: the sqrt(c)-order spread statement
    for c in (0.01, 0.1, 0.5, 1.0, 2.0):
        _, b, _ = mp_support(c)
        assert np.isclose(b - 1 - 2 * np.sqrt(c), c, atol=1e-12)


# --- capacity integral identity --------------------------------------------------


def test_capacity_zero_channel():
    direct, integral = capacity_identity(np.zeros((4, 3)), 1.0)
    assert direct == 0.0 and integral == 0.0


def test_capacity_identity_scalar_case():
    direct, integral = capacity_identity(np.eye(5), 1.0)
    assert np.isclose(direct, np.log(2.0), atol=1e-12)
    assert abs(direct - integral) < 1e-6


def test_capacity_identity_random_channel():
    h = complex_gaussian(6, 4, RngStream(31))
    for s2 in (0.5, 1.0, 2.0):
        direct, integral = capacity_identity(h, s2)
        assert abs(direct - integral) < 1e-6


def test_capacity_rejects_bad_noise():
    with pytest.raises(ParameterError):
        capacity_identity(np.eye(2), 0.0)


# --- model validation -------------------------------------------------------------


def test_spectral_model_validation():
    with pytest.raises(ParameterError):
        SpectralModel(((0.0, 1.0),), 0.5)  # zero atom disallowed
    with pytest.raises(ParameterError):
        SpectralModel(((2.0, 0.5), (1.0, 0.5)), 0.5)  # not increasing
    with pytest.raises(ParameterError):
        SpectralModel(((1.0, 0.7), (2.0, 0.7)), 0.5)  # weights exceed 1
    with pytest.raises(ParameterError):
        SpectralModel(SINGLE_ATOM, -0.1)


def test_spectral_model_refuses_non_finite():
    for atoms, ratio in (
        (((1.0, np.nan),), 0.1),
        (((np.nan, 1.0),), 0.1),
        (((1.0, 0.5), (np.inf, 0.5)), 0.1),
        (SINGLE_ATOM, np.inf),
        (SINGLE_ATOM, np.nan),
    ):
        with pytest.raises(ParameterError):
            SpectralModel(atoms, ratio)
