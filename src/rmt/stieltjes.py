"""Stieltjes-transform machinery for limiting spectra of sample covariance
matrices.

A discrete population spectrum (atoms t_k with weights w_k) together with the
dimension ratio c = lim N/n determines the limiting eigenvalue distribution
of the sample covariance matrix through the companion transform m_under(z),
the solution of

    z = -1 / m_under + c * sum_k w_k * t_k / (1 + t_k * m_under)

on the upper half-plane.  Multiplying by m * prod_k (1 + t_k m) turns this
into a polynomial of degree K+1 in m whose coefficients are affine in z; for
Im z > 0 the transform is its unique root with Im m > 0 (Silverstein & Bai,
J. Multivariate Anal. 54, 1995), so it is found exactly as a companion-matrix
eigenvalue rather than by iteration.  The transform of the N x N spectrum
follows from the companion by m_F(z) = (m_under(z) - (c-1)/z) / c.

The density needs no smoothing: at real x > 0 the polynomial has real
coefficients, x lies in the support exactly when it has a non-real root
(Silverstein & Choi, J. Multivariate Anal. 54, 1995), and f(x) = (1/pi) Im m_F(x)
is read from the upper root of that conjugate pair; outside the support every
root is real and f(x) = 0.  The support itself needs no grid: the cluster
edges are the right-hand side, read as a real function x(m), at its real
critical points, the real eigenvalues of one 2K x 2K matrix that linearizes
the critical-point equation.  They are found once per model, and the density
solves only the grid points inside them; every other point reads 0 without a
solve.

For the white (single-atom) population the polynomial is the quadratic
c*z*m^2 + (z+c-1)*m + 1 = 0 whose Im>0 root is the closed-form
Marchenko-Pastur transform; it serves as the oracle for the generic solver.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SingularityError

__all__ = [
    "SpectralModel",
    "StieltjesSolution",
    "Density",
    "SupportClusters",
    "empirical_stieltjes",
    "mp_support",
    "mp_density",
    "mp_stieltjes",
    "mp_stieltjes_edge",
    "solve_companion_stieltjes",
    "density_from_stieltjes",
    "support_clusters",
    "capacity_identity",
]


@dataclass(frozen=True)
class SpectralModel:
    """Discrete population spectrum: atoms (value, weight) plus ratio c = lim N/n.

    Atom values must be finite, strictly positive and increasing; weights
    finite, positive and summing to one; the ratio finite and positive.  Atoms
    at zero are disallowed — any zero mass in the limiting spectrum is the c>1
    rank deficiency, reported separately.
    """

    atoms: tuple
    ratio: float

    def __post_init__(self):
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ParameterError("spectral model needs at least one atom")
        if not all(math.isfinite(x) for atom in atoms for x in atom):
            raise ParameterError("atom values and weights must be finite")
        values = [t for t, _ in atoms]
        weights = [w for _, w in atoms]
        if any(t <= 0 for t in values):
            raise ParameterError("atom values must be strictly positive")
        if any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
            raise ParameterError("atom values must be strictly increasing")
        if any(w <= 0 for w in weights):
            raise ParameterError("atom weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ParameterError("atom weights must sum to 1 within 1e-12")
        if not (self.ratio > 0 and math.isfinite(self.ratio)):
            raise ParameterError("ratio c must be positive and finite")

    @classmethod
    def from_multiplicities(cls, values, multiplicities, ratio: float) -> "SpectralModel":
        total = sum(multiplicities)
        return cls(tuple((v, m / total) for v, m in zip(values, multiplicities)), ratio)

    def values(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    @functools.cached_property
    def _support(self):
        """The support's edges and masses, found once per model: see :func:`_support_edges`."""
        return _support_edges(self)


@dataclass(frozen=True)
class StieltjesSolution:
    """Companion transform at one evaluation point z.

    ``residual`` is |companion map(m_under) - m_under|, the fixed-point form of
    the equation evaluated at the root.
    """

    z: complex
    m_under: complex
    m: complex
    residual: float


@dataclass(frozen=True)
class Density:
    """Reconstructed limiting density on a grid, plus any Dirac mass at zero.

    ``values`` is the continuous part only; the (1 - 1/c)^+ mass at zero is
    ``mass_at_zero``.  ``skipped`` lists grid points left unsolved; the exact
    solver leaves none (points at x <= 0 or off the support read 0 and count
    as solved).
    """

    grid: np.ndarray
    values: np.ndarray
    mass_at_zero: float
    skipped: tuple = field(default=())

    def total_mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid)) + self.mass_at_zero


@dataclass(frozen=True)
class SupportClusters:
    """Disjoint intervals where the limiting density is positive, with masses."""

    intervals: tuple
    masses: tuple


def empirical_stieltjes(eigs, z: complex) -> complex:
    """(1/N) sum_k 1/(lambda_k - z), the normalized resolvent trace."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ParameterError("eigs must be a nonempty 1-d real vector")
    z = complex(z)
    d = eigs - z
    if np.min(np.abs(d)) == 0.0:
        raise SingularityError(f"z={z} coincides with an eigenvalue")
    return complex(np.mean(1.0 / d))


def mp_support(c: float):
    """Marchenko-Pastur support edges and mass at zero: (a, b, (1-1/c)^+)."""
    if not (0 < c < math.inf):
        raise ParameterError("ratio c must be positive and finite")
    sq = math.sqrt(c)
    return (1 - sq) ** 2, (1 + sq) ** 2, max(0.0, 1 - 1 / c)


def mp_density(c: float, x):
    """Continuous part of the Marchenko-Pastur density at x >= 0.

    The (1-1/c)^+ Dirac mass at zero is *not* included; see mp_support.
    """
    a, b, _ = mp_support(c)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ParameterError("x must be nonnegative")
    out = np.zeros_like(x_arr)
    inside = (x_arr > a) & (x_arr < b)
    xi = x_arr[inside]
    out[inside] = np.sqrt((xi - a) * (b - xi)) / (2 * np.pi * c * xi)
    return out if out.ndim else float(out)


def mp_stieltjes(c: float, z: complex) -> complex:
    """Closed-form MP transform: Im>0 root of c*z*m^2 + (z+c-1)*m + 1 = 0."""
    if not (0 < c < math.inf):
        raise ParameterError("ratio c must be positive and finite")
    z = complex(z)
    if z.imag <= 0:
        raise ParameterError("z must lie in the open upper half-plane")
    bq = z + c - 1
    disc = cmath.sqrt(bq * bq - 4 * c * z)
    r1 = (-bq + disc) / (2 * c * z)
    r2 = (-bq - disc) / (2 * c * z)
    return r1 if r1.imag > 0 else r2


def mp_stieltjes_edge(c: float, x: float) -> float:
    """Real boundary value of the MP transform for x strictly right of the bulk."""
    a, b, _ = mp_support(c)
    if not (x > b):
        raise ParameterError(f"x must exceed the right edge b={b:.6g}")
    bq = x + c - 1
    # bq^2 - 4cx factors as (x-a)(x-b), positive right of the bulk
    return (-bq + math.sqrt((x - a) * (x - b))) / (2 * c * x)


def _companion_map(model: SpectralModel, z: complex, m: complex) -> complex:
    t = model.values()
    w = model.weights()
    integral = np.sum(w * t / (1.0 + t * m))
    return -1.0 / (z - model.ratio * integral)


def _companion_polynomial(model: SpectralModel):
    """Coefficients (a, b), highest degree first, of the degree-(K+1) polynomial
    a(m) + z*b(m) = 0 equivalent to the companion equation at z.

    With P(m) = prod_k (1 + t_k m) and Q(m) = sum_k w_k t_k P(m)/(1 + t_k m),
    the equation times m*P reads (P - c*m*Q) + z*m*P = 0.  Its leading
    coefficient z*prod_k t_k and its constant 1 are nonzero, so the degree is
    exactly K+1 and m = 0 is never a root.
    """
    t = model.values()
    w = model.weights()
    p = np.ones(1)
    mq = np.zeros(1)
    for tk, wk in zip(t, w):
        # P and m*Q over the atoms seen so far; np.append(p, 0.0) is m*P
        mq = np.convolve(mq, [tk, 1.0]) + wk * tk * np.append(p, 0.0)
        p = np.convolve(p, [tk, 1.0])
    a = np.append(0.0, p - model.ratio * mq)
    b = np.append(p, 0.0)
    return a, b


def _companion_roots(model: SpectralModel, z: np.ndarray) -> np.ndarray:
    """m_under at every point of z by one batched eigensolve.

    One companion matrix per point, of z's dtype: complex for Im z > 0, where
    the transform is the only eigenvalue in the upper half-plane, and real for
    real z > 0, where ``eigvals`` runs the real solver and the boundary value
    m_under(x + i0) is the upper root of the conjugate pair (every root real
    outside the support).  Either way it is taken as the root with the largest
    imaginary part.
    """
    a, b = _companion_polynomial(model)
    coeffs = a + z[:, None] * b
    degree = b.size - 1
    companion = np.zeros((z.size, degree, degree), dtype=coeffs.dtype)
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    return roots[np.arange(z.size), np.argmax(roots.imag, axis=1)]


def solve_companion_stieltjes(model: SpectralModel, z: complex) -> StieltjesSolution:
    """Companion transform at z (Im z > 0) as the Im>0 root of the companion
    polynomial; the one-point case of :func:`density_from_stieltjes`.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ParameterError("z must lie in the open upper half-plane")
    c = model.ratio
    m = complex(_companion_roots(model, np.array([z]))[0])
    residual = abs(_companion_map(model, z, m) - m)
    m_f = (m - (c - 1) / z) / c
    return StieltjesSolution(z=z, m_under=m, m=m_f, residual=residual)


def density_from_stieltjes(model: SpectralModel, grid, eps: float = 0.0) -> Density:
    """Reconstruct the limiting density on a real grid as f = Im m_F(x + i*eps)/pi.

    At the default ``eps = 0`` the density is exact: each x > 0 inside an
    edge pair of the model's support (:func:`support_clusters`, found once
    per model) is solved on the real axis with real coefficients, and every
    other point reads 0, as the solve gives wherever every root is real;
    points at x <= 0, where the leading coefficient vanishes, read 0 as in
    :func:`mp_density`.  Where double precision cannot resolve the edges
    around some atom, every x > 0 is solved.  An ``eps > 0`` evaluates the
    smoothed transform at z = x + i*eps on the whole grid instead and takes
    out the smoothed Dirac mass at zero.  All solved points form one batch
    of companion-polynomial roots, one eigensolve each, so
    ``Density.skipped`` is empty.
    """
    if not (0 <= eps < math.inf):
        raise ParameterError("eps must be nonnegative and finite")
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be a nonempty ascending finite 1-d vector")
    c = model.ratio
    solved = slice(None) if eps else grid > 0
    if not eps and model._support[1] is not None:
        lo, hi = model._support[0].T
        solved &= np.any((grid[:, None] >= lo) & (grid[:, None] <= hi), axis=1)
    x = grid[solved]
    z = x + 1j * eps if eps else x
    m_f = (_companion_roots(model, z) - (c - 1) / z) / c
    mass0 = max(0.0, 1 - 1 / c)
    values = np.zeros_like(grid)
    # at c > 1 the eps-smoothed Dirac mass at zero is taken out: it is mass_at_zero
    values[solved] = m_f.imag / np.pi - mass0 * eps / (np.pi * (x**2 + eps**2))
    return Density(grid, np.maximum(values, 0.0), mass0)


def _support_edges(model: SpectralModel):
    """The support's clusters as ascending (lo, hi) rows of an array, and their
    masses, or None for the masses where some atom's pole lies in no cluster
    or in two: this never refuses.

    The edges are x(m) = -a(m)/b(m) (see :func:`_companion_polynomial`) at its
    real critical points (Silverstein & Choi, J. Multivariate Anal. 54, 1995),
    solved in u = 1/m so that the one running off to m = infinity as c -> 1
    stays finite; at c = 1 it gives the lowest edge x = 0.  They are the roots
    of c sum_k w_k t_k^2 / (t_k + u)^2 = 1, that is of det((T + u I)^2 - b b^T)
    with T = diag(t) and b = sqrt(c w) t, and so the eigenvalues of the 2K x 2K
    linearization [[-T, I], [b b^T, -T]]: one real eigensolve, no polynomial
    coefficient expanded, and the real ones are those whose imaginary part the
    real Schur form leaves exactly 0.
    A cluster holds the weights of the poles u = -t_k between its edges, less
    the (1 - 1/c)^+ mass at zero if it spans u = 0 (m = +-infinity).  Every
    pole lies inside exactly one cluster, since x'(m) -> -infinity there;
    where c w_k is so small that double precision merges the two edges around
    a pole, that pole falls outside every cluster and the masses are None.
    """
    t, w, c = model.values(), model.weights(), model.ratio
    b = np.sqrt(c * w) * t
    u = np.linalg.eigvals(np.block([[-np.diag(t), np.eye(t.size)], [np.outer(b, b), -np.diag(t)]]))
    u = u[u.imag == 0].real
    # a root on a pole is two edges merged in rounding, and leaves that pole outside every cluster
    u = u[np.all(t + u[:, None] != 0, axis=1)]
    x = u * (c * np.sum(w * t / (t + u[:, None]), axis=1) - 1)  # x(m) at m = 1/u
    order = np.argsort(x)
    order = order[x[order] > 0]
    x, u = x[order], u[order]
    if x.size % 2:  # c = 1: the lowest edge is x = 0, at u = 0
        x, u = np.append(0.0, x), np.append(0.0, u)
    lo, hi = u[0::2, None], u[1::2, None]
    poles_inside = (-t - lo) * (-t - hi) < 0
    if not np.all(poles_inside.sum(axis=0) == 1):
        return x.reshape(-1, 2), None
    spans_zero = (lo * hi < 0)[:, 0]
    return x.reshape(-1, 2), poles_inside @ w - spans_zero * max(0.0, 1 - 1 / c)


def support_clusters(model: SpectralModel) -> SupportClusters:
    """Exact support intervals of the limiting density, with their masses
    (:func:`_support_edges`, found once per model).

    Where c w_k is so small that double precision merges the two edges around
    a pole, :class:`ParameterError` is raised rather than a cluster dropped.
    """
    edges, masses = model._support
    if masses is None:
        raise ParameterError(f"the support at c = {model.ratio:g} is too narrow around some atom for double "
                             "precision to resolve its edges")
    return SupportClusters(tuple(map(tuple, edges.tolist())), tuple(masses.tolist()))


def capacity_identity(h, noise_var: float):
    """Evaluate (1/N) log det(I + H H^H / s2) two ways and return both.

    The direct route uses the eigenvalues of H H^H; the second integrates the
    resolvent-trace identity from s2 upward with an analytic truncation whose
    tail is bounded by tr(H H^H)/(N t) < 1e-8.
    """
    from scipy.integrate import quad  # deferred: only this oracle needs scipy

    if not (noise_var > 0):
        raise ParameterError("noise variance must be positive")
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ParameterError("H must be a 2-d matrix")
    n_dim = h.shape[0]
    nu = np.clip(np.linalg.eigvalsh(h @ h.conj().T), 0.0, None)
    direct = float(np.mean(np.log1p(nu / noise_var)))

    trace = float(np.sum(nu))
    if trace == 0.0:
        return direct, 0.0
    upper = max(2 * noise_var, trace * 1e8 / n_dim)

    def integrand(t):
        return float(np.mean(nu / (t * (nu + t))))

    total = 0.0
    lo = noise_var
    while lo < upper:
        hi = min(lo * 100.0, upper)
        part, _ = quad(integrand, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=200)
        total += part
        lo = hi
    return direct, total
