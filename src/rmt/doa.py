"""Direction-of-arrival estimation: classical MUSIC and its (N, n)-consistent
G-MUSIC correction.

The array is a uniform linear array with element spacing given in
half-wavelengths; the unit-norm steering vector at electrical angle theta is

    s(theta)_m = exp(i pi d (m-1) sin theta) / sqrt(N).

MUSIC minimizes the projection of s(theta) onto the sample noise subspace;
G-MUSIC replaces the 0/1 subspace indicator with weights phi(i) built from
the sample eigenvalues and their rank-one downdate, which de-biases the
projector when N and n are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DimensionError, ParameterError
from .gestimation import mu_eigenvalues
from .linalg import sample_eigh

__all__ = [
    "SteeringModel",
    "DoaResult",
    "steering_matrix",
    "gmusic_weights",
    "estimate_doa",
]


ANGLE_SLACK_DEG = 1e-6  # past +-90 degrees: the rounding of a `rmt doa` arange grid of up to 10^6 points


@dataclass(frozen=True)
class SteeringModel:
    """Uniform linear array: sensor count and spacing in half-wavelengths."""

    n_sensors: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.n_sensors < 2:
            raise ParameterError("need at least 2 sensors")
        if not (0 < self.spacing <= 1):
            raise ParameterError("spacing must be in (0, 1] half-wavelengths: a wider spacing aliases directions")


@dataclass(frozen=True)
class DoaResult:
    angles: tuple
    grid: np.ndarray
    costs: np.ndarray
    method: str
    complete: bool = True


def steering_matrix(model: SteeringModel, thetas_deg) -> np.ndarray:
    """Column-stacked steering vectors over a vector of angles."""
    thetas = np.atleast_1d(np.asarray(thetas_deg, dtype=float))
    phases = math.pi * model.spacing * np.sin(np.radians(thetas))
    m = np.arange(model.n_sensors)[:, None]
    return np.exp(1j * m * phases[None, :]) / math.sqrt(model.n_sensors)


def gmusic_weights(eigs, n_samples: int, k: int) -> np.ndarray:
    """G-MUSIC eigenvector weights phi(1..N) for K sources.

    Ascending eigenvalue order with the noise block first; near-coincident
    sample eigenvalues (or a lambda/mu collision) make the weights singular
    and raise :class:`DegeneracyError` rather than silently regularizing.
    """
    lam = np.asarray(eigs, dtype=float)
    n_dim = lam.size
    if not (0 <= k < n_dim):
        raise ParameterError("need 0 <= K < N")
    if np.any(np.diff(lam) < 0):
        raise ParameterError("eigenvalues must be ascending")
    if np.any(np.diff(lam) < 1e-13):
        raise DegeneracyError("coincident sample eigenvalues: weights are singular")
    mu = mu_eigenvalues(lam, n_samples)
    split = n_dim - k

    def cross_sum(rows, cols):
        # sum over j in cols of lam_j/(lam_i - lam_j) - mu_j/(lam_i - mu_j), one row per i
        dl = lam[rows, None] - lam[None, cols]
        dm = lam[rows, None] - mu[None, cols]
        if np.any(np.abs(dl) < 1e-13) or np.any(np.abs(dm) < 1e-13):
            raise DegeneracyError("lambda/mu collision: weights are singular")
        return np.sum(lam[cols] / dl - mu[cols] / dm, axis=1)

    noise, signal = slice(0, split), slice(split, n_dim)
    return np.concatenate((1.0 + cross_sum(noise, signal), -cross_sum(signal, noise)))


def estimate_doa(y, k: int, model: SteeringModel, grid, method: str = "gmusic") -> DoaResult:
    """Return the K deepest minima of the chosen cost, sorted, inside the grid's range.

    On a ULA, s^H(theta) Q s(theta) with Q = sum_i w_i u_i u_i^H equals
    (r_0 + 2 Re sum_{k>=1} r_k z^k)/N at z = exp(i pi d sin theta), where r_k is
    the sum of Q's k-th superdiagonal (root-MUSIC, Barabell 1983).  Its
    stationary points are the unit-circle roots of z^(N-1) (g(z) - conj g(1/conj z)),
    g = sum_k k r_k z^k.  A root is a minimum when the slope -Im g(e^{i psi}) is
    negative at the midpoint before it and positive at the one after it (sorted
    root angles, wrapping); off-circle pairs (z, 1/conj z) show no sign change,
    so no |z| - 1 tolerance decides anything.  The grid only bounds the search
    (minima strictly inside it) and samples ``costs``.  If fewer than K minima
    exist the result carries all of them with ``complete=False``.  Grid angles
    beyond [-90, 90] degrees, which would sample the cost at the aliased angle,
    are refused.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ParameterError("angle grid must be ascending with >= 3 points")
    if grid[0] < -90.0 - ANGLE_SLACK_DEG or grid[-1] > 90.0 + ANGLE_SLACK_DEG:
        raise ParameterError("angle grid must lie within [-90, 90] degrees: beyond, it samples the aliased angle")
    if method not in ("music", "gmusic"):
        raise ParameterError(f"unknown method {method!r}")
    y = np.asarray(y, dtype=complex)
    if y.shape[0] != model.n_sensors:
        raise DimensionError("observation rows must match the sensor count")
    return _doa_from_eigh(sample_eigh(y), y.shape[1], k, model, grid, method)


def _doa_from_eigh(eig, n_samples: int, k: int, model: SteeringModel, grid, method: str) -> DoaResult:
    """:func:`estimate_doa` past its boundary checks: one weighting of the eigenpairs
    ``eig`` of the sample covariance of n samples, on a checked ``grid`` and ``method``."""
    n_dim = model.n_sensors
    if not (0 <= k < n_dim):
        raise ParameterError("need 0 <= K < N")
    lam, u = eig
    if method == "music":
        weights = np.zeros(n_dim)
        weights[: n_dim - k] = 1.0
    else:
        weights = gmusic_weights(lam, n_samples, k)
    q = (u * weights) @ u.conj().T
    r = np.array([np.trace(q, j) for j in range(n_dim)])
    psi_max = math.pi * model.spacing  # psi = psi_max * sin(theta)
    cost_coef = np.concatenate([r[:1], 2 * r[1:]])[::-1] / n_dim
    costs = np.polyval(cost_coef, np.exp(1j * psi_max * np.sin(np.radians(grid)))).real
    if k == 0:
        return DoaResult((), grid, costs, method, True)
    g_coef = (np.arange(n_dim) * r)[::-1]
    psi = np.sort(np.angle(np.roots(np.concatenate([g_coef[:-1], [0.0], -g_coef[-2::-1].conj()]))))
    mid = (psi + np.concatenate([psi[-1:] - 2 * math.pi, psi[:-1]])) / 2
    slope = -np.polyval(g_coef, np.exp(1j * mid)).imag
    psi = psi[(slope < 0) & (np.roll(slope, -1) > 0)]
    psi = psi[np.abs(psi) <= psi_max]
    theta = np.degrees(np.arcsin(psi / psi_max))
    inside = (theta > grid[0]) & (theta < grid[-1])
    theta, psi = theta[inside], psi[inside]
    depth = np.polyval(cost_coef, np.exp(1j * psi)).real
    angles = tuple(sorted(float(t) for t in theta[np.argsort(depth, kind="stable")[:k]]))
    return DoaResult(angles, grid, costs, method, complete=len(angles) == k)
