"""Direction-of-arrival estimation: classical MUSIC and its (N, n)-consistent
G-MUSIC correction.

The array is a uniform linear array with element spacing given in
half-wavelengths; the unit-norm steering vector at electrical angle theta is

    s(theta)_m = exp(i pi d (m-1) sin theta) / sqrt(N).

MUSIC scans the projection of s(theta) onto the sample noise subspace;
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
from .linalg import hermitian_eig, sample_covariance

__all__ = [
    "SteeringModel",
    "DoaResult",
    "steering_vector",
    "steering_matrix",
    "music_cost",
    "gmusic_weights",
    "weighted_cost",
    "estimate_doa",
]


@dataclass(frozen=True)
class SteeringModel:
    """Uniform linear array: sensor count and spacing in half-wavelengths."""

    n_sensors: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.n_sensors < 2:
            raise ParameterError("need at least 2 sensors")
        if not (self.spacing > 0):
            raise ParameterError("spacing must be positive")


@dataclass(frozen=True)
class DoaResult:
    angles: tuple
    grid: np.ndarray
    costs: np.ndarray
    method: str
    complete: bool = True


def steering_vector(model: SteeringModel, theta_deg: float) -> np.ndarray:
    """Unit-norm ULA steering vector at angle theta (degrees, broadside 0)."""
    phase = math.pi * model.spacing * math.sin(math.radians(theta_deg))
    m = np.arange(model.n_sensors)
    return np.exp(1j * phase * m) / math.sqrt(model.n_sensors)


def steering_matrix(model: SteeringModel, thetas_deg) -> np.ndarray:
    """Column-stacked steering vectors over a vector of angles."""
    thetas = np.atleast_1d(np.asarray(thetas_deg, dtype=float))
    phases = math.pi * model.spacing * np.sin(np.radians(thetas))
    m = np.arange(model.n_sensors)[:, None]
    return np.exp(1j * m * phases[None, :]) / math.sqrt(model.n_sensors)


def music_cost(noise_space: np.ndarray, s: np.ndarray) -> float:
    """Squared projection of s onto the noise subspace, in [0, 1]."""
    noise_space = np.asarray(noise_space, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if noise_space.ndim != 2 or s.ndim != 1 or noise_space.shape[0] != s.size:
        raise DimensionError("noise space must be N x (N-K) and s of length N")
    proj = noise_space.conj().T @ s
    return float(np.real(np.vdot(proj, proj)))


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


def weighted_cost(eigvecs: np.ndarray, weights, svecs: np.ndarray) -> np.ndarray:
    """Quadratic form s^H (sum_i w_i u_i u_i^H) s for each steering column."""
    proj = eigvecs.conj().T @ svecs
    return np.asarray(weights) @ (np.abs(proj) ** 2)


def _local_minima(costs: np.ndarray) -> np.ndarray:
    c = costs
    idx = np.flatnonzero((c[1:-1] < c[:-2]) & (c[1:-1] <= c[2:])) + 1
    return idx


def _parabolic_refine(grid: np.ndarray, costs: np.ndarray, i: int) -> float:
    x0, x1, x2 = grid[i - 1], grid[i], grid[i + 1]
    y0, y1, y2 = costs[i - 1], costs[i], costs[i + 1]
    denom = (y0 - 2 * y1 + y2)
    if denom <= 0:
        return float(x1)
    shift = 0.5 * (y0 - y2) / denom
    step = x1 - x0
    return float(x1 + np.clip(shift, -1, 1) * step)


def estimate_doa(y, k: int, model: SteeringModel, grid, method: str = "gmusic") -> DoaResult:
    """Grid-search the chosen cost and return the K deepest refined minima.

    The grid must resolve at most 0.1 degrees.  If fewer than K local minima
    exist the result carries all of them with ``complete=False``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or np.any(np.diff(grid) <= 0):
        raise ParameterError("angle grid must be ascending with >= 3 points")
    if np.max(np.diff(grid)) > 0.1 + 1e-12:
        raise ParameterError("grid resolution must be <= 0.1 degrees")
    if method not in ("music", "gmusic"):
        raise ParameterError(f"unknown method {method!r}")
    y = np.asarray(y, dtype=complex)
    if not (0 <= k < model.n_sensors):
        raise ParameterError("need 0 <= K < N")
    if y.shape[0] != model.n_sensors:
        raise DimensionError("observation rows must match the sensor count")
    svecs = steering_matrix(model, grid)
    eig = hermitian_eig(sample_covariance(y))
    if method == "music":
        weights = np.zeros(model.n_sensors)
        weights[: model.n_sensors - k] = 1.0
    else:
        weights = gmusic_weights(eig.eigenvalues, y.shape[1], k)
    costs = weighted_cost(eig.eigenvectors, weights, svecs)
    if k == 0:
        return DoaResult((), grid, costs, method, True)
    minima = _local_minima(costs)
    order = minima[np.argsort(costs[minima], kind="stable")]
    chosen = order[:k]
    angles = tuple(sorted(_parabolic_refine(grid, costs, i) for i in chosen))
    return DoaResult(angles, grid, costs, method, complete=len(angles) == k)
