"""Cluster-based estimation of population eigenvalues from sample spectra.

Given the ascending sample eigenvalues lambda_1 <= ... <= lambda_N of
(1/n) Y Y^H and disjoint index ranges mapping eigenvalue clusters to the K
distinct population values, three estimators are provided:

* the classical cluster mean, consistent only for n >> N;
* the (N, n)-consistent estimator
      P_hat_k = (n / N_k) * sum_{m in cluster_k} (lambda_m - mu_m)
  where mu are the ascending eigenvalues of diag(lambda) - (1/n) s s^T with
  s = sqrt(lambda) entrywise, that is the roots of the secular equation
  (1/n) sum_k lambda_k / (lambda_k - mu) = 1 (Mestre, IEEE T-IT 54(11),
  2008), found as such by LAPACK's rank-one-update solver, in O(N^2) a
  spectrum, not by a dense O(N^3) eigensolve;
* the i.i.d.-channel power estimator
      P_hat_k = N n / (M_k (n - N)) * sum_{i in cluster_k} (mu_i - eta_i)
  with eta the same construction at denominator N; the sign convention is
  pinned by the noiseless rank-one limit, where P_hat must reduce to +P.

Cluster separability is assumed, not verified, by the estimators; an advisory
check through the limiting-density support is available separately, as
:func:`separation_warnings`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import ParameterError
from .linalg import _rank_one_eigvals
from .stieltjes import SpectralModel, support_clusters

__all__ = [
    "ClusterAssignment",
    "PowerEstimate",
    "classical_estimate",
    "mu_eigenvalues",
    "g_estimate",
    "power_estimate_iid_channel",
    "clusters_from_gaps",
    "separation_warnings",
]

EIG_CLAMP = -1e-12


@dataclass(frozen=True)
class ClusterAssignment:
    """Disjoint ascending index ranges mapping sample eigenvalues to clusters.

    ``ranges`` holds 0-based half-open (start, stop) pairs into the ascending
    eigenvalue vector; sizes must equal ``multiplicities``.  ``gap_aligned``
    is only a flag: :func:`clusters_from_gaps` always returns
    :meth:`top_ranges` and sets it True when the largest spectral gaps in
    that window split it into the multiplicities; the ranges never depend on
    it.
    """

    multiplicities: tuple
    ranges: tuple
    gap_aligned: bool = True

    def __post_init__(self):
        mult = tuple(int(m) for m in self.multiplicities)
        ranges = tuple((int(a), int(b)) for a, b in self.ranges)
        object.__setattr__(self, "multiplicities", mult)
        object.__setattr__(self, "ranges", ranges)
        if len(mult) != len(ranges) or not mult:
            raise ParameterError("need one index range per cluster")
        prev = 0
        for m, (a, b) in zip(mult, ranges):
            if m < 1 or b - a != m:
                raise ParameterError("range sizes must match multiplicities")
            if a < prev:
                raise ParameterError("ranges must be disjoint and ascending")
            prev = b

    @classmethod
    def top_ranges(cls, n_dim: int, multiplicities) -> "ClusterAssignment":
        """Pack the clusters against the top of ``n_dim`` eigenvalues, ascending order."""
        mult = tuple(int(m) for m in multiplicities)
        total = sum(mult)
        if total > n_dim:
            raise ParameterError("multiplicities exceed the number of eigenvalues")
        edges = tuple(accumulate(mult, initial=n_dim - total))
        return cls(mult, tuple(zip(edges, edges[1:])))


@dataclass(frozen=True)
class PowerEstimate:
    values: tuple
    method: str


def _check_eigs(eigs, clamped: bool = False) -> np.ndarray:
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ParameterError("eigenvalues must form a nonempty 1-d vector")
    if np.any(np.diff(eigs) < 0):
        raise ParameterError("eigenvalues must be ascending")
    if clamped and np.any(eigs < EIG_CLAMP):
        raise ParameterError("negative eigenvalue below the -1e-12 clamp window")
    return eigs


def _check_clusters(eigs: np.ndarray, clusters: ClusterAssignment) -> None:
    if clusters.ranges[-1][1] > eigs.size:
        raise ParameterError("cluster indices out of range for the eigenvalue vector")


def _mu_rows(eigs: np.ndarray, denom: int) -> np.ndarray:
    """:func:`mu_eigenvalues` of each row of ``eigs``, clipped to zero from below,
    as the roots of the secular equation (1/denom) sum_k lambda_k / (lambda_k - mu) = 1.

    mu(Lambda - rho s s^T) = -eig(-Lambda + rho s s^T): poles -lambda, ascending,
    unit-norm weights sqrt(lambda) / ||sqrt(lambda)|| and rho = sum(lambda) / denom,
    solved in O(N^2) a row (:func:`rmt.linalg._rank_one_eigvals`), whose poles
    must ascend: each row is sorted first, as a no-op on a sample spectrum.
    """
    lam = np.sort(np.clip(eigs, 0.0, None), axis=1)
    total = lam.sum(axis=1)
    norm = np.sqrt(total)
    z = np.sqrt(lam[:, ::-1]) / np.where(norm > 0, norm, 1.0)[:, None]
    return np.negative(_rank_one_eigvals(-lam[:, ::-1], z, total / denom)[:, ::-1])


def _cluster_sums(x: np.ndarray, clusters: ClusterAssignment) -> np.ndarray:
    """(B, K): each row of ``x`` summed over each cluster's index range."""
    return np.stack([x[:, a:b].sum(axis=1) for a, b in clusters.ranges], axis=1)


def _classical_rows(eigs: np.ndarray, clusters: ClusterAssignment) -> np.ndarray:
    return _cluster_sums(eigs, clusters) / np.array(clusters.multiplicities)


def _g_rows(eigs: np.ndarray, n_samples: int, clusters: ClusterAssignment) -> np.ndarray:
    diff = _mu_rows(eigs, n_samples)
    return n_samples / np.array(clusters.multiplicities) * _cluster_sums(np.subtract(eigs, diff, out=diff), clusters)


def _iid_channel_rows(eigs: np.ndarray, n_dim: int, n_samples: int, clusters: ClusterAssignment) -> np.ndarray:
    front = n_dim * n_samples / (n_samples - n_dim) / np.array(clusters.multiplicities)
    diff = _mu_rows(eigs, n_samples)
    return front * _cluster_sums(np.subtract(diff, _mu_rows(eigs, n_dim), out=diff), clusters)


def _gap_aligned_rows(eigs: np.ndarray, multiplicities: tuple) -> np.ndarray:
    """Per row: do the K-1 largest gaps of the top window (ties to the lowest) split it into ``multiplicities``?"""
    window = eigs[:, eigs.shape[1] - sum(multiplicities):]
    order = np.argsort(window[:, :-1] - window[:, 1:], axis=1, kind="stable")  # minus each gap, exactly
    splits = np.sort(order[:, : len(multiplicities) - 1], axis=1) + 1
    sizes = np.diff(splits, axis=1, prepend=0, append=window.shape[1])
    return np.all(sizes == np.array(multiplicities), axis=1)


def classical_estimate(eigs, clusters: ClusterAssignment) -> PowerEstimate:
    """Cluster means: the n-consistent estimator, biased when N ~ n."""
    eigs = _check_eigs(eigs)
    _check_clusters(eigs, clusters)
    return PowerEstimate(tuple(_classical_rows(eigs[None], clusters)[0].tolist()), "classical")


def mu_eigenvalues(eigs, denom: int) -> np.ndarray:
    """Ascending eigenvalues of diag(lambda) - (1/denom) sqrt(lambda) sqrt(lambda)^T.

    Entrywise square roots require nonnegative input; eigensolver noise in
    [-1e-12, 0] is clamped to zero, anything lower is an error.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ParameterError("eigenvalues must form a nonempty 1-d vector")
    if denom < 1:
        raise ParameterError("denominator count must be >= 1")
    if np.any(eigs < EIG_CLAMP):
        raise ParameterError("negative eigenvalue below the -1e-12 clamp window")
    return _mu_rows(eigs[None], denom)[0]


def g_estimate(eigs, n_samples: int, clusters: ClusterAssignment) -> PowerEstimate:
    """(N, n)-consistent estimator P_hat_k = (n/N_k) sum_cluster (lambda - mu)."""
    eigs = _check_eigs(eigs, clamped=True)
    _check_clusters(eigs, clusters)
    if n_samples < 1:
        raise ParameterError("n must be >= 1")
    vals = tuple(_g_rows(eigs[None], n_samples, clusters)[0].tolist())
    return PowerEstimate(vals, "g-estimator")


def power_estimate_iid_channel(eigs, n_samples: int, clusters: ClusterAssignment) -> PowerEstimate:
    """(N, n)-consistent source-power estimator for i.i.d. random channels,
    with N the number of eigenvalues.

    Uses both rank-one downdates (denominators N and n); refuses n <= N where
    the prefactor changes sign and the regime is not covered.
    """
    eigs = _check_eigs(eigs, clamped=True)
    _check_clusters(eigs, clusters)
    if n_samples <= eigs.size:
        raise ParameterError("i.i.d.-channel estimator requires n > N")
    vals = tuple(_iid_channel_rows(eigs[None], eigs.size, n_samples, clusters)[0].tolist())
    return PowerEstimate(vals, "iid-channel")


def clusters_from_gaps(eigs, multiplicities) -> ClusterAssignment:
    """Assign the top sum(multiplicities) eigenvalues to K = len(multiplicities) clusters by gaps.

    The clusters are always the fixed-size partition from the top,
    :meth:`ClusterAssignment.top_ranges`.  The K-1 largest consecutive gaps
    inside that window (ties break to the lowest split index) only set
    ``gap_aligned``: True when the cluster sizes they imply equal the
    multiplicities.
    """
    eigs = _check_eigs(eigs)
    clusters = ClusterAssignment.top_ranges(eigs.size, multiplicities)  # refuses K < 1 and sizes that do not fit
    return replace(clusters, gap_aligned=bool(_gap_aligned_rows(eigs[None], clusters.multiplicities)[0]))


def separation_warnings(p_values, multiplicities, n_dim: int, n_samples: int) -> tuple:
    """Advisory separability check via the limiting support of the estimated model.

    Builds the discrete spectrum from the estimates and counts the exact
    support clusters of its limiting density; fewer clusters than distinct
    values means the estimates live in a merged-cluster regime where the
    estimator contract degrades.
    """
    values = [float(v) for v in p_values]
    if any(v <= 0 for v in values) or sorted(values) != values or len(set(values)) != len(values):
        return ("estimated powers are not positive strictly-increasing; separability not assessable",)
    model = SpectralModel.from_multiplicities(values, multiplicities, n_dim / n_samples)
    found = len(support_clusters(model).intervals)
    if found < len(values):
        return (
            f"limiting density of the estimated model shows {found} clusters for "
            f"{len(values)} distinct values: separability assumption is violated",
        )
    return ()
