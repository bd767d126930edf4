"""Cluster-based estimation of population eigenvalues from sample spectra.

Given the ascending sample eigenvalues lambda_1 <= ... <= lambda_N of
(1/n) Y Y^H and disjoint index ranges mapping eigenvalue clusters to the K
distinct population values, three estimators are provided:

* the classical cluster mean, consistent only for n >> N;
* the (N, n)-consistent estimator
      P_hat_k = (n / N_k) * sum_{m in cluster_k} (lambda_m - mu_m)
  where mu are the ascending eigenvalues of diag(lambda) - (1/n) s s^T with
  s = sqrt(lambda) entrywise;
* the i.i.d.-channel power estimator
      P_hat_k = N n / (M_k (n - N)) * sum_{i in cluster_k} (mu_i - eta_i)
  with eta the same construction at denominator N; the sign convention is
  pinned by the noiseless rank-one limit, where P_hat must reduce to +P.

Cluster separability is assumed, not verified, by the estimators; an advisory
check through the limiting-density support is available separately and its
outcome is attached to estimates as warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .stieltjes import SpectralModel, support_clusters

__all__ = [
    "ClusterAssignment",
    "PowerEstimate",
    "CltReport",
    "classical_estimate",
    "mu_eigenvalues",
    "g_estimate",
    "power_estimate_iid_channel",
    "clusters_from_gaps",
    "clt_check",
    "separation_warnings",
]

EIG_CLAMP = -1e-12


@dataclass(frozen=True)
class ClusterAssignment:
    """Disjoint ascending index ranges mapping sample eigenvalues to clusters.

    ``ranges`` holds 0-based half-open (start, stop) pairs into the ascending
    eigenvalue vector; sizes must equal ``multiplicities``.  ``gap_aligned``
    records whether the ranges came from consistent spectral gaps (True) or a
    fixed-size fallback.
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

    @property
    def k(self) -> int:
        return len(self.ranges)

    def indices(self, cluster: int) -> np.ndarray:
        a, b = self.ranges[cluster]
        return np.arange(a, b)

    @classmethod
    def top_ranges(cls, n_dim: int, multiplicities, gap_aligned: bool = True) -> "ClusterAssignment":
        """Pack the clusters against the top of the spectrum, ascending order."""
        mult = tuple(int(m) for m in multiplicities)
        total = sum(mult)
        if total > n_dim:
            raise ParameterError("multiplicities exceed the number of eigenvalues")
        start = n_dim - total
        ranges = []
        for m in mult:
            ranges.append((start, start + m))
            start += m
        return cls(mult, tuple(ranges), gap_aligned)


@dataclass(frozen=True)
class PowerEstimate:
    values: tuple
    method: str
    n_dim: int
    n_samples: int | None = None
    warnings: tuple = field(default=())

    @property
    def ratio(self) -> float | None:
        return None if self.n_samples is None else self.n_dim / self.n_samples


def _check_eigs(eigs) -> np.ndarray:
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ParameterError("eigenvalues must form a nonempty 1-d vector")
    if np.any(np.diff(eigs) < 0):
        raise ParameterError("eigenvalues must be ascending")
    return eigs


def _check_clusters(eigs: np.ndarray, clusters: ClusterAssignment) -> None:
    if clusters.ranges[-1][1] > eigs.size:
        raise ParameterError("cluster indices out of range for the eigenvalue vector")


def classical_estimate(eigs, clusters: ClusterAssignment) -> PowerEstimate:
    """Cluster means: the n-consistent estimator, biased when N ~ n."""
    eigs = _check_eigs(eigs)
    _check_clusters(eigs, clusters)
    vals = tuple(float(np.mean(eigs[clusters.indices(k)])) for k in range(clusters.k))
    return PowerEstimate(vals, "classical", eigs.size)


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
    lam = np.clip(eigs, 0.0, None)
    s = np.sqrt(lam)
    m = np.diag(lam) - np.outer(s, s) / denom
    return np.linalg.eigvalsh(m)


def g_estimate(eigs, n_samples: int, clusters: ClusterAssignment) -> PowerEstimate:
    """(N, n)-consistent estimator P_hat_k = (n/N_k) sum_cluster (lambda - mu)."""
    eigs = _check_eigs(eigs)
    _check_clusters(eigs, clusters)
    if n_samples < 1:
        raise ParameterError("n must be >= 1")
    mu = mu_eigenvalues(eigs, n_samples)
    diff = eigs - mu
    vals = tuple(
        float(n_samples / clusters.multiplicities[k] * np.sum(diff[clusters.indices(k)]))
        for k in range(clusters.k)
    )
    return PowerEstimate(vals, "g-estimator", eigs.size, n_samples)


def power_estimate_iid_channel(eigs, n_dim: int, n_samples: int, clusters: ClusterAssignment) -> PowerEstimate:
    """(N, n)-consistent source-power estimator for i.i.d. random channels.

    Uses both rank-one downdates (denominators N and n); refuses n <= N where
    the prefactor changes sign and the regime is not covered.
    """
    eigs = _check_eigs(eigs)
    _check_clusters(eigs, clusters)
    if eigs.size != n_dim:
        raise ParameterError("eigenvalue count must equal N")
    if n_samples <= n_dim:
        raise ParameterError("i.i.d.-channel estimator requires n > N")
    eta = mu_eigenvalues(eigs, n_dim)
    mu = mu_eigenvalues(eigs, n_samples)
    diff = mu - eta
    front = n_dim * n_samples / (n_samples - n_dim)
    vals = tuple(
        float(front / clusters.multiplicities[k] * np.sum(diff[clusters.indices(k)]))
        for k in range(clusters.k)
    )
    return PowerEstimate(vals, "iid-channel", n_dim, n_samples)


def clusters_from_gaps(eigs, k: int, multiplicities) -> ClusterAssignment:
    """Assign the top sum(multiplicities) eigenvalues to K clusters by gaps.

    The clusters are always the fixed-size partition from the top,
    :meth:`ClusterAssignment.top_ranges`.  The K-1 largest consecutive gaps
    inside that window (ties break to the lowest split index) only set
    ``gap_aligned``: True when the cluster sizes they imply equal the
    multiplicities.
    """
    eigs = _check_eigs(eigs)
    mult = tuple(int(m) for m in multiplicities)
    if k < 1 or k > eigs.size:
        raise ParameterError("need 1 <= K <= N")
    if len(mult) != k:
        raise ParameterError("need one multiplicity per cluster")
    total = sum(mult)
    if total > eigs.size:
        raise ParameterError("multiplicities exceed the number of eigenvalues")
    offset = eigs.size - total
    window = eigs[offset:]
    if k == 1:
        return ClusterAssignment.top_ranges(eigs.size, mult, gap_aligned=True)
    gaps = np.diff(window)
    # lowest index wins ties: stable sort on (-gap, position)
    order = np.lexsort((np.arange(gaps.size), -gaps))
    splits = np.sort(order[: k - 1]) + 1  # positions within the window
    sizes = np.diff(np.concatenate(([0], splits, [window.size])))
    aligned = tuple(int(s) for s in sizes) == mult
    return ClusterAssignment.top_ranges(eigs.size, mult, gap_aligned=aligned)


@dataclass(frozen=True)
class CltReport:
    """Empirical normality summary of N * (P_hat_k - P_k) over trials."""

    trials: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_distance: float


def clt_check(estimate_fn, k: int, trials: int, truth: float, n_dim: int) -> CltReport:
    """Empirical distribution of N (P_hat_k - P_k) against its best-fit normal.

    ``estimate_fn(trial)`` must return the estimate vector for one seeded
    trial.  Fewer than 100 trials is refused as underpowered.
    """
    from scipy import stats as sstats  # deferred: its import costs ~0.5 s and only this check uses it

    if trials < 100:
        raise ParameterError("clt_check needs at least 100 trials")
    sample = np.empty(trials)
    for t in range(trials):
        values = estimate_fn(t)
        sample[t] = n_dim * (float(values[k]) - truth)
    mean = float(np.mean(sample))
    sd = float(np.std(sample, ddof=1))
    ks = sstats.kstest(sample, "norm", args=(mean, sd)).statistic
    return CltReport(
        trials=trials,
        mean=mean,
        variance=sd**2,
        skewness=float(sstats.skew(sample)),
        excess_kurtosis=float(sstats.kurtosis(sample)),
        ks_distance=float(ks),
    )


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
