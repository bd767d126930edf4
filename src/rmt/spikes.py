"""Spiked-covariance analysis: outlier limits, Tracy-Widom fluctuations,
GLRT / condition-number detection and failure localization.

A rank-one perturbation I + omega u u^H of the white population covariance
produces, for |omega| > sqrt(c), an outlier sample eigenvalue with limit

    rho(omega) = 1 + omega + c (1 + omega) / omega

and a squared eigenvector projection |u^H u_hat|^2 converging to

    xi(omega) = (1 - c / omega^2) / (1 + c / omega)

while below the threshold the extreme eigenvalue sticks to the bulk edge and
its centered-scaled fluctuation follows the complex Tracy-Widom law.  The
squared-projection reading of xi is adopted throughout (the unsquared variant
is inconsistent with the fluctuation statement built on |.|^2).

One law covers both signs of omega >= -1: a downward spike (omega < 0, e.g. a
variance drop) is read off the smallest eigenvalue and its mirrored
Tracy-Widom fluctuation, which leaves zero only for c < 1.  omega = 0 is no
spike and is never detectable.  The Tracy-Widom table is the bundled one,
which ``tools/gen_tw_table.py`` regenerates in place.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ParameterError, RegimeError, SingularityError
from .linalg import hermitian_eig
from .stieltjes import mp_stieltjes_edge, mp_support

__all__ = [
    "SpikeLimit",
    "TracyWidomTable",
    "FluctuationStats",
    "FailureHypothesis",
    "GlrtDecision",
    "spike_limits",
    "tracy_widom",
    "tw_quantile",
    "tw_standardize",
    "tw_standardize_smallest",
    "glrt_statistic",
    "false_alarm_threshold",
    "glrt_test",
    "condition_number_statistic",
    "spike_outlier_root",
    "fluctuation_stats",
    "inverse_sqrt",
    "failure_hypotheses",
    "localizable_hypotheses",
    "localize_failure",
]

_ALPHA_MAX = 1e150  # failure_hypotheses' (1 + alpha)^2 overflows a double near 1.3e154


@dataclass(frozen=True)
class SpikeLimit:
    """Limiting behaviour of one spike: outlier location and projection."""

    omega: float
    ratio: float
    detectable: bool
    rho: float
    xi: float


@dataclass(frozen=True)
class FluctuationStats:
    """Covariance ``sigma`` of sqrt(N)(|u^H u_hat|^2 - xi, lam - rho) for one spike,
    with the inverse and log-determinant that :func:`localize_failure` scores with.

    A ``sigma`` that is not finite or not positive definite is refused here, once.
    """

    omega: float
    ratio: float
    xi: float
    rho: float
    sigma: np.ndarray
    sigma_inv: np.ndarray = field(init=False, repr=False, compare=False)
    logdet: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.sigma)):
            raise ParameterError(f"the fluctuation covariance of omega = {self.omega:g} overflows a double")
        sign, logdet = np.linalg.slogdet(self.sigma)
        if not (sign > 0 and self.sigma[0, 0] > 0):  # both leading minors positive: 2x2 positive definite
            raise ParameterError("fluctuation covariance is not positive definite")
        object.__setattr__(self, "sigma_inv", np.linalg.inv(self.sigma))
        object.__setattr__(self, "logdet", float(logdet))


@dataclass(frozen=True)
class FailureHypothesis:
    """Rank-one failure model: spike strength and direction for one parameter."""

    index: int
    omega: float
    u: np.ndarray
    alpha: float


@dataclass(frozen=True)
class GlrtDecision:
    signal: bool
    statistic: float
    standardized: float
    threshold: float
    false_alarm_rate: float


def spike_limits(omega: float, c: float) -> SpikeLimit:
    """Limits (rho, xi) of a spike omega >= -1 at ratio c, either sign.

    Detectable iff |omega| > sqrt(c).  Below that the extreme eigenvalue on
    the spike's side sticks to its bulk edge, (1 + sqrt(c))^2 for omega >= 0
    and (1 - sqrt(c))^2 for omega < 0, and xi = 0.  :class:`ParameterError`
    for a non-finite or out-of-range input; :class:`RegimeError` for a
    downward spike at c >= 1, where the bulk reaches zero.
    """
    if not (math.isfinite(omega) and omega >= -1 and math.isfinite(c) and c > 0):
        raise ParameterError(f"need finite omega >= -1 and finite c > 0, got omega = {omega!r}, c = {c!r}")
    if omega < 0 and c >= 1:
        raise RegimeError("downward spikes are only resolvable for c < 1")
    sq = math.sqrt(c)
    if abs(omega) > sq:
        rho = 1 + omega + c * (1 + omega) / omega
        xi = (1 - c / (omega * omega)) / (1 + c / omega)  # omega**2 would raise OverflowError past 1e154
        return SpikeLimit(omega, c, True, rho, xi)
    return SpikeLimit(omega, c, False, (1 + sq) ** 2 if omega >= 0 else (1 - sq) ** 2, 0.0)


# --- Tracy-Widom table ------------------------------------------------------


def _pchip_coefficients(x, y) -> np.ndarray:
    """Per-interval cubic coefficients (t^3, t^2, t, 1) in t = s - x_i, for nondecreasing y.

    PCHIP's slopes, which on nondecreasing data reduce to: inside, the
    weighted harmonic mean of the two neighbouring secants (0 when either is
    0: its reciprocal term is infinite); at each end, the one-sided
    three-point slope clipped at 0.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore"):
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[0] = max(0.0, ((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1]))
    d[-1] = max(0.0, ((2 * h[-1] + h[-2]) * m[-1] - h[-1] * m[-2]) / (h[-1] + h[-2]))
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.column_stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


@dataclass(frozen=True)
class TracyWidomTable:
    """Tabulated complex Tracy-Widom CDF with monotone-cubic interpolation.

    The interpolant is Fritsch & Carlson's monotone piecewise cubic with
    PCHIP's slopes, built once in numpy; on any table accepted here it equals
    ``scipy.interpolate.PchipInterpolator`` bit for bit.
    """

    s: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        if s.ndim != 1 or s.size < 4 or not np.all(np.diff(s) > 0):
            raise ParameterError("table grid must be ascending with >= 4 points")
        if s[0] > -10 or s[-1] < 6:
            raise ParameterError("table must cover at least [-10, 6]")
        if not (np.all(np.diff(cdf) >= 0) and np.all((cdf >= 0) & (cdf <= 1))):
            raise ParameterError("table cdf must be nondecreasing within [0, 1]")
        if not (cdf[0] < 1e-6 and cdf[-1] > 1 - 1e-6):
            raise ParameterError("table cdf must be ~0 at -10 and ~1 at 6")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "_knots", s.tolist())
        object.__setattr__(self, "_levels", cdf.tolist())
        object.__setattr__(self, "_coef", _pchip_coefficients(s, cdf).tolist())


_DEFAULT_TABLE = None


def default_tw_table() -> TracyWidomTable:
    """The bundled table (``data/tw2_cdf.csv``, an ``s,cdf`` CSV after ``#``
    comment lines), parsed on the first call and shared after."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        text = resources.files("rmt").joinpath("data/tw2_cdf.csv").read_text()
        rows = [line.split(",") for line in text.splitlines() if line and not line.startswith(("#", "s,"))]
        _DEFAULT_TABLE = TracyWidomTable(*np.array(rows, dtype=float).T)
    return _DEFAULT_TABLE


def tracy_widom(table: TracyWidomTable, s: float) -> float:
    """CDF value at s, monotone-cubic interpolated; clamped to {0,1} off-table."""
    knots = table._knots
    if s <= knots[0]:
        return 0.0
    if s >= knots[-1]:
        return 1.0
    i = min(bisect_right(knots, s), len(knots) - 1) - 1  # the clamp only catches nan
    t = s - knots[i]
    c3, c2, c1, c0 = table._coef[i]
    # the order scipy's PPoly sums the terms in, so values match it bit for bit
    return float(min(max(c0 + c1 * t + c2 * (t * t) + c3 * (t * t * t), 0.0), 1.0))


def tw_quantile(table: TracyWidomTable, p: float) -> float:
    """Inverse CDF: the root of one interval's cubic.

    The interval is the first whose right-hand CDF value reaches p, so it is
    not flat and its cubic is monotone there.  Of the cubic's three roots the
    one nearest the real segment [0, h] (|Im r| plus distance to [0, h]) is
    taken and clipped into it.  p at or below the first tabulated value maps
    to the first knot, above the last to the last knot.
    """
    if not (0 < p < 1):
        raise ParameterError("p must lie strictly inside (0, 1)")
    knots = table._knots
    k = bisect_left(table._levels, p)
    if k == 0:
        return knots[0]
    if k == len(knots):
        return knots[-1]
    h = knots[k] - knots[k - 1]
    c3, c2, c1, c0 = table._coef[k - 1]
    roots = np.roots([c3, c2, c1, c0 - p])
    off = np.abs(roots.imag) + np.maximum(0.0, np.maximum(-roots.real, roots.real - h))
    return knots[k - 1] + min(max(float(roots[np.argmin(off)].real), 0.0), h)


def tw_standardize(lambda1: float, n_dim: int, c: float) -> float:
    """Center and scale the largest eigenvalue for Tracy-Widom comparison."""
    if n_dim < 1 or not (c > 0):
        raise ParameterError("need N >= 1 and c > 0")
    sq = math.sqrt(c)
    edge = (1 + sq) ** 2
    return n_dim ** (2.0 / 3.0) * (lambda1 - edge) / ((1 + sq) ** (4.0 / 3.0) * sq)


def tw_standardize_smallest(lambda_min: float, n_dim: int, c: float) -> float:
    """Mirrored standardization at the left bulk edge (c < 1 only)."""
    if n_dim < 1 or not (0 < c < 1):
        raise ParameterError("need N >= 1 and 0 < c < 1")
    sq = math.sqrt(c)
    edge = (1 - sq) ** 2
    return n_dim ** (2.0 / 3.0) * (edge - lambda_min) / ((1 - sq) ** (4.0 / 3.0) * sq)


# --- detectors ---------------------------------------------------------------


def glrt_statistic(eigs) -> float:
    """Largest eigenvalue over the average eigenvalue of (1/n) Y Y^H."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        raise ParameterError("empty eigenvalue vector")
    mean = float(np.mean(eigs))
    if mean <= 0:
        raise SingularityError("zero trace: GLRT statistic undefined")
    return float(np.max(eigs)) / mean


def false_alarm_threshold(far: float) -> float:
    """The 1-far quantile of the bundled Tracy-Widom table: the threshold a
    standardized extreme eigenvalue must exceed at false alarm rate ``far``.

    A ``far`` outside (0, 1) is refused, and so is one below the table's upper
    tail at its last knot, which has no quantile in the table.
    """
    if not (0 < far < 1):
        raise ParameterError("false alarm rate must lie in (0, 1)")
    table = default_tw_table()
    if 1 - far > table._levels[-1]:
        tail = 1 - table._levels[-1]
        digits = 10 ** (2 - math.floor(math.log10(tail)))
        raise ParameterError(f"false alarm rate {far:g} is beyond the Tracy-Widom table, whose CDF ends at "
                             f"s = {table._knots[-1]:g}; the smallest usable rate is "
                             f"{math.ceil(tail * digits) / digits:.3g}")
    return tw_quantile(table, 1 - far)


def glrt_test(eigs, n_dim: int, n_samples: int, far: float) -> GlrtDecision:
    """Reject noise iff the standardized GLRT statistic strictly exceeds :func:`false_alarm_threshold`."""
    thr = false_alarm_threshold(far)
    stat = glrt_statistic(eigs)
    std = tw_standardize(stat, n_dim, n_dim / n_samples)
    return GlrtDecision(std > thr, stat, std, thr, far)


def condition_number_statistic(eigs) -> float:
    """Largest over smallest sample eigenvalue; needs a nonsingular spectrum."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        raise ParameterError("empty eigenvalue vector")
    lam_max = float(np.max(eigs))
    lam_min = float(np.min(eigs))
    if lam_min <= 1e-14 * lam_max:
        raise SingularityError("smallest eigenvalue is numerically zero")
    return lam_max / lam_min


def spike_outlier_root(omega: float, c: float) -> float:
    """Locate the outlier as the root of 1 + z (omega/(1+omega)) m(z) right of the bulk.

    Independent cross-check of the closed-form rho: the root condition comes
    from the determinant factorization of the rank-one perturbed model.
    """
    if not (omega > 0) or not (c > 0):
        raise ParameterError("omega and c must be positive")
    if omega <= math.sqrt(c):
        raise RegimeError(f"no outlier root for omega <= sqrt(c) = {math.sqrt(c):.6g}")
    from scipy.optimize import brentq  # deferred: only this oracle needs scipy

    _, b, _ = mp_support(c)

    def f(z):
        return 1.0 + z * (omega / (1.0 + omega)) * mp_stieltjes_edge(c, z)

    lo = b * (1 + 1e-12)
    hi = max(2 * (1 + omega) * (1 + c), b + 1.0)
    while f(hi) <= 0:
        hi *= 2
    return float(brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16))


# --- spike fluctuations and localization ------------------------------------


def fluctuation_stats(omega: float, c: float) -> FluctuationStats:
    """Limiting covariance of sqrt(N)(|u^H u_hat|^2 - xi, lam - rho) for one spike.

    With Q(z) the resolvent of the unspiked sample covariance and x the spike
    direction, the outlier lam solves 1 + (1+omega) x^H Q(lam) x / n = 0 and
    |u^H u_hat|^2 = n / ((1+omega) lam x^H Q(lam)^2 x).  Their sqrt(N)
    fluctuations are those of Gaussian quadratic forms with covariances
    tr Q^(i+j) / n (Couillet & Hachem, IEEE T-IT 59(1), 2013; the eigenvalue
    entry as in Paul, Stat. Sinica 17, 2007), which are derivatives of the
    companion Marchenko-Pastur Stieltjes transform at rho.  Taken through its
    inverse z(m) = -1/m + c/(1+m) at m = -1/(1+omega), they reduce to

        Sigma_11 = c^2 (1+omega)^2 (c^2 + c + 4 c omega + (1+c) omega^2)
                   / ((c+omega)^4 (omega^2 - c)),
        Sigma_12 = c^2 (1+omega)^3 / (omega (c+omega)^2),
        Sigma_22 = c (1+omega)^2 (1 - c/omega^2),

    with det Sigma = c^3 (1+omega)^4 / (omega^2 (c+omega)^2), so Sigma is
    positive definite wherever the spike is detectable.  :class:`RegimeError`
    unless :func:`spike_limits` finds it detectable (|omega| > sqrt(c), and
    c < 1 for omega < 0), so omega = 0 is refused there too.
    :class:`ParameterError` for omega <= -1, where the spike direction carries
    no variance, and where an entry overflows a double (from omega near
    1e154 / sqrt(c) on, where Sigma_22 does).
    """
    if not (omega > -1):
        raise ParameterError("need omega > -1: at -1 the spike direction carries no variance")
    limit = spike_limits(omega, c)
    if not limit.detectable:
        raise RegimeError("fluctuations are Gaussian only for |omega| > sqrt(c)")
    # intermediates stay near the entries' size, and products replace **, which raises OverflowError on a float
    cr = c * (1 + omega) / (c + omega)
    s11 = cr * cr * ((1 + c) * omega + 4 * c + c * (1 + c) / omega) / (omega - c / omega) / (c + omega) / (c + omega)
    s12 = cr * cr * (1 + omega) / omega
    s22 = c * (1 + omega) * (1 + omega) * (1 - c / omega / omega)
    return FluctuationStats(omega, c, limit.xi, limit.rho, np.array([[s11, s12], [s12, s22]]))


def inverse_sqrt(t_cov) -> np.ndarray:
    """T^(-1/2) of a finite Hermitian positive definite T, from its eigendecomposition."""
    t_cov = np.asarray(t_cov, dtype=complex)
    if not np.all(np.isfinite(t_cov)):
        raise ParameterError("T must be finite")
    te = hermitian_eig(t_cov)
    if te.eigenvalues[0] <= 1e-14 * te.eigenvalues[-1]:
        raise SingularityError("T must be positive definite")
    return (te.eigenvectors / np.sqrt(te.eigenvalues)) @ te.eigenvectors.conj().T


def failure_hypotheses(h, inv_sqrt, alphas) -> list[FailureHypothesis]:
    """Rank-one spike hypotheses for per-parameter variance changes.

    For parameter k with change alpha_k, the whitened observation covariance
    becomes I + omega_k u_k u_k^H with v_k = T^(-1/2) H e_k,
    omega_k = ((1+alpha_k)^2 - 1) ||v_k||^2 and u_k = v_k/||v_k|| phase-fixed
    so its first nonzero component is real positive.  ``inv_sqrt`` is
    T^(-1/2), as :func:`inverse_sqrt` computes it.  A zero column of H has no
    direction u_k and is refused, and so is an alpha above 1e150, near where
    (1 + alpha)^2 overflows a double.
    """
    h = np.asarray(h, dtype=complex)
    inv_sqrt = np.asarray(inv_sqrt, dtype=complex)
    if h.ndim != 2 or inv_sqrt.shape != (h.shape[0], h.shape[0]):
        raise ParameterError("H must be N x M and T^(-1/2) must be N x N")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(inv_sqrt))):
        raise ParameterError("H and T^(-1/2) must be finite")
    try:
        alphas = np.asarray(alphas, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"alphas must be a list of numbers, got {alphas!r}") from exc
    if alphas.ndim != 1:
        raise ParameterError(f"alphas must be a list of numbers, got {alphas.tolist()!r}")
    if alphas.size != h.shape[1]:
        raise ParameterError("need one alpha per column of H")
    if not np.all((alphas >= -1) & (alphas <= _ALPHA_MAX)):
        raise ParameterError(f"alphas must be finite numbers in [-1, {_ALPHA_MAX:g}], got {alphas.tolist()!r}")
    out = []
    for k, alpha in enumerate(alphas.tolist()):
        v = inv_sqrt @ h[:, k]
        norm2 = float(np.vdot(v, v).real)
        if norm2 == 0:
            raise ParameterError(f"column {k} of H is zero, so it has no spike direction")
        u = v / math.sqrt(norm2)
        nz = np.flatnonzero(np.abs(u) > 1e-12)[0]
        u = u * (np.conj(u[nz]) / abs(u[nz]))
        omega = ((1.0 + alpha) ** 2 - 1.0) * norm2
        out.append(FailureHypothesis(k, omega, u, alpha))
    return out


def localizable_hypotheses(hypotheses, c: float) -> tuple[list, list, list]:
    """Split hypotheses at ratio c into (usable, their fluctuation stats, skipped indices).

    A hypothesis outside the detectable regime (|omega| <= sqrt(c), omega = 0
    included, or a downward spike at c >= 1) has no outlier to localize and is
    skipped.
    """
    usable, stats, skipped = [], [], []
    for hyp in hypotheses:
        try:
            st = fluctuation_stats(hyp.omega, c)
        except RegimeError:
            skipped.append(hyp.index)
            continue
        usable.append(hyp)
        stats.append(st)
    return usable, stats, skipped


def localize_failure(lam: float, u_hat, hypotheses, stats) -> tuple[int, np.ndarray]:
    """Pick the failure hypothesis maximizing the Gaussian fluctuation score.

    score_i = -N (v - m_i)^T Sigma_i^{-1} (v - m_i) - log det Sigma_i with
    v = (|u_i^H u_hat|^2, lam) and m_i = (xi_i, rho_i), all hypotheses in one
    expression from each stats' precomputed inverse and log-determinant.
    Returns the 0-based argmax (ties break to the lowest index) and all scores.
    """
    if len(hypotheses) == 0:
        raise ParameterError("need at least one hypothesis")
    if len(stats) != len(hypotheses):
        raise ParameterError("need fluctuation stats for every hypothesis")
    if any(st is None for st in stats):
        raise ParameterError("every hypothesis needs fluctuation stats")
    u_hat = np.asarray(u_hat, dtype=complex)
    proj = np.abs(np.array([hyp.u for hyp in hypotheses]).conj() @ u_hat) ** 2
    delta = np.column_stack((proj - [st.xi for st in stats], lam - np.array([st.rho for st in stats])))
    quad = np.einsum("ki,kij,kj->k", delta, np.array([st.sigma_inv for st in stats]), delta)
    scores = -u_hat.size * quad - np.array([st.logdet for st in stats])
    return int(np.argmax(scores)), scores
