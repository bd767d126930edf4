"""Scenario generation and Monte-Carlo execution for the library's experiment
suite.

A :class:`ScenarioSpec` freezes one experiment (observation model, dimensions,
trial count, seed); :func:`generate_trial` draws the trial-indexed observation
matrix Y, and :func:`run_monte_carlo` maps a binding over all trials, reducing
per-trial records into aggregates.  Trials use independent counter-based
streams keyed (seed, trial), so results are bit-identical for any worker count.

Each observation model is one class in :data:`MODELS`: ``setup(spec, params)``
validates the parameters once and builds ``spec.state`` (made with the spec and
pickled with it), the population parameters that bindings read;
``draw(spec, state, g)`` returns one trial's Y and ``binding(spec)`` is ``rmt
simulate``'s default.
``spectra(spec, state, trials)`` returns the eigenvalues of (1/n) Y Y^H for a
block of trials, one row per trial.  Its shared default draws Y and forms the
Gram per trial; ``mp-null``, ``spike`` and ``masses`` never build the complex
Y (``masses`` skips its Haar rotation) and run a block as two identical lanes:
the calling thread and one helper each take the next trial, draw it, form its
Gram and solve it in their own buffers.  The eigensolve is LAPACKE's zheevd
from numpy's OpenBLAS, called through ``ctypes`` without the GIL, and gives
the bits of ``np.linalg.eigvalsh``; where numpy's library lacks it, the block
runs as one lane on ``np.linalg.eigvalsh``.  Bindings that read only the
spectrum define ``per_spectrum`` and are served by this hook on the calling
thread; the others define ``per_trial`` and get each trial's Y.

Every block, serial or in a pool worker, runs with numpy's bundled OpenBLAS
pinned to one thread and restores the caller's count afterwards, so results
do not depend on ``OPENBLAS_NUM_THREADS``, the worker count or the lane that
ran a trial.  A numpy build without that library runs unpinned, and
:class:`McSummary` records which.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError
from .linalg import RngStream, _split_gram, complex_gaussian, haar_unitary, sample_covariance
from . import gestimation as ge
from . import spikes as sp
from .doa import SteeringModel, estimate_doa, steering_matrix
from .stieltjes import SpectralModel, density_from_stieltjes, mp_density

__all__ = [
    "ScenarioSpec",
    "McSummary",
    "generate_trial",
    "run_monte_carlo",
    "histogram",
    "EigBinding",
    "PowerNmseBinding",
    "GEstimatorBinding",
    "DetectionRocBinding",
    "DoaResolutionBinding",
    "FailureBinding",
    "reproduce_figure",
    "FIGURE_IDS",
]

# stream index reserved for scenario-level draws; a spec's trial streams stay below it
SETUP_STREAM = 2**48


def _integer(value, what: str, lo: int = 0, hi: float = math.inf) -> int:
    """``value`` as an int in [lo, hi]; bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ParameterError(f"{what} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _real(value, what: str, lo: float = -math.inf) -> float:
    """``value`` as a finite float >= lo; bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (math.isfinite(value) and value >= lo):
        bound = f" >= {lo:g}" if lo > -math.inf else ""
        raise ParameterError(f"{what} must be a finite number{bound}, got {value!r}")
    return float(value)


def _items(value, what: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ParameterError(f"{what} must be a non-empty list")
    return list(value)


def _snr_sigma(p: dict) -> float:
    # SNR is defined as 1/sigma^2, reported in dB
    return 10 ** (-_real(p.get("snr_db"), "snr_db") / 20.0)


class ObservationModel:
    """Shared base of the observation models."""

    def spectra(self, spec, s, trials):
        """A (len(trials), N) array whose row i holds the ascending eigenvalues
        of (1/n) Y Y^H at trial ``trials[i]``; this default draws Y and forms
        its Gram, which every model supports."""
        out = np.empty((len(trials), spec.n_dim))
        for i, t in enumerate(trials):
            y = self.draw(spec, s, spec.stream(t).generator())
            out[i] = np.linalg.eigvalsh(sample_covariance(y))
        return out


def _eigvalsh_into(zheevd, gram, w):
    """Ascending eigenvalues of the Hermitian, Fortran-ordered ``gram`` into
    ``w``, through LAPACKE's zheevd (no vectors, lower triangle): the LAPACK
    routine and arguments of ``np.linalg.eigvalsh``, so the same bits, but
    ``ctypes`` drops the GIL for the call.  Overwrites gram's lower triangle."""
    n = gram.shape[0]
    if not (gram.shape == (n, n) and gram.dtype == complex and gram.flags.f_contiguous
            and w.shape == (n,) and w.dtype == float and w.flags.c_contiguous):
        raise ValueError("zheevd needs a square Fortran-ordered complex128 matrix and a float64 vector of its size")
    info = zheevd(_LAPACK_COL_MAJOR, b"N", b"L", n, gram.ctypes.data, n, w.ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (LAPACKE zheevd info {info})")
    return w


def _gaussian_spectra(spec, trials, scale=None, skip=0):
    """Spectra of Y = scale * X, X proper complex Gaussian, as
    :meth:`ObservationModel.spectra` returns them.

    Each trial draws what :func:`complex_gaussian` draws, in its order, after
    skipping ``skip`` x ``skip`` complex Gaussians, and scales the parts as
    ``scale * complex_gaussian(...)`` does (times sqrt(1/2), then ``scale``),
    chunk by chunk straight into the real split the Gram kernel reads: Y
    itself is never built.

    :data:`BLOCK_LANES` lanes, this thread and helpers, each take the next
    trial index under a lock, then draw, form the Gram and solve in buffers of
    their own, and write row i of the result; a lane's work depends only on
    its trial's stream, so the rows do not depend on which lane ran them.  The
    lanes call private kernels only, nothing an instrumenter of the calling
    thread wraps (public rmt functions, ``np.linalg``).  Without LAPACKE the
    eigensolve is ``np.linalg.eigvalsh``, which holds the GIL, and the block
    runs as one lane on this thread.  A lane's error stops the others after
    their current trial and is raised here.
    """
    n_dim, n = spec.n_dim, spec.n_samples
    out = np.empty((len(trials), n_dim))
    openblas = _numpy_openblas()
    zheevd = openblas.zheevd if openblas else None
    rows, half = max(1, DRAW_CHUNK // n), np.sqrt(0.5)
    lock, order, failed = threading.Lock(), iter(range(len(trials))), []

    def lane():
        ab, chunk = np.empty((n_dim, 2, n)), np.empty((rows, n))
        gram, work = np.empty((n_dim, n_dim), dtype=complex, order="F"), np.empty((n_dim, n_dim))
        flat = chunk.reshape(-1)
        while True:
            with lock:
                i = None if failed else next(order, None)
            if i is None:
                return
            try:
                g = spec.stream(trials[i]).generator()
                for left in range(2 * skip * skip, 0, -flat.size):
                    g.standard_normal(out=flat[:left])
                for part in range(2):  # every real part, then every imaginary part, in one stream
                    for r in range(0, n_dim, rows):
                        x = chunk[:n_dim - r]
                        g.standard_normal(out=x)
                        y = ab[r:r + len(x), part]
                        np.multiply(x, half, out=y)
                        if scale is not None:
                            np.multiply(y, scale[r:r + len(x)], out=y)
                _split_gram(ab, gram, work)
                if zheevd:
                    _eigvalsh_into(zheevd, gram, out[i])
                else:
                    out[i] = np.linalg.eigvalsh(gram)
            except BaseException as exc:  # re-raised on the calling thread, once every lane has stopped
                failed.append(exc)
                return

    helpers = [threading.Thread(target=lane) for _ in range(min(BLOCK_LANES if zheevd else 1, len(trials)) - 1)]
    for h in helpers:
        h.start()
    try:
        lane()
    finally:
        for h in helpers:
            h.join()
    if failed:
        raise failed[0]
    return out


class MpNullModel(ObservationModel):
    """Y with i.i.d. unit-variance proper Gaussian entries; an optional
    ``snr_db`` sets the noise level of :class:`DetectionRocBinding`."""

    def setup(self, spec, p):
        return SimpleNamespace(sigma=_snr_sigma(p) if "snr_db" in p else 1.0)

    def draw(self, spec, s, g):
        return complex_gaussian(spec.n_dim, spec.n_samples, g)

    def spectra(self, spec, s, trials):
        return _gaussian_spectra(spec, trials)

    def binding(self, spec):
        return EigBinding(spec.kind)


class MassesModel(ObservationModel):
    """y_t = U x_t, U Haar per trial, x_t Gaussian with the diagonal covariance
    of ``atoms=[(value, multiplicity), ...]``."""

    def setup(self, spec, p):
        atoms = _items(p.get("atoms"), "masses atoms")
        if any(not isinstance(a, (list, tuple)) or len(a) != 2 for a in atoms):
            raise ParameterError("masses scenario needs atoms=[(value, multiplicity), ...]")
        values = tuple(_real(v, "atom value", 0.0) for v, _ in atoms)
        mults = tuple(_integer(m, "atom multiplicity", 1) for _, m in atoms)
        if sum(mults) != spec.n_dim:
            raise ParameterError("mass multiplicities must sum to N")
        return SimpleNamespace(values=values, mults=mults, scale=np.sqrt(np.repeat(values, mults))[:, None])

    def draw(self, spec, s, g):
        u = haar_unitary(spec.n_dim, g)
        x = complex_gaussian(spec.n_dim, spec.n_samples, g)
        return u @ (s.scale * x)

    def spectra(self, spec, s, trials):
        # the spectrum is unitarily invariant: U's Gaussians are drawn, to keep
        # X's stream position, but U is neither built nor applied
        return _gaussian_spectra(spec, trials, s.scale, skip=spec.n_dim)

    def binding(self, spec):
        return GEstimatorBinding()


class SpikeModel(ObservationModel):
    """Y = T^(1/2) X for T = I plus the positive ``omegas`` on its leading diagonal."""

    def setup(self, spec, p):
        omegas = tuple(_real(w, "omega") for w in _items(p.get("omegas"), "spike omegas"))
        if any(w <= 0 for w in omegas) or len(omegas) >= spec.n_dim:
            raise ParameterError("spike scenario needs a short positive omega list")
        diag = np.concatenate([1.0 + np.asarray(omegas), np.ones(spec.n_dim - len(omegas))])
        return SimpleNamespace(omegas=omegas, scale=np.sqrt(diag)[:, None])

    def draw(self, spec, s, g):
        return s.scale * complex_gaussian(spec.n_dim, spec.n_samples, g)

    def spectra(self, spec, s, trials):
        return _gaussian_spectra(spec, trials, s.scale)

    def binding(self, spec):
        return EigBinding(spec.kind)


class IidChannelModel(ObservationModel):
    """y(t) = sum_k sqrt(P_k) H_k x_k(t) + sigma w(t) for ``powers`` P_k with
    source ``multiplicities``; channel entries of variance 1/N, redrawn per trial."""

    def setup(self, spec, p):
        powers = tuple(_real(v, "power", 0.0) for v in _items(p.get("powers"), "powers"))
        mults = tuple(_integer(m, "multiplicity", 1) for m in _items(p.get("multiplicities"), "multiplicities"))
        if len(powers) != len(mults):
            raise ParameterError("iid-channel needs matching powers and multiplicities")
        if sum(mults) > spec.n_dim:
            raise ParameterError("total source antennas must not exceed N")
        pdiag = np.repeat(powers, mults)
        return SimpleNamespace(powers=powers, mults=mults, pdiag=pdiag, scale=np.sqrt(pdiag)[:, None], sigma=_snr_sigma(p))

    def draw(self, spec, s, g):
        # channel entries have variance 1/N so receive power stays bounded in N
        h = complex_gaussian(spec.n_dim, s.pdiag.size, g) / math.sqrt(spec.n_dim)
        x = complex_gaussian(s.pdiag.size, spec.n_samples, g)
        w = complex_gaussian(spec.n_dim, spec.n_samples, g)
        return h @ (s.scale * x) + s.sigma * w

    def binding(self, spec):
        return PowerNmseBinding()


class DoaModel(ObservationModel):
    """y(t) = sum_k s(theta_k) x_k(t) + sigma w(t) on a ULA of N sensors
    ``spacing`` half-wavelengths apart (default 1)."""

    def setup(self, spec, p):
        angles = tuple(_real(a, "angle") for a in _items(p.get("angles_deg"), "doa angles_deg"))
        model = SteeringModel(spec.n_dim, _real(p.get("spacing", 1.0), "spacing"))
        return SimpleNamespace(angles=angles, model=model, steering=steering_matrix(model, angles), sigma=_snr_sigma(p))

    def draw(self, spec, s, g):
        x = complex_gaussian(len(s.angles), spec.n_samples, g)
        w = complex_gaussian(spec.n_dim, spec.n_samples, g)
        return s.steering @ x + s.sigma * w

    def binding(self, spec):
        return DoaResolutionBinding()


class FailureModel(ObservationModel):
    """Whitened network observations T^(-1/2) x(t) with an optional variance change
    ``alpha`` on parameter ``failed_index``; the network H in T = HH^H + noise_var I
    is drawn once per scenario (reserved stream), and with it the localizable
    failure hypotheses and their fluctuation stats, so they stay fixed across trials."""

    def setup(self, spec, p):
        m = _integer(p.get("n_params"), "failure n_params", 1)
        failed = p.get("failed_index")
        if failed is not None and _integer(failed, "failed_index") >= m:
            raise ParameterError("failed_index out of range")
        alpha = _real(p.get("alpha", -1.0), "alpha", -1.0)
        if alpha == 0:
            raise ParameterError("alpha must be nonzero: alpha = 0 is no variance change")
        if alpha < 0 and spec.n_samples <= spec.n_dim:
            raise ParameterError("a variance drop (alpha < 0) is read off the smallest eigenvalue, "
                                 "which separates from zero only for n > N (c < 1)")
        sigma2 = _real(p.get("noise_var", 1.0), "noise_var", 0.0)
        g = RngStream(spec.seed, SETUP_STREAM).generator()
        h = complex_gaussian(spec.n_dim, m, g)
        inv_sqrt = sp.inverse_sqrt(h @ h.conj().T + sigma2 * np.eye(spec.n_dim))
        gain = np.where(np.arange(m) == failed, 1.0 + alpha, 1.0)[:, None]  # all ones if failed is None
        hypotheses, stats, _ = sp.localizable_hypotheses(sp.failure_hypotheses(h, inv_sqrt, [alpha] * m), spec.ratio)
        return SimpleNamespace(n_params=m, failed=failed, alpha=alpha, noise_var=sigma2, network=h,
                               gain=gain, inv_sqrt=inv_sqrt, hypotheses=hypotheses, stats=stats)

    def draw(self, spec, s, g):
        theta = complex_gaussian(s.n_params, spec.n_samples, g)
        w = complex_gaussian(spec.n_dim, spec.n_samples, g)
        x = s.network @ (s.gain * theta) + math.sqrt(s.noise_var) * w
        return s.inv_sqrt @ x

    def binding(self, spec):
        return FailureBinding(_real(spec.params.get("far", 1e-2), "far"))


MODELS = {"mp-null": MpNullModel(), "masses": MassesModel(), "spike": SpikeModel(),
          "iid-channel": IidChannelModel(), "doa": DoaModel(), "failure": FailureModel()}
KINDS = tuple(MODELS)


@dataclass(frozen=True)
class ScenarioSpec:
    """One frozen Monte-Carlo experiment; ``params`` stay as given and
    ``state`` holds their validated scenario-level form."""

    kind: str
    n_dim: int
    n_samples: int
    trials: int
    seed: int
    params: dict = field(default_factory=dict)
    state: SimpleNamespace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown scenario kind {self.kind!r}")
        for value, what, lo, hi in ((self.n_dim, "N", 1, math.inf), (self.n_samples, "n", 1, math.inf),
                                    (self.trials, "trials", 1, SETUP_STREAM), (self.seed, "seed", 0, 2**64 - 1)):
            _integer(value, what, lo, hi)
        if not isinstance(self.params, dict):
            raise ParameterError("params must be a dict")
        state = MODELS[self.kind].setup(self, self.params)
        for value in vars(state).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # shared by every trial, lane and pool block
        object.__setattr__(self, "state", state)

    @property
    def ratio(self) -> float:
        return self.n_dim / self.n_samples

    def stream(self, trial: int) -> RngStream:
        return RngStream(self.seed, trial)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "N": self.n_dim,
                "n": self.n_samples,
                "trials": self.trials,
                "seed": self.seed,
                "params": self.params,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        raw, keys = json.loads(text), ("kind", "N", "n", "trials", "seed")
        if not isinstance(raw, dict) or not raw.keys() >= set(keys):
            raise ParameterError(f"a scenario is a JSON object with keys {', '.join(keys)} and optional params")
        return cls(raw["kind"], raw["N"], raw["n"], raw["trials"], raw["seed"], raw.get("params", {}))


def generate_trial(spec: ScenarioSpec, trial: int):
    """Y (N x n) of one trial and the scenario state it was drawn under, ``spec.state``."""
    if not (0 <= trial < spec.trials):
        raise ParameterError("trial index out of range")
    return MODELS[spec.kind].draw(spec, spec.state, spec.stream(trial).generator()), spec.state


@dataclass(frozen=True)
class McSummary:
    """One run's records and aggregates, with the BLAS thread count its blocks
    ran at (None when this numpy build could not be pinned) and its worker count."""

    spec: ScenarioSpec
    records: tuple
    aggregates: dict
    runtime_s: float
    blas_threads: int | None
    workers: int

    @property
    def seed_manifest(self) -> dict:
        return {"seed": self.spec.seed, "streams": f"(seed, trial) for trial < {self.spec.trials}",
                "blas_threads": self.blas_threads, "workers": self.workers}


BLOCK_BLAS_THREADS = 1  # a block's OpenBLAS thread count, wherever numpy's bundled library allows pinning it
BLOCK_LANES = 2  # threads, the caller's included, that run a spectrum-only block's trials
DRAW_CHUNK = 16384  # normals per draw call (128 KB), so a lane's draw buffer stays in cache
_LAPACK_COL_MAJOR = 102


@functools.cache  # looked up on the first block, never at import
def _numpy_openblas():
    """The OpenBLAS bundled with numpy, as ``get_threads``, ``set_threads``
    and ``zheevd`` (None where the library has no LAPACKE), or None when this
    numpy build does not ship it.  scipy's copy is never used."""
    import ctypes
    import glob
    import os

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, ()
        put.restype, put.argtypes = None, (ctypes.c_int,)
        zheevd = getattr(lib, "scipy_LAPACKE_zheevd64_", None)
        if zheevd is not None:  # ILP64: lapack_int is 64-bit
            zheevd.restype = ctypes.c_int64
            zheevd.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                               ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
        return SimpleNamespace(get_threads=get, set_threads=put, zheevd=zheevd)
    return None


@contextlib.contextmanager
def _pinned_blas():
    """Run the body with numpy's bundled OpenBLAS at :data:`BLOCK_BLAS_THREADS`
    and restore the caller's count after, also when the body raises; a build
    without that library runs the body unpinned."""
    blas = _numpy_openblas()
    if not blas:
        yield
        return
    before = blas.get_threads()
    blas.set_threads(BLOCK_BLAS_THREADS)
    try:
        yield
    finally:
        blas.set_threads(before)


def _run_block(args):
    """Records of one block of trials, run pinned: spectrum-only bindings read
    the model's ``spectra``, the others get each trial's Y."""
    spec, binding, trials = args
    with _pinned_blas():
        if hasattr(binding, "per_spectrum"):
            spectra = MODELS[spec.kind].spectra(spec, spec.state, trials)
            return [binding.per_spectrum(spec, t, eigs) for t, eigs in zip(trials, spectra, strict=True)]
        model = MODELS[spec.kind]
        return [binding.per_trial(spec, t, model.draw(spec, spec.state, spec.stream(t).generator())) for t in trials]


def run_monte_carlo(spec: ScenarioSpec, binding, workers: int = 1) -> McSummary:
    """Execute all trials of a scenario under a binding and reduce.

    The binding provides ``reduce(spec, records) -> dict`` and either
    ``per_spectrum(spec, trial, eigs) -> dict``, if it reads only the ascending
    eigenvalues of (1/n) Y Y^H, or ``per_trial(spec, trial, y) -> dict``.
    Trials run in blocks of consecutive indices, all of them in one block when
    serial and one block per pool task otherwise; records reach ``reduce`` in
    trial order, so aggregates do not depend on worker scheduling.  Every block
    runs at the same pinned BLAS thread count, recorded in the summary with
    the worker count; ``workers`` must be an integer >= 1, and the pool starts
    no more processes than there are blocks.
    """
    workers = _integer(workers, "workers", 1)
    if not (hasattr(binding, "per_spectrum") or hasattr(binding, "per_trial")) or not hasattr(binding, "reduce"):
        raise ParameterError("binding must expose per_spectrum or per_trial, and reduce")
    if getattr(binding, "kind", spec.kind) != spec.kind:
        raise ParameterError(f"binding for kind {binding.kind!r} is incompatible with {spec.kind!r}")
    t0 = time.perf_counter()
    trials = range(spec.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: keeps the pool off the import path

        size = max(1, spec.trials // (8 * workers))
        blocks = [(spec, binding, trials[t:t + size]) for t in trials[::size]]
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            records = tuple(rec for block in pool.map(_run_block, blocks) for rec in block)
    else:
        records = tuple(_run_block((spec, binding, trials)))
    aggregates = binding.reduce(spec, records)
    # pool children run this process's numpy build, so they pin as it would
    blas_threads = BLOCK_BLAS_THREADS if _numpy_openblas() else None
    return McSummary(spec, records, aggregates, time.perf_counter() - t0, blas_threads, workers)


def histogram(values, bins: int, value_range=None):
    """Unit-area histogram; returns (edges, densities)."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ParameterError("cannot histogram an empty sample")
    if bins < 1:
        raise ParameterError("need at least one bin")
    dens, edges = np.histogram(values, bins=bins, range=value_range, density=True)
    return edges, dens


# --- bindings ----------------------------------------------------------------


class EigBinding:
    """Record the full sample-covariance spectrum per trial (any kind)."""

    def __init__(self, kind: str):
        self.kind = kind

    def per_spectrum(self, spec, trial, eigs):
        return {"eigs": eigs}

    def reduce(self, spec, records):
        eigs = np.concatenate([r["eigs"] for r in records])
        return {"all_eigs": eigs, "per_trial_max": np.array([r["eigs"][-1] for r in records]),
                "per_trial_min": np.array([r["eigs"][0] for r in records])}


class PowerNmseBinding:
    """Backs the fig4 experiment: i.i.d.-channel estimates vs classical cluster means.

    The classical route assumes n >> N and N >> M_k: cluster mean minus the
    noise level estimated from the N - M smallest eigenvalues.
    """

    kind = "iid-channel"

    def per_spectrum(self, spec, trial, eigs):
        mults = spec.state.mults
        clusters = ge.ClusterAssignment.top_ranges(spec.n_dim, mults)
        gvals = ge.power_estimate_iid_channel(eigs, spec.n_dim, spec.n_samples, clusters).values
        m_total = sum(mults)
        noise_hat = float(np.mean(eigs[: spec.n_dim - m_total])) if m_total < spec.n_dim else 0.0
        cvals = tuple(v - noise_hat for v in ge.classical_estimate(eigs, clusters).values)
        return {"g": gvals, "classical": cvals}

    def reduce(self, spec, records):
        powers = np.asarray(spec.state.powers)
        g = np.array([r["g"] for r in records])
        c = np.array([r["classical"] for r in records])
        nmse_g = np.mean((g - powers) ** 2, axis=0) / powers**2
        nmse_c = np.mean((c - powers) ** 2, axis=0) / powers**2
        return {
            "nmse_g": nmse_g,
            "nmse_classical": nmse_c,
            "nmse_g_db": 10 * np.log10(nmse_g),
            "nmse_classical_db": 10 * np.log10(nmse_c),
        }


class GEstimatorBinding:
    """Masses-kind: Eq-for-Eq comparison of the cluster-mean and G estimators."""

    kind = "masses"

    def per_spectrum(self, spec, trial, eigs):
        mults = spec.state.mults
        clusters = ge.clusters_from_gaps(eigs, len(mults), mults)
        return {
            "g": ge.g_estimate(eigs, spec.n_samples, clusters).values,
            "classical": ge.classical_estimate(eigs, clusters).values,
            "gap_aligned": clusters.gap_aligned,
        }

    def reduce(self, spec, records):
        values = np.asarray(spec.state.values)
        g = np.array([r["g"] for r in records])
        c = np.array([r["classical"] for r in records])
        return {
            "mse_g": np.mean((g - values) ** 2, axis=0),
            "mse_classical": np.mean((c - values) ** 2, axis=0),
            "mean_g": g.mean(axis=0),
            "mean_classical": c.mean(axis=0),
            "gap_aligned_rate": float(np.mean([r["gap_aligned"] for r in records])),
        }


class DetectionRocBinding:
    """Backs the fig6 experiment: GLRT and condition-number statistics per trial
    under both hypotheses (noise only / rank-one channel plus noise)."""

    kind = "mp-null"

    def per_trial(self, spec, trial, y):
        # y is the null draw; the alternative reuses the same stream for its
        # channel, signal and noise so trials stay self-contained.
        g = RngStream(spec.seed, trial + SETUP_STREAM).generator()
        n_dim, n_samples = spec.n_dim, spec.n_samples
        sigma = spec.state.sigma
        h = complex_gaussian(n_dim, 1, g)[:, 0]
        x = complex_gaussian(1, n_samples, g)
        w = complex_gaussian(n_dim, n_samples, g)
        y_alt = np.outer(h, np.ones(n_samples)) * x + sigma * w
        e_null = np.linalg.eigvalsh(sample_covariance(sigma * y))
        e_alt = np.linalg.eigvalsh(sample_covariance(y_alt))
        return {
            "glrt_null": sp.glrt_statistic(e_null),
            "glrt_alt": sp.glrt_statistic(e_alt),
            "cond_null": sp.condition_number_statistic(e_null),
            "cond_alt": sp.condition_number_statistic(e_alt),
        }

    def reduce(self, spec, records):
        out = {}
        for name in ("glrt", "cond"):
            null = np.array([r[f"{name}_null"] for r in records])
            alt = np.array([r[f"{name}_alt"] for r in records])
            out[f"{name}_null"] = null
            out[f"{name}_alt"] = alt
        return out

    @staticmethod
    def detection_at_far(aggregates: dict, name: str, far: float) -> float:
        """Empirically FAR-matched detection rate for one detector."""
        null = np.sort(aggregates[f"{name}_null"])
        alt = aggregates[f"{name}_alt"]
        k = int(math.ceil((1 - far) * null.size)) - 1
        threshold = null[min(max(k, 0), null.size - 1)]
        return float(np.mean(alt > threshold))


class DoaResolutionBinding:
    """Backs the fig5 experiment: resolution rates of both MUSIC variants."""

    kind = "doa"

    def __init__(self, window_deg: float = 1.0):
        self.window = window_deg

    def per_trial(self, spec, trial, y):
        s = spec.state
        # only the angles are kept: a 3-point search range samples no cost curve
        return {m: estimate_doa(y, len(s.angles), s.model, (-90.0, 0.0, 90.0), m).angles
                for m in ("music", "gmusic")}

    def reduce(self, spec, records):
        true = np.sort(np.asarray(spec.state.angles))
        out = {}
        for method in ("music", "gmusic"):
            hits = []
            for r in records:
                got = np.sort(np.asarray(r[method], dtype=float))
                ok = got.size == true.size and np.all(np.abs(got - true) <= self.window)
                hits.append(ok)
            out[f"{method}_resolution_rate"] = float(np.mean(hits))
        return out


class FailureBinding:
    """Backs the fig8 experiment: extreme-eigenvalue failure detection plus localization,
    on the smallest eigenpair for a variance drop (alpha < 0) and the largest for a rise.

    The scenario state holds the hypotheses and their fluctuation stats;
    hypotheses below the detectability threshold |omega| > sqrt(c) cannot be
    localized and are left out of it.
    """

    kind = "failure"

    def __init__(self, far: float):
        self.threshold = sp.false_alarm_threshold(far)

    def per_trial(self, spec, trial, y):
        s = spec.state
        eig = np.linalg.eigh(sample_covariance(y))
        side = -1 if s.alpha > 0 else 0
        lam = float(eig.eigenvalues[side])
        standardize = sp.tw_standardize if side else sp.tw_standardize_smallest
        detected = standardize(lam, spec.n_dim, spec.ratio) > self.threshold
        k_hat = None
        if detected and s.hypotheses:
            best, _ = sp.localize_failure(lam, eig.eigenvectors[:, side], s.hypotheses, s.stats)
            k_hat = s.hypotheses[best].index
        return {"detected": detected, "k_hat": k_hat}

    def reduce(self, spec, records):
        truth_k = spec.state.failed
        det = np.array([r["detected"] for r in records])
        out = {"detection_rate": float(np.mean(det))}
        if truth_k is not None:
            loc = np.array([r["detected"] and r["k_hat"] == truth_k for r in records])
            out["localization_rate"] = float(np.mean(loc))
        return out


# --- figure reproduction ------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One bundled figure as data: ``specs(seed, desk)`` lists the scenarios it
    runs, at desk scale when ``desk`` and at the paper's otherwise; each runs
    under ``binding``, or under its kind's default binding when that is None;
    ``curves(specs, aggregates)`` turns their aggregates, in spec order, into
    the figure's named curves."""

    specs: object
    curves: object
    binding: object = None


def _centered_histogram(values, bins: int, value_range):
    edges, dens = histogram(values, bins, value_range)
    return (edges[:-1] + edges[1:]) / 2, dens


def _fig1_curves(specs, aggs):
    x, dens = _centered_histogram(aggs[0]["all_eigs"], 50, (0.0, 3.0))
    return {"histogram": {"x": x, "density": dens}, "theory": {"x": x, "density": mp_density(specs[0].ratio, x)}}


def _fig2_curves(specs, aggs):
    grid = np.arange(0.0, 3.0001, 0.01)
    return {f"c={c}": {"x": grid, "density": mp_density(c, grid)} for c in (0.1, 0.2, 0.5)}


def _fig3_curves(specs, aggs):
    spec = specs[0]
    x, dens = _centered_histogram(aggs[0]["all_eigs"], 55, (0.0, 11.0))
    model = SpectralModel.from_multiplicities(spec.state.values, spec.state.mults, spec.ratio)
    limit = density_from_stieltjes(model, np.arange(0.05, 11.0, 0.01))
    return {"histogram": {"x": x, "density": dens}, "limit": {"x": limit.grid, "density": limit.values}}


def _fig4_curves(specs, aggs):
    # the strongest source's NMSE against SNR
    snr = np.array([spec.params["snr_db"] for spec in specs], float)
    return {"gest": {"snr_db": snr, "nmse_db": np.array([agg["nmse_g_db"][2] for agg in aggs])},
            "classical": {"snr_db": snr, "nmse_db": np.array([agg["nmse_classical_db"][2] for agg in aggs])}}


def _fig5_curves(specs, aggs):
    # both cost curves of trial 0
    spec = specs[0]
    grid = np.arange(-90.0, 90.0001, 0.05)
    y, _ = generate_trial(spec, 0)
    out = {}
    for method in ("music", "gmusic"):
        res = estimate_doa(y, len(spec.state.angles), spec.state.model, grid, method)
        out[method] = {"theta_deg": grid, "cost_db": 10 * np.log10(np.maximum(res.costs, 1e-300))}
    return out | {"resolution": aggs[0]}


def _fig6_curves(specs, aggs):
    fars = np.concatenate([np.logspace(-4, -1, 25), np.linspace(0.12, 1.0, 12)])
    return {name: {"far": fars, "detection": np.array([DetectionRocBinding.detection_at_far(aggs[0], name, f)
                                                        for f in fars])}
            for name in ("glrt", "cond")}


def _fig7_curves(specs, aggs):
    spec = specs[0]
    std = np.array([sp.tw_standardize(v, spec.n_dim, spec.ratio) for v in aggs[0]["per_trial_max"]])
    s, dens = _centered_histogram(std, 40, (-5.0, 3.0))
    table = sp.default_tw_table()
    pdf = np.gradient(np.array([sp.tracy_widom(table, x) for x in s]), s)
    return {"histogram": {"s": s, "density": dens}, "tw_density": {"s": s, "density": pdf},
            "standardized": {"values": std}}


def _fig8_curves(specs, aggs):
    n = np.array([spec.n_samples for spec in specs], float)
    return {"cdr": {"n": n, "rate": np.array([agg["detection_rate"] for agg in aggs])},
            "clr": {"n": n, "rate": np.array([agg["localization_rate"] for agg in aggs])}}


def _fig3_specs(top: float):
    """Three masses of 100 at 1, 3 and ``top``, one draw at either scale."""
    return lambda seed, desk: [ScenarioSpec("masses", 300, 3000, 1, seed,
                                            {"atoms": [(v, 100) for v in (1.0, 3.0, top)]})]


def _fig4_specs(seed, desk):
    snrs = range(-5, 31, 5) if desk else range(-5, 31)
    return [ScenarioSpec("iid-channel", 24, 128, 2000 if desk else 10_000, seed + i,
                         {"powers": [1 / 16, 1 / 4, 1.0], "multiplicities": [4, 4, 4], "snr_db": snr})
            for i, snr in enumerate(snrs)]


def _fig8_specs(seed, desk):
    # the smallest-eigenvalue test needs c = N/n < 1, so n stays above N = 10
    grid = (24, 40, 55, 71, 86, 102) if desk else (16, 24, 32, 40, 47, 55, 63, 71, 79, 86, 94, 102,
                                                   110, 118, 125, 133, 141, 149, 157, 164)
    return [ScenarioSpec("failure", 10, n, 5000 if desk else 100_000, seed + i,
                         {"n_params": 10, "alpha": -1.0, "failed_index": 0, "noise_var": 1.0, "far": 1e-2})
            for i, n in enumerate(grid)]


FIGURES = {
    "fig1": Figure(lambda seed, desk: [ScenarioSpec("mp-null", 500, 2000, 1, seed)], _fig1_curves),
    "fig2": Figure(lambda seed, desk: [], _fig2_curves),
    "fig3-top": Figure(_fig3_specs(7.0), _fig3_curves, EigBinding("masses")),
    "fig3-bottom": Figure(_fig3_specs(4.0), _fig3_curves, EigBinding("masses")),
    "fig4": Figure(_fig4_specs, _fig4_curves),
    "fig5": Figure(lambda seed, desk: [ScenarioSpec("doa", 20, 150, 500 if desk else 10_000, seed,
                                                    {"angles_deg": [35.0, 37.0], "snr_db": 10.0})], _fig5_curves),
    "fig6": Figure(lambda seed, desk: [ScenarioSpec("mp-null", 4, 8, 20_000 if desk else 100_000, seed,
                                                    {"snr_db": 0.0})], _fig6_curves, DetectionRocBinding()),
    "fig7": Figure(lambda seed, desk: [ScenarioSpec("mp-null", 256, 768, 2000, seed) if desk
                                       else ScenarioSpec("mp-null", 500, 1500, 10_000, seed)], _fig7_curves),
    "fig8": Figure(_fig8_specs, _fig8_curves),
}
FIGURE_IDS = tuple(FIGURES)


def reproduce_figure(figure_id: str, seed: int, scale: str = "desk", workers: int = 1) -> dict:
    """Re-run one of the bundled reference experiments; returns named curves.

    Every output is a dict of numpy columns keyed by curve name, plus a
    ``manifest`` entry recording the specs of the Monte-Carlo runs in run
    order, the class name of each run's binding in the same order, the worker
    count and the BLAS thread count of those runs (None when the figure runs
    none or the build could not be pinned).  The curve step runs at that
    pinned count too.  The seed must lie in [0, 2**64 - 1] even when the
    figure runs no Monte Carlo.
    """
    if figure_id not in FIGURES:
        raise ParameterError(f"unknown figure id {figure_id!r}; known: {FIGURE_IDS}")
    if scale not in ("desk", "paper"):
        raise ParameterError("scale must be 'desk' or 'paper'")
    seed = _integer(seed, "seed", 0, 2**64 - 1)
    workers = _integer(workers, "workers", 1)
    figure = FIGURES[figure_id]
    specs = figure.specs(seed, scale == "desk")
    bindings = [figure.binding or MODELS[spec.kind].binding(spec) for spec in specs]
    runs = [run_monte_carlo(spec, binding, workers) for spec, binding in zip(specs, bindings)]
    with _pinned_blas():
        curves = figure.curves(specs, [run.aggregates for run in runs])
    return {"manifest": {"figure": figure_id, "seed": seed, "scale": scale, "workers": workers,
                         "blas_threads": runs[-1].blas_threads if runs else None,
                         "specs": [json.loads(spec.to_json()) for spec in specs],
                         "bindings": [type(binding).__name__ for binding in bindings]}, **curves}
