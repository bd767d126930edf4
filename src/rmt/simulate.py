"""Scenario generation and Monte-Carlo execution for the library's experiment
suite.

A :class:`ScenarioSpec` freezes one experiment (observation model, dimensions,
trial count, seed); :func:`generate_trial` draws the trial-indexed observation
matrix Y, and :func:`run_monte_carlo` runs a binding over all trials in blocks,
keeps each value the binding records as one column (a numpy array with the
trial axis first) and reduces the columns into aggregates.  Trials use
independent counter-based streams keyed (seed, trial), so results are
bit-identical for any worker count.

Each observation model is one class in :data:`MODELS`: ``setup(spec, params)``
validates the parameters once and builds ``spec.state`` (made with the spec and
pickled with it), the population parameters that bindings read;
``draw_into(spec, state, g, y, chunk)`` writes one trial's Y into a caller's
N x n buffer, filling its Gaussian term once there, and ``binding(spec)`` is
``rmt simulate``'s default.  :class:`ObservationModel` derives ``draw`` and
``spectra(spec, state, trials)``, the eigenvalues of (1/n) Y Y^H for a block
of trials, which two identical lanes form with the Hermitian kernel of
:mod:`rmt.linalg` (zherk, then zheevd; ``np.linalg.eigvalsh`` in one lane
where numpy's library lacks LAPACKE).  Every binding maps a block of trials
to its record columns with ``per_block``; a spectrum binding's maps that
block's spectra, on the calling thread.

Every block, serial or in a pool worker, runs with numpy's bundled OpenBLAS
pinned to one thread and restores the caller's count afterwards, so results
do not depend on ``OPENBLAS_NUM_THREADS``, the worker count or the lane that
ran a trial.  A numpy build without that library runs unpinned, and
:class:`McSummary` records which.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError
from .linalg import (BLOCK_BLAS_THREADS, DRAW_CHUNK, RngStream, _blas_build, _eigvalsh_into, _gaussian_into,
                     _gram_into, _numpy_openblas, _pinned_blas, complex_gaussian, haar_unitary, sample_eigh,
                     sample_spectrum)
from . import gestimation as ge
from . import spikes as sp
from .doa import SteeringModel, _doa_from_eigh, steering_matrix
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
    """Shared base of the observation models; ``params`` names every key of
    ``spec.params`` the model and its default binding read.

    A model defines ``draw_into(spec, s, g, y, chunk=None)``: it writes the
    trial Y of generator ``g`` into the caller's C-contiguous complex N x n
    buffer ``y``, with ``chunk`` as :func:`~rmt.linalg._gaussian_into`'s
    normals buffer, and returns Y: ``y`` itself, or a new array where Y is a
    left product of it.  ``draw`` and ``spectra`` derive from it.  ``draw``
    passes no ``chunk``, so its unscaled Gaussians come from the public
    :func:`~rmt.linalg.complex_gaussian` (``mp-null``'s Y in a new array,
    which it scales in place), where an instrumenter of the calling thread
    times them; a lane's are private."""

    def draw(self, spec, s, g):
        """One trial's Y, in a buffer of its own."""
        return self.draw_into(spec, s, g, np.empty((spec.n_dim, spec.n_samples), dtype=complex))

    def spectral_into(self, spec, s, g, y, chunk):
        """A matrix with the sample spectrum of ``draw_into``'s Y, as a lane
        forms it: by default that Y."""
        return self.draw_into(spec, s, g, y, chunk)

    def spectra(self, spec, s, trials):
        """A (len(trials), N) array, the block a spectrum binding reads, whose row i
        holds the ascending eigenvalues of (1/n) Y Y^H at trial ``trials[i]``.

        :data:`BLOCK_LANES` lanes, this thread and helpers, each take the next
        trial index under a lock, then run ``spectral_into`` and the kernel in
        buffers of their own, and write row i of the result; a lane's work
        depends only on its trial's stream, so the rows do not depend on which
        lane ran them.  The lanes call private kernels only, nothing an
        instrumenter of the calling thread wraps (public rmt functions,
        ``np.linalg``).  Without LAPACKE the eigensolve is
        ``np.linalg.eigvalsh``, which holds the GIL, and the block runs as one
        lane on this thread.  A lane's error stops the others after their
        current trial and is raised here.
        """
        n_dim, n = spec.n_dim, spec.n_samples
        out = np.empty((len(trials), n_dim))
        blas = _numpy_openblas()
        lock, order, failed = threading.Lock(), iter(range(len(trials))), []

        def lane():
            y, chunk = np.empty((n_dim, n), dtype=complex), np.empty((max(1, DRAW_CHUNK // n), n))
            gram = np.empty((n_dim, n_dim), dtype=complex)
            while True:
                with lock:
                    i = None if failed else next(order, None)
                if i is None:
                    return
                try:
                    y_t = self.spectral_into(spec, s, spec.stream(trials[i]).generator(), y, chunk)
                    _eigvalsh_into(_gram_into(y_t, gram), out[i])
                except BaseException as exc:  # re-raised on the calling thread, once every lane has stopped
                    failed.append(exc)
                    return

        lanes = BLOCK_LANES if blas and blas.zheevd else 1
        helpers = [threading.Thread(target=lane) for _ in range(min(lanes, len(trials)) - 1)]
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


def _normals(rows, cols, g, chunk):
    """``complex_gaussian(rows, cols, g)``, called as such by ``draw`` (no
    ``chunk``); a lane gets the same bits from the private fill on its buffer."""
    if chunk is None:
        return complex_gaussian(rows, cols, g)
    return _gaussian_into(np.empty((rows, cols), dtype=complex), g, chunk=chunk)


def _noise_into(y, g, chunk, sigma, signal):
    """``signal + sigma * w`` into ``y`` for the next N x n proper Gaussian w
    of ``g``: sigma * w in place, then the signal added to it, which gives the
    same bits because IEEE addition commutes."""
    _gaussian_into(y, g, chunk=chunk)
    y *= sigma
    y += signal
    return y


class MpNullModel(ObservationModel):
    """Y = sigma W, W with i.i.d. unit-variance proper Gaussian entries; an
    optional ``snr_db`` sets sigma (1 without it) for every binding, and
    :class:`DetectionRocBinding` adds its signal to noise of the same level."""

    params = ("snr_db",)

    def setup(self, spec, p):
        sigma = _snr_sigma(p) if "snr_db" in p else 1.0
        return SimpleNamespace(sigma=sigma, scale=None if sigma == 1 else np.full((spec.n_dim, 1), sigma))

    def draw_into(self, spec, s, g, y, chunk=None):
        if chunk is not None:
            return _gaussian_into(y, g, s.scale, chunk)
        y = complex_gaussian(spec.n_dim, spec.n_samples, g)
        if s.scale is not None:
            y *= s.scale
        return y

    def binding(self, spec):
        return EigBinding(spec.kind)


class MassesModel(ObservationModel):
    """y_t = U x_t, U Haar per trial, x_t Gaussian with the diagonal covariance
    of ``atoms=[(value, multiplicity), ...]``."""

    params = ("atoms",)

    def setup(self, spec, p):
        atoms = _items(p.get("atoms"), "masses atoms")
        if any(not isinstance(a, (list, tuple)) or len(a) != 2 for a in atoms):
            raise ParameterError("masses scenario needs atoms=[(value, multiplicity), ...]")
        values = tuple(_real(v, "atom value", 0.0) for v, _ in atoms)
        mults = tuple(_integer(m, "atom multiplicity", 1) for _, m in atoms)
        if sum(mults) != spec.n_dim:
            raise ParameterError("mass multiplicities must sum to N")
        return SimpleNamespace(values=values, mults=mults, scale=np.sqrt(np.repeat(values, mults))[:, None])

    def draw_into(self, spec, s, g, y, chunk=None):
        u = haar_unitary(spec.n_dim, g)
        return u @ _gaussian_into(y, g, s.scale, chunk)

    def spectral_into(self, spec, s, g, y, chunk):
        # the spectrum is unitarily invariant: U's 2 N^2 normals are drawn, to
        # keep X's stream position, but U is neither built nor applied
        flat = chunk.reshape(-1)
        for left in range(2 * spec.n_dim**2, 0, -flat.size):
            g.standard_normal(out=flat[:left])
        return _gaussian_into(y, g, s.scale, chunk)

    def binding(self, spec):
        return GEstimatorBinding()


class SpikeModel(ObservationModel):
    """Y = T^(1/2) X for T = I plus the positive ``omegas`` on its leading diagonal."""

    params = ("omegas",)

    def setup(self, spec, p):
        omegas = tuple(_real(w, "omega") for w in _items(p.get("omegas"), "spike omegas"))
        if any(w <= 0 for w in omegas) or len(omegas) >= spec.n_dim:
            raise ParameterError("spike scenario needs a short positive omega list")
        diag = np.concatenate([1.0 + np.asarray(omegas), np.ones(spec.n_dim - len(omegas))])
        return SimpleNamespace(omegas=omegas, scale=np.sqrt(diag)[:, None])

    def draw_into(self, spec, s, g, y, chunk=None):
        return _gaussian_into(y, g, s.scale, chunk)

    def binding(self, spec):
        return EigBinding(spec.kind)


class IidChannelModel(ObservationModel):
    """y(t) = sum_k sqrt(P_k) H_k x_k(t) + sigma w(t) for ``powers`` P_k with
    source ``multiplicities``; channel entries of variance 1/N, redrawn per trial."""

    params = ("powers", "multiplicities", "snr_db")

    def setup(self, spec, p):
        powers = tuple(_real(v, "power") for v in _items(p.get("powers"), "powers"))
        if min(powers) <= 0:
            raise ParameterError(f"iid-channel powers must be positive (NMSE divides by each), got {min(powers)!r}")
        mults = tuple(_integer(m, "multiplicity", 1) for m in _items(p.get("multiplicities"), "multiplicities"))
        if len(powers) != len(mults):
            raise ParameterError("iid-channel needs matching powers and multiplicities")
        if sum(mults) > spec.n_dim:
            raise ParameterError("total source antennas must not exceed N")
        pdiag = np.repeat(powers, mults)
        return SimpleNamespace(powers=powers, mults=mults, pdiag=pdiag, scale=np.sqrt(pdiag)[:, None], sigma=_snr_sigma(p))

    def draw_into(self, spec, s, g, y, chunk=None):
        # channel entries have variance 1/N so receive power stays bounded in N
        h = _normals(spec.n_dim, s.pdiag.size, g, chunk) / math.sqrt(spec.n_dim)
        x = _normals(s.pdiag.size, spec.n_samples, g, chunk)
        return _noise_into(y, g, chunk, s.sigma, h @ (s.scale * x))

    def binding(self, spec):
        return PowerNmseBinding()


class DoaModel(ObservationModel):
    """y(t) = sum_k s(theta_k) x_k(t) + sigma w(t) on a ULA of N sensors
    ``spacing`` half-wavelengths apart (default 1)."""

    params = ("angles_deg", "snr_db", "spacing")

    def setup(self, spec, p):
        angles = tuple(_real(a, "angle") for a in _items(p.get("angles_deg"), "doa angles_deg"))
        model = SteeringModel(spec.n_dim, _real(p.get("spacing", 1.0), "spacing"))
        return SimpleNamespace(angles=angles, model=model, steering=steering_matrix(model, angles), sigma=_snr_sigma(p))

    def draw_into(self, spec, s, g, y, chunk=None):
        x = _normals(len(s.angles), spec.n_samples, g, chunk)
        return _noise_into(y, g, chunk, s.sigma, s.steering @ x)

    def binding(self, spec):
        return DoaResolutionBinding()


class FailureModel(ObservationModel):
    """Whitened network observations T^(-1/2) x(t) with an optional variance change
    ``alpha`` on parameter ``failed_index``; the network H in T = HH^H + noise_var I
    is drawn once per scenario (reserved stream), and with it the localizable
    failure hypotheses and their fluctuation stats, so they stay fixed across trials;
    ``far`` is the false-alarm rate of the default binding."""

    params = ("n_params", "failed_index", "alpha", "noise_var", "far")

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

    def draw_into(self, spec, s, g, y, chunk=None):
        theta = _normals(s.n_params, spec.n_samples, g, chunk)
        return s.inv_sqrt @ _noise_into(y, g, chunk, math.sqrt(s.noise_var), s.network @ (s.gain * theta))

    def binding(self, spec):
        return FailureBinding(_real(spec.params.get("far", 1e-2), "far"))


MODELS = {"mp-null": MpNullModel(), "masses": MassesModel(), "spike": SpikeModel(),
          "iid-channel": IidChannelModel(), "doa": DoaModel(), "failure": FailureModel()}
KINDS = tuple(MODELS)


@dataclass(frozen=True)
class ScenarioSpec:
    """One frozen Monte-Carlo experiment; ``params`` stay as given and
    ``state`` holds their validated scenario-level form.  A params key the
    kind's model does not read is refused."""

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
        model = MODELS[self.kind]
        for key in self.params:
            if key not in model.params:
                raise ParameterError(f"unknown {self.kind} param {key!r}; its params are {', '.join(model.params)}")
        state = model.setup(self, self.params)
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
        for key in raw:
            if key not in (*keys, "params"):
                raise ParameterError(f"unknown scenario key {key!r}; a scenario has keys {', '.join(keys)} and params")
        return cls(raw["kind"], raw["N"], raw["n"], raw["trials"], raw["seed"], raw.get("params", {}))


def generate_trial(spec: ScenarioSpec, trial: int):
    """Y (N x n) of one trial and the scenario state it was drawn under, ``spec.state``."""
    if not (0 <= trial < spec.trials):
        raise ParameterError("trial index out of range")
    return MODELS[spec.kind].draw(spec, spec.state, spec.stream(trial).generator()), spec.state


@dataclass(frozen=True)
class McSummary:
    """One run's record columns (see :func:`run_monte_carlo`) and aggregates,
    with the BLAS thread count its blocks ran at (None when this numpy build
    could not be pinned) and its worker count; its ``seed_manifest`` adds the
    numpy and OpenBLAS builds and scipy's version."""

    spec: ScenarioSpec
    records: dict
    aggregates: dict
    runtime_s: float
    blas_threads: int | None
    workers: int

    @property
    def seed_manifest(self) -> dict:
        return {"seed": self.spec.seed, "streams": f"(seed, trial) for trial < {self.spec.trials}",
                "blas_threads": self.blas_threads, "workers": self.workers, **_blas_build()}


BLOCK_LANES = 2  # threads, the caller's included, that run a spectrum-only block's trials


def _run_block(args):
    """Record columns of one block of trials: the binding's ``per_block``, run
    pinned, each column an array with one row per trial."""
    spec, binding, trials = args
    with _pinned_blas():
        columns = binding.per_block(spec, trials)
    for name, column in columns.items():
        if not isinstance(column, np.ndarray) or column.shape[:1] != (len(trials),):
            raise ParameterError(f"record {name!r} of trials {trials[0]}-{trials[-1]} must be an array with "
                                 f"{len(trials)} rows, got {getattr(column, 'shape', type(column).__name__)}")
    return columns


def _layout(columns) -> dict:
    """Each column's dtype and the shape of one trial's value, as ``float64[2]``."""
    return {name: f"{column.dtype}{list(column.shape[1:])}" for name, column in columns.items()}


def run_monte_carlo(spec: ScenarioSpec, binding, workers: int = 1) -> McSummary:
    """Execute all trials of a scenario under a binding and reduce.

    The binding provides ``per_block(spec, trials) -> dict``, which returns a
    block's record columns, each an ndarray whose row i holds trial
    ``trials[i]``'s value (else :class:`ParameterError` names it), and
    ``reduce(spec, records) -> dict``.  Records are arrays with the trial axis
    first, row t holding trial t's value.  Trials run in blocks
    of consecutive indices, all of them in one block when serial and one block
    per pool task otherwise; the blocks' columns are joined in trial order, so
    aggregates do not depend on worker scheduling, and a block whose names,
    dtypes or row shapes differ from the first block's raises
    :class:`ParameterError` naming it.  Every block runs at the
    same pinned BLAS thread count, recorded in the summary with the worker
    count; ``workers`` must be an integer >= 1, and the pool starts no more
    processes than there are blocks.
    """
    workers = _integer(workers, "workers", 1)
    if not (hasattr(binding, "per_block") and hasattr(binding, "reduce")):
        raise ParameterError("binding must expose per_block and reduce")
    if getattr(binding, "kind", spec.kind) != spec.kind:
        raise ParameterError(f"binding for kind {binding.kind!r} is incompatible with {spec.kind!r}")
    t0 = time.perf_counter()
    trials = range(spec.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: keeps the pool off the import path

        size = max(1, spec.trials // (8 * workers))
        blocks = [(spec, binding, trials[t:t + size]) for t in trials[::size]]
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            parts = list(pool.map(_run_block, blocks))
        want = _layout(parts[0])
        for (_, _, block), part in zip(blocks, parts):
            if _layout(part) != want:  # else the join casts a dtype silently or fails unnamed
                raise ParameterError(f"trials {block[0]}-{block[-1]} record {_layout(part)}, "
                                     f"trials 0-{size - 1} {want}")
        records = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    else:
        records = _run_block((spec, binding, trials))
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


class _SpectrumBinding:
    """Base of the bindings that read only the sample spectra: ``per_block``
    maps the model's ``spectra`` of the block through ``per_spectra(spec,
    trials, spectra)``, each row the ascending eigenvalues of one trial."""

    def per_block(self, spec, trials):
        return self.per_spectra(spec, trials, MODELS[spec.kind].spectra(spec, spec.state, trials))


def _sample_eighs(spec, trials):
    """The eigenpairs of each trial's sample covariance, one trial at a time on
    the calling thread: the model's draw, as :func:`generate_trial` gives it,
    through :func:`~rmt.linalg.sample_eigh`."""
    model = MODELS[spec.kind]
    for t in trials:
        yield sample_eigh(model.draw(spec, spec.state, spec.stream(t).generator()))


class EigBinding(_SpectrumBinding):
    """Record each trial's sample-covariance spectrum (any kind): the block's spectra, uncopied."""

    def __init__(self, kind: str):
        self.kind = kind

    def per_spectra(self, spec, trials, spectra):
        return {"eigs": spectra}

    def reduce(self, spec, records):
        eigs = records["eigs"]
        return {"all_eigs": eigs.ravel(), "per_trial_max": eigs[:, -1], "per_trial_min": eigs[:, 0]}


class PowerNmseBinding(_SpectrumBinding):
    """Backs the fig4 experiment: i.i.d.-channel estimates vs classical cluster means.

    The classical route assumes n >> N and N >> M_k: cluster mean minus the
    noise level estimated from the N - M smallest eigenvalues.  Both run per block.
    """

    kind = "iid-channel"

    def per_spectra(self, spec, trials, spectra):
        if spec.n_samples <= spec.n_dim:
            raise ParameterError("i.i.d.-channel estimator requires n > N")
        clusters = ge.ClusterAssignment.top_ranges(spec.n_dim, spec.state.mults)
        noise = spec.n_dim - sum(spec.state.mults)
        noise_hat = spectra[:, :noise].mean(axis=1, keepdims=True) if noise else 0.0
        return {"g": ge._iid_channel_rows(spectra, spec.n_dim, spec.n_samples, clusters),
                "classical": ge._classical_rows(spectra, clusters) - noise_hat}

    def reduce(self, spec, records):
        powers = np.asarray(spec.state.powers)
        g, c = records["g"], records["classical"]
        nmse_g = np.mean((g - powers) ** 2, axis=0) / powers**2
        nmse_c = np.mean((c - powers) ** 2, axis=0) / powers**2
        return {
            "nmse_g": nmse_g,
            "nmse_classical": nmse_c,
            "nmse_g_db": 10 * np.log10(nmse_g),
            "nmse_classical_db": 10 * np.log10(nmse_c),
        }


class GEstimatorBinding(_SpectrumBinding):
    """Masses-kind: Eq-for-Eq comparison of the cluster-mean and G estimators, per block."""

    kind = "masses"

    def per_spectra(self, spec, trials, spectra):
        mults = spec.state.mults
        clusters = ge.ClusterAssignment.top_ranges(spec.n_dim, mults)
        # as `rmt estimate` does: a rank-deficient Gram (c > 1) has zeros that carry rounding below zero
        lam = np.clip(spectra, 0.0, None)
        return {"g": ge._g_rows(lam, spec.n_samples, clusters), "classical": ge._classical_rows(lam, clusters),
                "gap_aligned": ge._gap_aligned_rows(lam, mults)}

    def reduce(self, spec, records):
        values = np.asarray(spec.state.values)
        g, c = records["g"], records["classical"]
        return {
            "mse_g": np.mean((g - values) ** 2, axis=0),
            "mse_classical": np.mean((c - values) ** 2, axis=0),
            "mean_g": g.mean(axis=0),
            "mean_classical": c.mean(axis=0),
            "gap_aligned_rate": float(np.mean(records["gap_aligned"])),
        }


class DetectionRocBinding(_SpectrumBinding):
    """Backs the fig6 experiment: GLRT and condition-number statistics per trial
    under both hypotheses: noise only, read from the block's spectra, and a
    rank-one channel plus noise of the same level, drawn per trial."""

    kind = "mp-null"

    def per_spectra(self, spec, trials, spectra):
        # the alternative draws its channel, signal and noise from a stream of the trial's own
        records = {name: np.empty(len(trials)) for name in ("glrt_null", "glrt_alt", "cond_null", "cond_alt")}
        for i, trial in enumerate(trials):
            g = RngStream(spec.seed, trial + SETUP_STREAM).generator()
            h = complex_gaussian(spec.n_dim, 1, g)[:, 0]
            x = complex_gaussian(1, spec.n_samples, g)
            w = complex_gaussian(spec.n_dim, spec.n_samples, g)
            for side, eigs in (("null", spectra[i]), ("alt", sample_spectrum(h[:, None] * x + spec.state.sigma * w))):
                records[f"glrt_{side}"][i] = sp.glrt_statistic(eigs)
                records[f"cond_{side}"][i] = sp.condition_number_statistic(eigs)
        return records

    def reduce(self, spec, records):
        return dict(records)

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

    def per_block(self, spec, trials):
        s = spec.state
        true = np.sort(np.asarray(s.angles))
        resolved = {method: np.zeros(len(trials), bool) for method in ("music", "gmusic")}
        for i, eig in enumerate(_sample_eighs(spec, trials)):
            for method, column in resolved.items():
                # only the (sorted) angles are read: a 3-point search range samples no cost curve
                got = np.asarray(_doa_from_eigh(eig, spec.n_samples, true.size, s.model, (-90.0, 0.0, 90.0),
                                                method).angles)
                column[i] = got.size == true.size and np.all(np.abs(got - true) <= self.window)
        return resolved

    def reduce(self, spec, records):
        return {f"{method}_resolution_rate": float(np.mean(records[method])) for method in ("music", "gmusic")}


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

    def per_block(self, spec, trials):
        s = spec.state
        side = -1 if s.alpha > 0 else 0
        standardize = sp.tw_standardize if side else sp.tw_standardize_smallest
        detected, localized = np.zeros(len(trials), bool), np.zeros(len(trials), bool)
        for i, eig in enumerate(_sample_eighs(spec, trials)):
            lam = float(eig.eigenvalues[side])
            detected[i] = standardize(lam, spec.n_dim, spec.ratio) > self.threshold
            if detected[i] and s.hypotheses:
                best, _ = sp.localize_failure(lam, eig.eigenvectors[:, side], s.hypotheses, s.stats)
                localized[i] = s.hypotheses[best].index == s.failed
        return {"detected": detected, "localized": localized}

    def reduce(self, spec, records):
        out = {"detection_rate": float(np.mean(records["detected"]))}
        if spec.state.failed is not None:
            out["localization_rate"] = float(np.mean(records["localized"]))
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
    eig, out = sample_eigh(y), {}
    for method in ("music", "gmusic"):
        res = _doa_from_eigh(eig, spec.n_samples, len(spec.state.angles), spec.state.model, grid, method)
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
    none or the build could not be pinned), the numpy and OpenBLAS builds and
    scipy's version.
    The curve step runs at that pinned count too.  The seed must lie in [0, 2**64 - 1] even when the
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
                         "blas_threads": runs[-1].blas_threads if runs else None, **_blas_build(),
                         "specs": [json.loads(spec.to_json()) for spec in specs],
                         "bindings": [type(binding).__name__ for binding in bindings]}, **curves}
