"""Outside-in tracing of rmt's public functions.

A :class:`Tracer` keeps timing spans (name, start, end, parent, phase) in
memory.  :func:`instrument_rmt` replaces each public function of the seven
rmt modules with a wrapper that opens a span around the call, everywhere the
function object can be looked up: its own module, every rmt module that
imported it with ``from .x import f``, and the binding classes' methods.  The
numpy eigensolvers that rmt calls are wrapped as ``linalg.numpy.*`` spans so
that every eigensolve lands in the linalg layer.  Nothing under ``src/`` is
changed; spans in pool worker processes are not collected.

Span names are ``<layer>.<function>``; the layer is the rmt module name, or
``bench`` for the benchmark's own root span around each operation.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

LAYERS = ("linalg", "stieltjes", "gestimation", "spikes", "doa", "simulate", "cli")

# linalg's matrix-file round trips stay unwrapped: parsing input files is
# counted as cli self time, as the CLI's own work.
_UNWRAPPED = {"linalg": {"save_matrix_csv", "load_matrix_csv", "save_matrix_bin", "load_matrix_bin"}}
_BINDING_METHODS = ("prepare", "per_trial", "reduce")


class Tracer:
    """In-memory span recorder for one process.

    ``phase`` labels every span opened while it is set, so set-up, timed and
    checking work can be told apart afterwards.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase]
        self.notes = []  # (phase, key, value)
        self.phase = "setup"
        self._stack = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def note(self, key: str, value) -> None:
        self.notes.append((self.phase, key, value))

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(tracer, args, result, exc)``
        runs after the call to record counters from the public return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            finally:
                self.exit(index)
            if observe is not None:
                observe(self, args, result, None)
            return result

        return traced

    def self_times(self) -> list:
        """Per-span self time, aligned with ``spans``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path) -> None:
        """Write one gzipped JSON line per span: [name, start, end, parent, phase];
        ``parent`` is the 0-based line number of the enclosing span, or -1."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- counters read from public return values ---------------------------------


def _observe_iterations(tracer, args, result, exc):
    source = result if exc is None else exc
    iterations = getattr(source, "iterations", None)
    if iterations is not None:
        tracer.note("stieltjes.iterations", int(iterations))


def _observe_density(tracer, args, result, exc):
    if exc is None:
        tracer.note("stieltjes.points", int(len(result.grid) + len(result.skipped)))
        tracer.note("stieltjes.skipped", len(result.skipped))


def _observe_clusters(tracer, args, result, exc):
    if exc is None:
        tracer.note("gestimation.gap_aligned", bool(result.gap_aligned))


def _observe_doa(tracer, args, result, exc):
    if exc is None:
        tracer.note("doa.complete", bool(result.complete))


def _observe_prepare(tracer, args, result, exc):
    if exc is None:
        spec = args[1]
        usable = result[0]
        tracer.note("spikes.usable", len(usable))
        tracer.note("spikes.hypotheses", int(spec.params["n_params"]))


def _observe_gram(tracer, args, result, exc):
    if exc is None:
        n_dim, n_samples = args[0].shape
        tracer.note("linalg.gram_flops", 8 * n_dim * n_dim * n_samples)


_OBSERVERS = {
    "stieltjes.solve_companion_stieltjes": _observe_iterations,
    "stieltjes.density_from_stieltjes": _observe_density,
    "gestimation.clusters_from_gaps": _observe_clusters,
    "doa.estimate_doa": _observe_doa,
    "simulate.FailureBinding.prepare": _observe_prepare,
    "linalg.sample_covariance": _observe_gram,
}


def instrument_rmt(tracer: Tracer) -> None:
    """Wrap rmt's public functions, the bindings' methods and the numpy eigensolvers."""
    modules = {layer: importlib.import_module(f"rmt.{layer}") for layer in LAYERS}
    targets = {}  # original function -> span name
    for layer, mod in modules.items():
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for attr in names:
            obj = getattr(mod, attr, None)
            if attr in _UNWRAPPED.get(layer, ()):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets[obj] = f"{layer}.{attr}"
    targets[modules["spikes"].default_tw_table] = "spikes.default_tw_table"
    targets[modules["cli"].main] = "cli.main"

    wrappers = {fn: tracer.wrap(fn, name, _OBSERVERS.get(name)) for fn, name in targets.items()}
    rmt_modules = [m for n, m in sys.modules.items() if n == "rmt" or n.startswith("rmt.")]
    for mod in rmt_modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])

    sim = modules["simulate"]
    for cls_name in sim.__all__:
        cls = getattr(sim, cls_name)
        if not inspect.isclass(cls):
            continue
        for meth in _BINDING_METHODS:
            fn = cls.__dict__.get(meth)
            if inspect.isfunction(fn):
                name = f"simulate.{cls_name}.{meth}"
                setattr(cls, meth, tracer.wrap(fn, name, _OBSERVERS.get(name)))

    for solver in ("eigh", "eigvalsh"):
        setattr(np.linalg, solver, tracer.wrap(getattr(np.linalg, solver), f"linalg.numpy.{solver}"))


# --- per-layer summary ----------------------------------------------------------

# every eigensolve ends in a numpy call; hermitian_eig adds its Hermitian check
SOLVER_SPANS = ("linalg.numpy.eigh", "linalg.numpy.eigvalsh")
EIG_SPANS = ("linalg.hermitian_eig",) + SOLVER_SPANS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, units: int, ops: int, phase_s: float) -> dict:
    """Per-layer numbers from the spans of one traced run.

    Times per unit of work (a Monte-Carlo trial, or a CLI request) come from
    the ``timed`` phase; ``*_s`` set-up numbers come from the ``setup`` phase.
    A metric reads 0 where its layer did no such work in this workload.
    """
    self_t = tracer.self_times()
    timed_self, timed_incl, timed_calls = {}, {}, {}
    setup_self, setup_incl, setup_calls = {}, {}, {}
    for (name, start, end, _, phase), s in zip(tracer.spans, self_t):
        if phase == "timed":
            bucket = (timed_self, timed_incl, timed_calls)
        elif phase == "setup":
            bucket = (setup_self, setup_incl, setup_calls)
        else:
            continue
        bucket[0][name] = bucket[0].get(name, 0.0) + s
        bucket[1][name] = bucket[1].get(name, 0.0) + (end - start)
        bucket[2][name] = bucket[2].get(name, 0) + 1

    def self_sum(names, table=timed_self):
        return sum((table.get(n, 0.0) for n in names), 0.0)

    def per_call(name, table, calls):
        return _ratio(table.get(name, 0.0), calls.get(name, 0))

    def notes(key, phase="timed"):
        return [v for p, k, v in tracer.notes if k == key and p == phase]

    def layer_self(layer):
        return sum(v for n, v in timed_self.items() if n.split(".", 1)[0] == layer)

    per_unit_ms = 1e3 / units if units else 0.0
    binding_calls = [n for n in timed_self if n.startswith("simulate.") and n.endswith(".per_trial")]
    reduce_calls = [n for n in timed_self if n.startswith("simulate.") and n.endswith(".reduce")]
    prepare_spans = [n for n in setup_incl if n.startswith("simulate.") and n.endswith(".prepare")]
    gram_s = timed_self.get("linalg.sample_covariance", 0.0)
    iterations = notes("stieltjes.iterations")
    points = sum(notes("stieltjes.points"))
    density_calls = timed_calls.get("stieltjes.density_from_stieltjes", 0)
    estimate_requests = timed_calls.get("gestimation.g_estimate", 0)
    doa_calls = timed_calls.get("doa.estimate_doa", 0)
    aligned = notes("gestimation.gap_aligned")
    complete = notes("doa.complete")
    usable = sum(notes("spikes.usable", "setup"))
    hypotheses = sum(notes("spikes.hypotheses", "setup"))
    calib_ok = setup_calls.get("spikes.calibrate_fluctuations", 0)
    glue = timed_self.get("bench.op", 0.0)

    out = {f"{layer}.self_ms": layer_self(layer) * per_unit_ms for layer in LAYERS}
    out.update({
        "linalg.draw_ms": self_sum(("linalg.complex_gaussian", "linalg.haar_unitary")) * per_unit_ms,
        "linalg.gram_ms": gram_s * per_unit_ms,
        "linalg.eig_ms": self_sum(EIG_SPANS) * per_unit_ms,
        "linalg.gram_gflops": _ratio(sum(notes("linalg.gram_flops")), gram_s) / 1e9,
        "linalg.eig_calls_per_trial": _ratio(sum(timed_calls.get(n, 0) for n in SOLVER_SPANS), units),
        "linalg.setup_eig_s": self_sum(EIG_SPANS, setup_self),
        "simulate.generate_trial_ms": timed_self.get("simulate.generate_trial", 0.0) * per_unit_ms,
        "simulate.per_trial_ms": self_sum(binding_calls) * per_unit_ms,
        "simulate.prepare_s": self_sum(prepare_spans, setup_incl),
        "simulate.reduce_ms": _ratio(self_sum(reduce_calls), ops) * 1e3,
        "spikes.calibrate_s": _ratio(setup_incl.get("spikes.calibrate_fluctuations", 0.0), calib_ok),
        "spikes.usable_hypotheses_ratio": _ratio(usable, hypotheses),
        "spikes.localize_us": per_call("spikes.localize_failure", timed_self, timed_calls) * 1e6,
        "spikes.tw_lookup_us": per_call("spikes.tracy_widom", timed_self, timed_calls) * 1e6,
        "spikes.tw_quantile_ms": per_call("spikes.tw_quantile", timed_incl, timed_calls) * 1e3,
        "stieltjes.point_us": _ratio(timed_incl.get("stieltjes.density_from_stieltjes", 0.0), points) * 1e6,
        "stieltjes.solver_iters_p50": float(statistics.median(iterations)) if iterations else 0.0,
        "stieltjes.solver_iters_max": float(max(iterations)) if iterations else 0.0,
        "stieltjes.skipped_points": _ratio(sum(notes("stieltjes.skipped")), density_calls),
        "gestimation.estimate_ms": _ratio(
            timed_incl.get("gestimation.clusters_from_gaps", 0.0) + timed_incl.get("gestimation.g_estimate", 0.0),
            estimate_requests) * 1e3,
        "gestimation.separation_ms": per_call("gestimation.separation_warnings", timed_incl, timed_calls) * 1e3,
        "gestimation.gap_aligned_ratio": _ratio(sum(aligned), len(aligned)),
        "doa.steering_ms": _ratio(timed_self.get("doa.steering_matrix", 0.0), doa_calls) * 1e3,
        "doa.weights_ms": _ratio(timed_incl.get("doa.gmusic_weights", 0.0), doa_calls) * 1e3,
        "doa.cost_ms": _ratio(timed_self.get("doa.weighted_cost", 0.0), doa_calls) * 1e3,
        "doa.complete_ratio": _ratio(sum(complete), len(complete)),
        "trace.unattributed_ratio": _ratio(glue, phase_s),
    })
    out["trace.self_sum_error"] = _ratio(abs(sum(timed_self.values()) - phase_s), phase_s)
    return out
