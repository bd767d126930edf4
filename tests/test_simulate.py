import dataclasses
import inspect
import json
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rmt.doa import estimate_doa
from rmt.errors import ParameterError
from rmt.gestimation import (ClusterAssignment, classical_estimate, clusters_from_gaps, g_estimate,
                             power_estimate_iid_channel)
import rmt.linalg as linalg
import rmt.simulate as simulate
from rmt.linalg import (RngStream, _eigvalsh_into, _numpy_openblas, _pinned_blas, complex_gaussian, haar_unitary,
                        sample_covariance, sample_eigh, sample_spectrum)
from rmt.spikes import (condition_number_statistic, glrt_statistic, glrt_test, localize_failure, tw_standardize,
                        tw_standardize_smallest)
from rmt.simulate import (
    BLOCK_BLAS_THREADS,
    FIGURE_IDS,
    FIGURES,
    MODELS,
    SETUP_STREAM,
    DetectionRocBinding,
    DoaResolutionBinding,
    EigBinding,
    FailureBinding,
    GEstimatorBinding,
    PowerNmseBinding,
    ScenarioSpec,
    generate_trial,
    histogram,
    reproduce_figure,
    run_monte_carlo,
)

MASSES = ScenarioSpec("masses", 30, 120, 4, seed=5, params={"atoms": [(1.0, 10), (3.0, 10), (7.0, 10)]})


# --- scenario plumbing -----------------------------------------------------------


def test_spec_json_roundtrip():
    text = MASSES.to_json()
    back = ScenarioSpec.from_json(text)
    assert back == ScenarioSpec(
        "masses", 30, 120, 4, 5, {"atoms": [[1.0, 10], [3.0, 10], [7.0, 10]]}
    ) or back == MASSES
    assert json.loads(text)["kind"] == "masses"


def test_spec_validation():
    with pytest.raises(ParameterError):
        ScenarioSpec("bogus", 4, 8, 1, 0)
    with pytest.raises(ParameterError):
        ScenarioSpec("masses", 10, 20, 1, 0, {"atoms": [(1.0, 4)]})  # mults must sum to N
    with pytest.raises(ParameterError):
        ScenarioSpec("iid-channel", 8, 16, 1, 0, {"powers": [1.0], "multiplicities": [4]})
    with pytest.raises(ParameterError):
        ScenarioSpec("failure", 8, 16, 1, 0, {"n_params": 4, "failed_index": 9})


def test_spec_refuses_malformed_params():
    bad = [
        ("masses", {"atoms": [(1.0, "a"), (3.0, 6)]}),  # non-numeric multiplicity
        ("masses", {"atoms": [(1.0, -2), (3.0, 12)]}),  # negative multiplicity
        ("masses", {"atoms": [(1.0, 5.5), (3.0, 4.5)]}),  # fractional multiplicity
        ("spike", {"omegas": ["2"]}),
        ("spike", {"omegas": [float("nan")]}),
        ("iid-channel", {"powers": [1.0], "multiplicities": [True], "snr_db": 0.0}),
        ("iid-channel", {"powers": [0.0, 1.0], "multiplicities": [2, 2], "snr_db": 0.0}),  # NMSE divides by each power
        ("doa", {"angles_deg": [10.0], "snr_db": "high"}),
        ("mp-null", {"snr_db": float("inf")}),
    ]
    for kind, params in bad:
        with pytest.raises(ParameterError):
            ScenarioSpec(kind, 10, 20, 1, 0, params)
    with pytest.raises(ParameterError, match="alias"):
        ScenarioSpec("doa", 10, 20, 1, 0, {"angles_deg": [10.0], "snr_db": 0.0, "spacing": 1.5})
    with pytest.raises(ParameterError):
        ScenarioSpec("mp-null", 4, 8, 1, -1)  # RngStream needs an unsigned seed
    with pytest.raises(ParameterError):
        ScenarioSpec("mp-null", 4, 8.5, 1, 0)
    with pytest.raises(ParameterError):
        ScenarioSpec("mp-null", 4, 8, 1, 0, params=[("snr_db", 0.0)])


def test_spec_refuses_keys_it_would_not_read():
    # each was dropped without a word, so the run used the default in its place
    for kind, params in [("mp-null", {"snr": 0.0}), ("masses", {"atoms": [(1.0, 10)], "mults": [10]}),
                         ("spike", {"omegas": [2.0], "omega": [3.0]}),
                         ("iid-channel", {"powers": [1.0], "multiplicities": [2], "snr_db": 0.0, "snrdb": 3.0}),
                         ("doa", {"angles_deg": [10.0], "snr_db": 0.0, "spacing_": 0.5}),
                         ("failure", {"n_params": 4, "alpah": 1.0})]:
        bad = next(key for key in params if key not in MODELS[kind].params)
        with pytest.raises(ParameterError, match=f"unknown {kind} param {bad!r}"):
            ScenarioSpec(kind, 10, 40, 1, 0, params)
    doc = json.loads(ScenarioSpec("mp-null", 4, 8, 1, 0).to_json())
    for key in ("trails", "param"):
        with pytest.raises(ParameterError, match=f"unknown scenario key {key!r}"):
            ScenarioSpec.from_json(json.dumps(dict(doc, **{key: 1})))


# per kind: N, n, a base params under which every param the kind reads matters, and another value for each
PARAM_CASES = {
    "mp-null": (6, 12, {"snr_db": 0.0}, {"snr_db": 20.0}),
    "masses": (6, 12, {"atoms": [[1.0, 3], [4.0, 3]]}, {"atoms": [[1.0, 3], [5.0, 3]]}),
    "spike": (6, 12, {"omegas": [2.0]}, {"omegas": [3.0]}),
    "iid-channel": (6, 12, {"powers": [0.5, 2.0], "multiplicities": [1, 2], "snr_db": 6.0},
                    {"powers": [0.5, 3.0], "multiplicities": [2, 1], "snr_db": 3.0}),
    "doa": (6, 12, {"angles_deg": [-20.0, 40.0], "snr_db": 3.0, "spacing": 0.8},
            {"angles_deg": [-20.0, 30.0], "snr_db": 6.0, "spacing": 0.5}),
    "failure": (6, 24, {"n_params": 4, "failed_index": 1, "alpha": -0.5, "noise_var": 1.0, "far": 0.01},
                {"n_params": 5, "failed_index": 2, "alpha": -0.3, "noise_var": 2.0, "far": 0.5}),
}


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, model in MODELS.items() for name in model.params])
def test_every_scenario_param_acts(kind, name):
    # a param that ScenarioSpec accepts but nothing reads would leave the run as it was
    n_dim, n_samples, base, other = PARAM_CASES[kind]
    assert set(base) == set(other) == set(MODELS[kind].params)
    specs = [ScenarioSpec(kind, n_dim, n_samples, 20, 8, params) for params in (base, {**base, name: other[name]})]
    if np.array_equal(generate_trial(specs[0], 0)[0], generate_trial(specs[1], 0)[0]):
        base_agg, other_agg = (run_monte_carlo(spec, MODELS[kind].binding(spec)).aggregates for spec in specs)
        assert base_agg.keys() != other_agg.keys() or any(
            not np.array_equal(base_agg[key], other_agg[key]) for key in base_agg), name


def test_failure_index_must_be_an_integer():
    # int() used to truncate 1.5 in every draw, so no localization could match it
    for idx in (1.5, True, "1"):
        with pytest.raises(ParameterError):
            ScenarioSpec("failure", 8, 16, 1, 0, {"n_params": 2, "failed_index": idx})
    spec = ScenarioSpec("failure", 8, 16, 1, 0, {"n_params": 2, "failed_index": np.int64(1)})
    assert spec.state.failed == 1


def test_trials_never_reach_the_reserved_stream():
    ScenarioSpec("mp-null", 4, 8, SETUP_STREAM, 0)
    with pytest.raises(ParameterError):
        ScenarioSpec("mp-null", 4, 8, SETUP_STREAM + 1, 0)


def test_generate_trial_shapes_and_determinism():
    for spec in (
        ScenarioSpec("mp-null", 6, 11, 2, 3),
        MASSES,
        ScenarioSpec("spike", 12, 9, 2, 3, {"omegas": [2.0, 1.0]}),
        ScenarioSpec("iid-channel", 12, 24, 2, 3, {"powers": [1.0], "multiplicities": [4], "snr_db": 10.0}),
        ScenarioSpec("doa", 10, 40, 2, 3, {"angles_deg": [35.0, 37.0], "snr_db": 10.0}),
        ScenarioSpec("failure", 8, 30, 2, 3, {"n_params": 8, "alpha": -1.0, "failed_index": 0}),
    ):
        y1, state = generate_trial(spec, 0)
        assert y1.shape == (spec.n_dim, spec.n_samples)
        y2, _ = generate_trial(spec, 0)
        assert np.array_equal(y1, y2)
        y3, _ = generate_trial(spec, 1)
        assert not np.array_equal(y1, y3)
        assert state is spec.state


# y[0, 0], y[-1, -1], y[2, 3] of trial 1, as drawn before the observation models became classes
REFERENCE_DRAWS = [
    (ScenarioSpec("mp-null", 5, 7, 2, 21), [
        0.6738928155510209 - 0.2989904930947202j, -0.13642356945774456 + 0.8656946943279196j,
        -0.7549485741141436 + 0.14958912520226025j]),
    (ScenarioSpec("masses", 6, 9, 2, 22, {"atoms": [(1.0, 3), (4.0, 3)]}), [
        0.6267073182923413 + 0.2927418777969838j, -1.3496913324296553 + 0.43433927500841046j,
        -0.3619538654191004 + 0.7341323371955129j]),
    (ScenarioSpec("spike", 6, 9, 2, 23, {"omegas": [3.0, 0.5]}), [
        1.4971614696663826 - 1.4850077253127292j, 0.8620988353000689 + 1.04602869033385j,
        1.0521601674562324 - 1.4409351591526829j]),
    (ScenarioSpec("iid-channel", 6, 9, 2, 24, {"powers": [0.5, 2.0], "multiplicities": [1, 2], "snr_db": 6.0}), [
        -1.6386908562748215 - 0.8321086595276938j, -0.9677762529117802 - 0.40082870110712565j,
        -1.0431805863124681 + 0.7568482814359264j]),
    (ScenarioSpec("doa", 6, 9, 2, 25, {"angles_deg": [-20.0, 40.0], "snr_db": 3.0, "spacing": 0.8}), [
        0.18499577979477735 - 0.011343992633658317j, 1.2548022625676993 + 0.07363515630912451j,
        0.7623367804896188 - 0.5425668209688274j]),
    (ScenarioSpec("failure", 6, 9, 2, 26, {"n_params": 4, "alpha": 0.5, "failed_index": 3, "noise_var": 2.0}), [
        0.2404434915688139 + 0.4636007106965776j, -0.8730930572508836 + 0.35265550161282266j,
        0.9671581324669034 + 0.4952340290452599j]),
]


@pytest.mark.parametrize("spec, want", REFERENCE_DRAWS, ids=[s.kind for s, _ in REFERENCE_DRAWS])
def test_generate_trial_matches_reference_draws(spec, want):
    y, _ = generate_trial(spec, 1)
    got = np.array([y[0, 0], y[-1, -1], y[2, 3]])
    want = np.array(want, dtype=complex)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _draw_oracle(spec, g):
    """Each kind's Y as its draw computed it before the draws wrote Y in place:
    the same streams, in the same order, as one expression per kind."""
    s, n_dim, n = spec.state, spec.n_dim, spec.n_samples
    if spec.kind == "mp-null":
        return complex_gaussian(n_dim, n, g) if s.scale is None else s.sigma * complex_gaussian(n_dim, n, g)
    if spec.kind == "masses":
        u = haar_unitary(n_dim, g)
        return u @ (s.scale * complex_gaussian(n_dim, n, g))
    if spec.kind == "spike":
        return s.scale * complex_gaussian(n_dim, n, g)
    if spec.kind == "iid-channel":
        h = complex_gaussian(n_dim, s.pdiag.size, g) / np.sqrt(n_dim)
        x = complex_gaussian(s.pdiag.size, n, g)
        return h @ (s.scale * x) + s.sigma * complex_gaussian(n_dim, n, g)
    if spec.kind == "doa":
        x = complex_gaussian(len(s.angles), n, g)
        return s.steering @ x + s.sigma * complex_gaussian(n_dim, n, g)
    theta = complex_gaussian(s.n_params, n, g)
    x = s.network @ (s.gain * theta) + np.sqrt(s.noise_var) * complex_gaussian(n_dim, n, g)
    return s.inv_sqrt @ x


DRAW_SPECS = [
    ScenarioSpec("mp-null", 7, 5000, 2, 31),  # 7 rows, 3 to a draw chunk
    ScenarioSpec("mp-null", 10, 24, 2, 31, {"snr_db": 20.0}),
    ScenarioSpec("masses", 12, 40, 2, 32, {"atoms": [(1.0, 6), (4.0, 6)]}),
    ScenarioSpec("masses", 5, 3, 2, 32, {"atoms": [(0.5, 2), (2.0, 3)]}),  # c > 1
    ScenarioSpec("spike", 9, 3000, 2, 33, {"omegas": [3.0, 1.0]}),
    ScenarioSpec("iid-channel", 24, 128, 2, 34, {"powers": [0.5, 2.0], "multiplicities": [2, 2], "snr_db": 6.0}),
    ScenarioSpec("doa", 20, 150, 2, 35, {"angles_deg": [35.0, 37.0], "snr_db": 10.0, "spacing": 0.8}),
    ScenarioSpec("failure", 10, 24, 2, 36, {"n_params": 10, "alpha": -1.0, "failed_index": 0}),
    ScenarioSpec("failure", 6, 9, 2, 37, {"n_params": 4, "alpha": 0.5, "failed_index": 3, "noise_var": 2.0}),
]


@pytest.mark.parametrize("spec", DRAW_SPECS, ids=lambda spec: f"{spec.kind}-{spec.n_dim}x{spec.n_samples}")
def test_draws_equal_the_one_expression_per_kind_bit_for_bit(spec):
    for t in range(spec.trials):
        y, _ = generate_trial(spec, t)
        want = _draw_oracle(spec, spec.stream(t).generator())
        assert y.dtype == want.dtype and y.shape == want.shape and y.tobytes() == want.tobytes(), t


def test_a_paper_scale_masses_draw_holds_under_two_and_a_half_ys():
    # fig3's and `rmt estimate`'s 300 x 3000 masses Y: the (2, N, n) normals, the
    # complex Y, its scaled copy and U times it peaked at about 3.1 Y; filling
    # the scaled X in place leaves X and the product, about 2.1 Y
    spec = ScenarioSpec("masses", 300, 3000, 1, 3, {"atoms": [(1.0, 100), (3.0, 100), (7.0, 100)]})
    generate_trial(ScenarioSpec("masses", 6, 30, 1, 3, {"atoms": [(1.0, 3), (3.0, 3)]}), 0)  # first-call set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y, _ = generate_trial(spec, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * y.nbytes, peak / y.nbytes


@pytest.mark.parametrize("spec", DRAW_SPECS, ids=lambda spec: f"{spec.kind}-{spec.n_dim}x{spec.n_samples}")
def test_a_draw_takes_its_unscaled_gaussians_from_complex_gaussian(spec, monkeypatch):
    # a span recorder times the per-trial route's draws by wrapping complex_gaussian
    # wherever rmt binds it; only the lanes keep to its private fill
    calls = []

    def counted(n_rows, n_cols, rng):
        calls.append((n_rows, n_cols))
        return complex_gaussian(n_rows, n_cols, rng)

    for module in (linalg, simulate):
        monkeypatch.setattr(module, "complex_gaussian", counted)
    generate_trial(spec, 0)
    s, n_dim, n = spec.state, spec.n_dim, spec.n_samples
    want = {"mp-null": lambda: [(n_dim, n)], "masses": lambda: [(n_dim, n_dim)], "spike": lambda: [],
            "iid-channel": lambda: [(n_dim, s.pdiag.size), (s.pdiag.size, n)],
            "doa": lambda: [(len(s.angles), n)], "failure": lambda: [(s.n_params, n)]}[spec.kind]()
    assert calls == want


def test_iid_channel_power_bookkeeping():
    spec = ScenarioSpec(
        "iid-channel", 24, 2000, 6, 11,
        {"powers": [1 / 16, 1 / 4, 1.0], "multiplicities": [4, 4, 4], "snr_db": 10.0},
    )
    ratios = []
    for t in range(spec.trials):
        y, _ = generate_trial(spec, t)
        ratios.append(np.mean(np.abs(y) ** 2))
    expected = sum(4 * p for p in (1 / 16, 1 / 4, 1.0)) / 24 + 0.1
    assert abs(np.mean(ratios) - expected) < 0.05 * expected


# --- Monte-Carlo engine ------------------------------------------------------------


def test_run_monte_carlo_single_trial_equals_record():
    spec = ScenarioSpec("mp-null", 8, 16, 1, seed=2)
    summary = run_monte_carlo(spec, EigBinding("mp-null"))
    assert summary.records["eigs"].shape == (1, spec.n_dim)
    assert np.array_equal(summary.aggregates["all_eigs"], summary.records["eigs"][0])


def test_run_monte_carlo_worker_count_invariance():
    spec = ScenarioSpec("mp-null", 6, 12, 8, seed=13)
    one = run_monte_carlo(spec, EigBinding("mp-null"), workers=1)
    two = run_monte_carlo(spec, EigBinding("mp-null"), workers=2)
    assert np.array_equal(one.aggregates["all_eigs"], two.aggregates["all_eigs"])
    assert np.array_equal(one.aggregates["per_trial_max"], two.aggregates["per_trial_max"])


def _same_records(a, b):
    """Record columns equal bit for bit, in shape and dtype too."""
    return a.keys() == b.keys() and all(
        (a[k].shape, a[k].dtype) == (b[k].shape, b[k].dtype) and a[k].tobytes() == b[k].tobytes() for k in a)


@pytest.mark.parametrize("spec, binding", [
    (ScenarioSpec("masses", 12, 40, 37, 8, {"atoms": [(1.0, 6), (4.0, 6)]}), GEstimatorBinding()),
    (ScenarioSpec("spike", 9, 20, 37, 12, {"omegas": [3.0, 1.0]}), EigBinding("spike")),
], ids=["masses-gestimator", "spike-eig"])
def test_spectrum_binding_worker_count_invariance(spec, binding):
    # 37 trials reach two workers as blocks of two and a last block of one
    one = run_monte_carlo(spec, binding, workers=1)
    two = run_monte_carlo(spec, binding, workers=2)
    assert _same_records(one.records, two.records)
    assert one.aggregates.keys() == two.aggregates.keys()
    for key, value in one.aggregates.items():
        assert np.asarray(value).tobytes() == np.asarray(two.aggregates[key]).tobytes()


def test_failure_worker_count_invariance():
    # the scenario network and T^(-1/2) reach the workers inside the pickled spec
    spec = ScenarioSpec("failure", 6, 60, 8, 4, {"n_params": 6, "alpha": -1.0, "failed_index": 1})
    one = run_monte_carlo(spec, FailureBinding(far=1e-2), workers=1)
    two = run_monte_carlo(spec, FailureBinding(far=1e-2), workers=2)
    assert _same_records(one.records, two.records)
    assert one.aggregates == two.aggregates


@pytest.mark.parametrize("workers", [0, -3, True, 1.5], ids=["zero", "negative", "bool", "fraction"])
def test_bad_worker_counts_are_refused(workers):
    with pytest.raises(ParameterError, match="workers"):
        run_monte_carlo(ScenarioSpec("mp-null", 4, 8, 2, 0), EigBinding("mp-null"), workers)
    with pytest.raises(ParameterError, match="workers"):
        reproduce_figure("fig2", seed=0, workers=workers)  # runs no Monte Carlo


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs the
    blocks on this thread, so no process starts."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        return map(fn, blocks)


@pytest.mark.parametrize("trials, workers, processes", [(3, 64, 3), (5, 4, 4), (37, 2, 2)])
def test_pool_starts_no_more_processes_than_blocks(trials, workers, processes, monkeypatch):
    import concurrent.futures

    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: _InlinePool(sizes, max_workers))
    spec = ScenarioSpec("mp-null", 5, 9, trials, 6)
    pooled = run_monte_carlo(spec, EigBinding("mp-null"), workers)
    assert sizes == [processes] and pooled.workers == workers
    assert _same_records(pooled.records, run_monte_carlo(spec, EigBinding("mp-null")).records)


def test_run_monte_carlo_binding_compatibility():
    spec = ScenarioSpec("mp-null", 4, 8, 1, 0)
    with pytest.raises(ParameterError):
        run_monte_carlo(spec, PowerNmseBinding())
    with pytest.raises(ParameterError, match="per_block and reduce"):
        run_monte_carlo(spec, type("ReduceOnly", (), {"reduce": lambda self, spec, records: {}})())


def _spectrum_row(spec, binding, eigs):
    """One trial's values of a spectrum binding, from the public 1-d estimators
    as `rmt estimate` calls them."""
    if isinstance(binding, GEstimatorBinding):
        mults, eigs = spec.state.mults, np.clip(eigs, 0.0, None)
        clusters = clusters_from_gaps(eigs, mults)
        return {"g": g_estimate(eigs, spec.n_samples, clusters).values,
                "classical": classical_estimate(eigs, clusters).values, "gap_aligned": clusters.gap_aligned}
    if isinstance(binding, PowerNmseBinding):
        mults = spec.state.mults
        clusters = ClusterAssignment.top_ranges(spec.n_dim, mults)
        noise = spec.n_dim - sum(mults)
        noise_hat = float(np.mean(eigs[:noise])) if noise else 0.0
        return {"g": power_estimate_iid_channel(eigs, spec.n_samples, clusters).values,
                "classical": tuple(v - noise_hat for v in classical_estimate(eigs, clusters).values)}
    assert type(binding) is EigBinding
    return {"eigs": eigs}


def _detection_row(spec, trial):
    """fig6's four statistics of one trial: the null on generate_trial's Y, the
    alternative on a rank-one channel plus noise drawn from the trial's stream
    above SETUP_STREAM."""
    g = RngStream(spec.seed, trial + SETUP_STREAM).generator()
    h = complex_gaussian(spec.n_dim, 1, g)[:, 0]
    x = complex_gaussian(1, spec.n_samples, g)
    w = complex_gaussian(spec.n_dim, spec.n_samples, g)
    e_null = sample_spectrum(generate_trial(spec, trial)[0])
    e_alt = sample_spectrum(h[:, None] * x + spec.state.sigma * w)
    return {"glrt_null": glrt_statistic(e_null), "glrt_alt": glrt_statistic(e_alt),
            "cond_null": condition_number_statistic(e_null), "cond_alt": condition_number_statistic(e_alt)}


def _failure_row(spec, trial, threshold):
    """fig8's flags of one trial, from the extreme eigenpair of generate_trial's Y."""
    s, eig = spec.state, sample_eigh(generate_trial(spec, trial)[0])
    side = -1 if s.alpha > 0 else 0
    lam = float(eig.eigenvalues[side])
    standardize = tw_standardize if side else tw_standardize_smallest
    detected = standardize(lam, spec.n_dim, spec.ratio) > threshold
    localized = False
    if detected and s.hypotheses:
        best, _ = localize_failure(lam, eig.eigenvectors[:, side], s.hypotheses, s.stats)
        localized = s.hypotheses[best].index == s.failed
    return {"detected": detected, "localized": localized}


def _doa_row(spec, trial, window):
    """fig5's flags of one trial: each method's estimate_doa on generate_trial's Y."""
    y, true, row = generate_trial(spec, trial)[0], np.sort(spec.state.angles), {}
    for method in ("music", "gmusic"):
        got = np.sort(estimate_doa(y, true.size, spec.state.model, (-90.0, 0.0, 90.0), method).angles)
        row[method] = bool(got.size == true.size and np.all(np.abs(got - true) <= window))
    return row


def _trial_by_trial(spec, binding):
    """The binding's dict of every trial, made one trial at a time outside the
    engine from the public functions: fig5, fig6 and fig8's on generate_trial's
    Y, a spectrum binding's values from the public estimators on its
    sample_spectrum.  masses' spectra hook skips the Haar rotation, which
    moves the spectrum at rounding level, so there the spectrum is the
    unrotated Y's."""
    rows = []
    with _pinned_blas():
        for t in range(spec.trials):
            if isinstance(binding, DetectionRocBinding):
                rows.append(_detection_row(spec, t))
            elif isinstance(binding, FailureBinding):
                rows.append(_failure_row(spec, t, binding.threshold))
            elif isinstance(binding, DoaResolutionBinding):
                rows.append(_doa_row(spec, t, binding.window))
            elif spec.kind == "masses":
                g = spec.stream(t).generator()
                haar_unitary(spec.n_dim, g)
                y = spec.state.scale * complex_gaussian(spec.n_dim, spec.n_samples, g)
                rows.append(_spectrum_row(spec, binding, sample_spectrum(y)))
            else:
                rows.append(_spectrum_row(spec, binding, sample_spectrum(generate_trial(spec, t)[0])))
    return rows


MIXED_GAPS = ScenarioSpec("masses", 12, 40, 37, 77, {"atoms": [(1.0, 6), (4.0, 6)]})


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec, binding", [
    (ScenarioSpec("mp-null", 5, 9, 37, 61), EigBinding("mp-null")),
    (ScenarioSpec("masses", 12, 40, 37, 62, {"atoms": [(1.0, 6), (4.0, 6)]}), GEstimatorBinding()),
    (ScenarioSpec("masses", 12, 40, 37, 62, {"atoms": [(1.0, 6), (4.0, 6)]}), EigBinding("masses")),
    (ScenarioSpec("spike", 9, 20, 37, 63, {"omegas": [3.0, 1.0]}), EigBinding("spike")),
    (ScenarioSpec("iid-channel", 12, 40, 37, 64, {"powers": [0.5, 2.0], "multiplicities": [2, 2], "snr_db": 6.0}),
     PowerNmseBinding()),
    (ScenarioSpec("doa", 10, 40, 37, 65, {"angles_deg": [20.0, 35.0], "snr_db": 5.0}), DoaResolutionBinding()),
    (ScenarioSpec("failure", 6, 20, 37, 66, {"n_params": 6, "alpha": -1.0, "failed_index": 1}), FailureBinding(0.1)),
    (ScenarioSpec("mp-null", 4, 8, 37, 67, {"snr_db": 0.0}), DetectionRocBinding()),
    (MIXED_GAPS, GEstimatorBinding()),
    (ScenarioSpec("masses", 12, 40, 37, 68, {"atoms": [(2.0, 12)]}), GEstimatorBinding()),
    (ScenarioSpec("masses", 40, 10, 37, 69, {"atoms": [(1e6, 20), (3e6, 20)]}), GEstimatorBinding()),
    (ScenarioSpec("iid-channel", 12, 40, 37, 70, {"powers": [0.5, 2.0], "multiplicities": [6, 6], "snr_db": 6.0}),
     PowerNmseBinding()),
    (ScenarioSpec("doa", 10, 40, 37, 71, {"angles_deg": [20.0, 35.0], "snr_db": 5.0}), EigBinding("doa")),
    (ScenarioSpec("failure", 6, 20, 37, 72, {"n_params": 6, "alpha": -1.0, "failed_index": 1}), EigBinding("failure")),
], ids=["mp-null", "masses", "masses-eig", "spike", "iid-channel", "doa", "failure", "detection-roc",
        "masses-mixed-gaps", "masses-k1", "masses-c4", "iid-channel-no-noise-block", "doa-eig", "failure-eig"])
def test_record_columns_stack_the_trials_dicts(spec, binding, workers):
    # 37 trials reach two workers as blocks of two and a last block of one; a
    # spectrum binding's block arithmetic equals the public estimators' bit for bit
    rows = _trial_by_trial(spec, binding)
    got = run_monte_carlo(spec, binding, workers).records
    assert got.keys() == rows[0].keys()
    for name, column in got.items():
        assert column.shape == (spec.trials, *np.shape(rows[0][name]))
        for t, row in enumerate(rows):
            want = np.asarray(row[name])
            assert want.dtype == column.dtype and column[t].tobytes() == want.tobytes(), (name, t)
    if spec is MIXED_GAPS:
        assert set(got["gap_aligned"].tolist()) == {True, False}


class _BadColumn(EigBinding):
    """Returns the block's spectra and one malformed column."""

    def __init__(self, bad):
        super().__init__("mp-null")
        self.bad = bad

    def per_spectra(self, spec, trials, spectra):
        return {"eigs": spectra, "top": {"short": spectra[1:, -1], "list": list(spectra[:, -1]),
                                         "scalar": np.float64(1.0)}[self.bad]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad, got", [("short", r"got \(\d+,\)"), ("list", "got list"), ("scalar", r"got \(\)")],
                         ids=["short", "list", "scalar"])
def test_a_spectra_column_without_one_row_per_trial_is_refused(bad, got, workers):
    # a short column would misalign the pool's join; a list or scalar has no rows to join
    with pytest.raises(ParameterError, match=rf"record 'top' of trials \d+-\d+ must be an array with \d+ rows, {got}"):
        run_monte_carlo(ScenarioSpec("mp-null", 4, 8, 6, 1), _BadColumn(bad), workers)


def test_a_rank_deficient_masses_run_gives_finite_aggregates():
    # at c = 4 the Gram's 30 zero eigenvalues carry rounding down to about -1e-8,
    # beyond the estimators' clamp window; the block is clipped as `rmt estimate` clips
    spec = ScenarioSpec("masses", 40, 10, 20, 1, {"atoms": [(1e6, 20), (3e6, 20)]})
    agg = run_monte_carlo(spec, GEstimatorBinding()).aggregates
    assert all(np.all(np.isfinite(value)) for value in agg.values()), agg


def _run_traced(spec, binding):
    """The summary of a run and the bytes it kept and peaked at above its
    start, by tracemalloc, after a two-trial run outside the count."""
    run_monte_carlo(dataclasses.replace(spec, trials=2), binding)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = run_monte_carlo(spec, binding)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return summary, held - before, peak - before


def test_a_kept_summary_holds_its_records_as_columns():
    # a dict per trial held about 384 B a trial here; the eigenvalue column takes
    # 32, and it is the block's spectra array itself, so the run peaks near one
    # copy of the spectra (about 46 B a trial), where a row-by-row copy into a
    # column peaked at 64.5 and stacked dicts at about 409
    spec = ScenarioSpec("mp-null", 4, 8, 20_000, 7)
    summary, held, peak = _run_traced(spec, EigBinding("mp-null"))
    assert summary.records["eigs"].nbytes == 32 * spec.trials
    assert held < 48 * spec.trials, held / spec.trials
    assert peak < 120 * spec.trials, peak / spec.trials
    assert peak < 56 * spec.trials, peak / spec.trials


def test_per_trial_records_peak_near_their_columns():
    # fig8's binding keeps two flags a trial; its dicts peaked at about 204 B a trial
    spec = ScenarioSpec("failure", 10, 24, 5000, 8, {"n_params": 10, "alpha": -1.0, "failed_index": 0})
    summary, _, peak = _run_traced(spec, FailureBinding(1e-2))
    assert {name: column.nbytes for name, column in summary.records.items()} == {
        "detected": spec.trials, "localized": spec.trials}
    assert peak < 40 * spec.trials, peak / spec.trials


class _Drifting:
    """Records one column whose row shape or dtype, or one name, changes in
    the blocks from trial 3 on."""

    kind = "mp-null"

    def __init__(self, change):
        self.change = change

    def per_block(self, spec, trials):
        top, n = np.zeros((len(trials), 2)), np.ones(len(trials), np.int64)
        if trials[0] < 3:
            return {"top": top, "n": n}
        return {"shape": {"top": top[:, :1], "n": n}, "dtype": {"top": top, "n": n.astype(float)},
                "name": {"top": top, "m": n}}[self.change]

    def reduce(self, spec, records):
        return {}


@pytest.mark.parametrize("workers", [2])
@pytest.mark.parametrize("change, match", [
    ("shape", r"trials 3-3 record \{'top': 'float64\[1\]', 'n': 'int64\[\]'\}, "
              r"trials 0-0 \{'top': 'float64\[2\]', 'n': 'int64\[\]'\}"),
    ("dtype", r"trials 3-3 record \{'top': 'float64\[2\]', 'n': 'float64\[\]'\}"),
    ("name", r"trials 3-3 record \{'top': 'float64\[2\]', 'm': 'int64\[\]'\}"),
], ids=["shape", "dtype", "name"])
def test_a_record_that_changes_shape_dtype_or_name_is_refused(change, match, workers):
    # six trials at two workers run as blocks of one; joining a later block's
    # columns to the first's would cast a dtype silently or fail without naming it
    with pytest.raises(ParameterError, match=match):
        run_monte_carlo(ScenarioSpec("mp-null", 4, 8, 6, 1), _Drifting(change), workers)


# --- spectrum-only trials ------------------------------------------------------------


def _draw_route_spectra(spec):
    return [np.linalg.eigvalsh(sample_covariance(generate_trial(spec, t)[0])) for t in range(spec.trials)]


def _hook_spectra(spec):
    got = MODELS[spec.kind].spectra(spec, spec.state, range(spec.trials))
    assert got.shape == (spec.trials, spec.n_dim)
    return list(got)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("kind, n_dim, n_samples, params", [
    ("mp-null", 6, 11, {}),
    ("mp-null", 12, 5, {}),  # c > 1
    ("mp-null", 1, 9, {}),
    ("spike", 8, 20, {"omegas": [2.0, 0.5]}),
    ("spike", 9, 4, {"omegas": [3.0]}),  # c > 1
    ("iid-channel", 6, 9, {"powers": [0.5, 2.0], "multiplicities": [1, 2], "snr_db": 6.0}),  # a signal product plus noise
    ("mp-null", 10, 24, {"snr_db": 20.0}),  # sigma = 0.1
])
def test_spectra_equal_the_draw_route_bit_for_bit(kind, n_dim, n_samples, params, seed):
    # the reused buffers hold each trial's draws in the draw route's order and scaling
    spec = ScenarioSpec(kind, n_dim, n_samples, 5, seed, params)
    got, want = _hook_spectra(spec), _draw_route_spectra(spec)
    assert len(got) == len(want) == spec.trials
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("n_dim, n_samples, atoms", [
    (6, 20, [(1.0, 3), (4.0, 3)]),
    (6, 3, [(1.0, 2), (5.0, 4)]),  # c > 1
    (1, 7, [(2.0, 1)]),
])
def test_masses_spectra_drop_the_unitary(n_dim, n_samples, atoms, seed):
    # U only rotates Y, so its spectrum moves at rounding level; X's draws stay put
    spec = ScenarioSpec("masses", n_dim, n_samples, 5, seed, {"atoms": atoms})
    got, want = _hook_spectra(spec), _draw_route_spectra(spec)
    assert len(got) == len(want) == spec.trials
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


# --- two-lane blocks at the pinned BLAS thread count ----------------------------------------

OPENBLAS = _numpy_openblas()
needs_pin = pytest.mark.skipif(OPENBLAS is None, reason="this numpy build does not bundle OpenBLAS")
needs_lapacke = pytest.mark.skipif(OPENBLAS is None or OPENBLAS.zheevd is None,
                                   reason="this numpy build's OpenBLAS has no LAPACKE zheevd")


@pytest.fixture
def two_blas_threads():
    """The caller runs OpenBLAS at two threads, so a block's pin to one is
    visible; None, changing nothing, where this numpy build cannot be pinned."""
    if OPENBLAS is None:
        yield None
        return
    before = OPENBLAS.get_threads()
    OPENBLAS.set_threads(2)
    yield OPENBLAS.get_threads
    OPENBLAS.set_threads(before)


def _inline_spectra(spec, trials):
    """The serial route: draw, scale, sample_covariance, eigvalsh, one trial at a time."""
    s, out = spec.state, []
    skip = spec.n_dim if spec.kind == "masses" else 0
    for t in trials:
        g = spec.stream(t).generator()
        g.standard_normal((2, skip, skip))
        parts = g.standard_normal((2, spec.n_dim, spec.n_samples)) * np.sqrt(0.5)
        if spec.kind != "mp-null":
            parts = parts * s.scale
        y = np.empty((spec.n_dim, spec.n_samples), dtype=complex)
        y.real, y.imag = parts
        out.append(np.linalg.eigvalsh(sample_covariance(y)))
    return out


def _lane_threads(monkeypatch, late_helper=False):
    """Record the thread of every Gram a block's lanes form.  With
    ``late_helper``, each lane's Grams wait (up to 10 s) until the other lane
    has started one, and the helper's Grams then start 5 ms late: both lanes
    take trials, and short trials finish out of order."""
    seen, kernel, caller = [], simulate._gram_into, threading.get_ident()
    entered = {True: threading.Event(), False: threading.Event()}  # keyed by "on the calling thread"

    def recorded(y, c):
        seen.append(threading.get_ident())
        if late_helper:
            on_caller = seen[-1] == caller
            entered[on_caller].set()
            entered[not on_caller].wait(10)
            if not on_caller:
                time.sleep(0.005)
        return kernel(y, c)

    monkeypatch.setattr(simulate, "_gram_into", recorded)
    return seen


@needs_pin
@pytest.mark.parametrize("timing", ["", "slow-gram", "short-switch", "four-lanes"])
@pytest.mark.parametrize("spec", [
    ScenarioSpec("mp-null", 256, 768, 4, 21),
    ScenarioSpec("mp-null", 30, 12, 40, 22),  # c > 1
    ScenarioSpec("spike", 64, 192, 5, 23, {"omegas": [4.0, 1.5]}),
    ScenarioSpec("masses", 48, 160, 5, 24, {"atoms": [(1.0, 24), (3.0, 24)]}),
], ids=["mp-null-256x768", "mp-null-c2.5", "spike", "masses"])
def test_pipelined_spectra_equal_the_inline_route(spec, timing, two_blas_threads, monkeypatch):
    # slow-gram: the helper lane's Grams start 5 ms late, so the calling lane
    # overtakes it and trials finish out of order
    late_helper = timing == "slow-gram" and OPENBLAS.zheevd is not None
    seen = _lane_threads(monkeypatch, late_helper)
    if timing == "four-lanes":
        monkeypatch.setattr(simulate, "BLOCK_LANES", 4)  # more lanes than this host's cores
    interval = sys.getswitchinterval()
    try:
        if timing in ("short-switch", "four-lanes"):
            sys.setswitchinterval(1e-6)  # the lanes trade the interpreter lock as often as it allows
        got = run_monte_carlo(spec, EigBinding(spec.kind))
    finally:
        sys.setswitchinterval(interval)
    assert (got.blas_threads, got.workers) == (BLOCK_BLAS_THREADS, 1)
    assert len(seen) == spec.trials
    if late_helper:
        assert len(set(seen)) == simulate.BLOCK_LANES
    OPENBLAS.set_threads(BLOCK_BLAS_THREADS)
    want = _inline_spectra(spec, range(spec.trials))
    OPENBLAS.set_threads(2)
    for eigs, w in zip(got.records["eigs"], want, strict=True):
        assert eigs.tobytes() == w.tobytes()


def _guard_instrumentable(monkeypatch):
    """Make everything an outside instrumenter wraps fail when called off this
    thread: the functions in the ``__all__`` of rmt's modules, under every
    name an rmt module binds them to, and numpy's Hermitian eigensolvers."""
    caller, off = threading.get_ident(), []

    def guard(fn):
        def guarded(*args, **kwargs):
            if threading.get_ident() != caller:
                off.append(fn.__name__)
                raise AssertionError(f"{fn.__name__} called off the calling thread")
            return fn(*args, **kwargs)
        return guarded

    modules = [m for name, m in sys.modules.items() if name == "rmt" or name.startswith("rmt.")]
    guards = {obj: guard(obj) for m in modules for obj in (getattr(m, a) for a in getattr(m, "__all__", ()))
              if inspect.isfunction(obj)}
    for m in modules:
        for attr, obj in list(vars(m).items()):
            if inspect.isfunction(obj) and obj in guards:
                monkeypatch.setattr(m, attr, guards[obj])
    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, guard(getattr(np.linalg, solver)))
    return off


@needs_lapacke
@pytest.mark.parametrize("library", ["lapacke", "no-lapacke", "no-openblas"])
@pytest.mark.parametrize("spec, binding", [
    (ScenarioSpec("mp-null", 48, 96, 6, 41), EigBinding("mp-null")),
    (ScenarioSpec("spike", 40, 90, 6, 42, {"omegas": [3.0]}), EigBinding("spike")),
    (ScenarioSpec("masses", 30, 120, 6, 43, {"atoms": [(1.0, 10), (3.0, 10), (7.0, 10)]}), GEstimatorBinding()),
    (ScenarioSpec("iid-channel", 24, 128, 6, 44, {"powers": [1 / 16, 1 / 4, 1.0], "multiplicities": [4, 4, 4],
                                                  "snr_db": 5.0}), PowerNmseBinding()),
    (ScenarioSpec("doa", 20, 150, 6, 45, {"angles_deg": [35.0, 37.0], "snr_db": 10.0}), EigBinding("doa")),
    (ScenarioSpec("failure", 10, 24, 6, 46, {"n_params": 10, "alpha": -1.0, "failed_index": 0}), EigBinding("failure")),
], ids=["mp-null", "spike", "masses", "iid-channel", "doa", "failure"])
def test_lanes_call_nothing_instrumentable_off_the_calling_thread(spec, binding, library, monkeypatch):
    # a span recorder keeps one stack per process, so only the calling thread may enter a wrapped function
    want, trials = run_monte_carlo(spec, binding).records, range(spec.trials)
    if library != "lapacke":
        # without LAPACKE the block solves with np.linalg.eigvalsh, so in one lane
        fake = None if library == "no-openblas" else SimpleNamespace(**dict(vars(OPENBLAS), zheevd=None))
        _use_library(monkeypatch, fake)
    if spec.kind in ("iid-channel", "doa", "failure"):
        # a signal product plus noise: the reference is the draw route, generate_trial's Y, its
        # mirrored covariance and np.linalg.eigvalsh, at the pin a block runs at with this library
        with _pinned_blas():
            want = binding.per_spectra(spec, trials, np.array(_draw_route_spectra(spec)))
    elif library == "no-openblas":
        # a complex product replaces zherk, so the Gram's rounding differs from the records above;
        # the serial route's mirrored covariance and np.linalg.eigvalsh give the reference
        want = binding.per_spectra(spec, trials, np.array(_inline_spectra(spec, trials)))
    seen = _lane_threads(monkeypatch, late_helper=library == "lapacke")
    off = _guard_instrumentable(monkeypatch)
    got = run_monte_carlo(spec, binding)
    assert off == [] and _same_records(got.records, want)
    assert len(set(seen)) == (simulate.BLOCK_LANES if library == "lapacke" else 1)


@needs_lapacke
def test_a_lane_error_propagates_and_leaves_no_thread(two_blas_threads, monkeypatch):
    threads = threading.active_count()
    stream = ScenarioSpec.stream

    def failing_stream(self, trial):
        if trial == 3:
            raise ArithmeticError("draw failed on trial 3")
        return stream(self, trial)

    monkeypatch.setattr(ScenarioSpec, "stream", failing_stream)
    for spec in (ScenarioSpec("mp-null", 40, 30, 8, 3), ScenarioSpec("masses", 12, 40, 8, 3, {"atoms": [(1.0, 12)]})):
        with pytest.raises(ArithmeticError, match="trial 3"):
            run_monte_carlo(spec, EigBinding(spec.kind))
        assert threading.active_count() == threads and two_blas_threads() == 2


def _use_library(monkeypatch, fake):
    """Make the kernel and the lanes see ``fake`` as numpy's OpenBLAS."""
    for module in (linalg, simulate):
        monkeypatch.setattr(module, "_numpy_openblas", lambda: fake)


def _gram(n_dim, n_samples, seed, scale=None):
    parts = np.random.default_rng(seed).standard_normal((2, n_dim, n_samples))
    y = parts[0] + 1j * parts[1]
    return sample_covariance(y if scale is None else scale * y)


@needs_lapacke
@pytest.mark.parametrize("gram", [
    _gram(1, 9, 0),
    _gram(12, 5, 1),  # c > 1: singular
    2.0 * np.eye(6, dtype=complex),  # one eigenvalue, repeated
    _gram(256, 768, 2),
    _gram(48, 160, 3, np.sqrt(np.repeat([1.0, 3.0, 7.0], 16))[:, None]),  # masses-scaled
], ids=["1x1", "singular-c2.4", "2I", "256x768", "masses"])
def test_lapacke_eigvalsh_equals_numpy_bit_for_bit(gram):
    # zheevd reads the upper triangle column-major, as the lower triangle of
    # the conjugate; eigvalsh reads the mirrored lower triangle: the same bits
    w = _eigvalsh_into(gram.copy(), np.empty(gram.shape[0]))
    assert w.tobytes() == np.linalg.eigvalsh(gram).tobytes() == np.linalg.eigvalsh(gram.T).tobytes()


@needs_lapacke
def test_lapacke_eigvalsh_raises_on_a_nonzero_info(monkeypatch):
    nan = np.full((3, 3), np.nan, dtype=complex)
    for solve in (np.linalg.eigvalsh, lambda a: _eigvalsh_into(a, np.empty(3))):
        with pytest.raises(np.linalg.LinAlgError):
            solve(nan.copy())
    for gram, w in ((np.eye(3, dtype=complex, order="F"), np.empty(3)), (np.eye(3, dtype=complex), np.empty(4))):
        with pytest.raises(ValueError, match="C-ordered"):  # a Fortran-ordered Gram, a short output
            _eigvalsh_into(gram, w)
    _use_library(monkeypatch, SimpleNamespace(**dict(vars(OPENBLAS), zheevd=lambda *args: 2)))
    with pytest.raises(np.linalg.LinAlgError, match="info 2"):
        _eigvalsh_into(np.eye(3, dtype=complex), np.empty(3))


class _RaiseOnTrial3(EigBinding):
    def per_spectra(self, spec, trials, spectra):
        if 3 in trials:
            raise ArithmeticError("binding failed on trial 3")
        return {"eigs": spectra, "threads": np.full(len(trials), OPENBLAS.get_threads())}


class _BlockThreads:
    """Not a spectrum binding: records the BLAS thread count its block runs at."""

    kind = "iid-channel"

    def per_block(self, spec, trials):
        return {"threads": np.full(len(trials), OPENBLAS.get_threads())}

    def reduce(self, spec, records):
        return {}


@needs_pin
def test_blocks_pin_one_thread_and_restore_the_callers_count(two_blas_threads):
    get = two_blas_threads
    threads = threading.active_count()
    spec = ScenarioSpec("mp-null", 40, 30, 8, 3)
    with pytest.raises(ArithmeticError, match="trial 3"):
        run_monte_carlo(spec, _RaiseOnTrial3("mp-null"))
    assert threading.active_count() == threads and get() == 2
    ok = run_monte_carlo(ScenarioSpec("mp-null", 40, 30, 3, 3), _RaiseOnTrial3("mp-null"))
    assert ok.records["threads"].tolist() == [BLOCK_BLAS_THREADS] * 3 and get() == 2
    iid = ScenarioSpec("iid-channel", 6, 9, 3, 4, {"powers": [1.0], "multiplicities": [2], "snr_db": 3.0})
    block = run_monte_carlo(iid, _BlockThreads())
    assert block.records["threads"].tolist() == [BLOCK_BLAS_THREADS] * 3 and get() == 2
    assert threading.active_count() == threads


@needs_pin
@pytest.mark.parametrize("spec", [
    ScenarioSpec("mp-null", 256, 768, 4, 31),
    ScenarioSpec("masses", 128, 512, 4, 32, {"atoms": [(1.0, 64), (5.0, 64)]}),
], ids=["mp-null-256x768", "masses-128x512"])
def test_worker_count_invariance_where_openblas_threads(spec, two_blas_threads):
    # at these sizes OpenBLAS splits the Gram and eigvalsh across threads, so
    # serial and pool blocks agree only if both run at the pinned count
    one = run_monte_carlo(spec, EigBinding(spec.kind), workers=1)
    two = run_monte_carlo(spec, EigBinding(spec.kind), workers=2)
    assert (one.blas_threads, one.workers, two.blas_threads, two.workers) == (BLOCK_BLAS_THREADS, 1, BLOCK_BLAS_THREADS, 2)
    assert two.seed_manifest["workers"] == 2 and two.seed_manifest["blas_threads"] == BLOCK_BLAS_THREADS
    assert one.aggregates["all_eigs"].tobytes() == two.aggregates["all_eigs"].tobytes()


@pytest.mark.parametrize("spec, binding", [
    (ScenarioSpec("mp-null", 4, 8, 37, 9, {"snr_db": 0.0}), DetectionRocBinding()),
    (ScenarioSpec("iid-channel", 12, 40, 37, 10, {"powers": [0.5, 2.0], "multiplicities": [2, 2], "snr_db": 6.0}),
     PowerNmseBinding()),
], ids=["detection-roc", "iid-channel"])
def test_kernel_bindings_worker_count_invariance(spec, binding):
    # per-trial spectra and the default spectra hook run the same kernel in pool blocks
    one = run_monte_carlo(spec, binding, workers=1)
    two = run_monte_carlo(spec, binding, workers=2)
    assert _same_records(one.records, two.records)
    for key, value in one.aggregates.items():
        assert np.asarray(value).tobytes() == np.asarray(two.aggregates[key]).tobytes()


def test_manifests_record_the_numpy_and_openblas_builds():
    want = {"numpy": np.__version__, "openblas": None if OPENBLAS is None else OPENBLAS.config}
    assert OPENBLAS is None or OPENBLAS.config.startswith("OpenBLAS ")
    manifest = run_monte_carlo(ScenarioSpec("mp-null", 4, 8, 2, 1), EigBinding("mp-null")).seed_manifest
    assert {key: manifest[key] for key in want} == want
    manifest = reproduce_figure("fig2", seed=1)["manifest"]
    assert {key: manifest[key] for key in want} == want


def test_gestimator_binding_aggregates():
    summary = run_monte_carlo(MASSES, GEstimatorBinding())
    agg = summary.aggregates
    assert agg["mse_g"].shape == (3,)
    assert 0.0 <= agg["gap_aligned_rate"] <= 1.0
    assert summary.seed_manifest["seed"] == 5
    # idempotent reduce: aggregates are recomputable from the stored records
    again = GEstimatorBinding().reduce(MASSES, summary.records)
    for key, value in summary.aggregates.items():
        assert np.array_equal(np.asarray(value), np.asarray(again[key]))


# --- histogram -----------------------------------------------------------------------


def test_histogram_single_value():
    edges, dens = histogram([2.0], 1)
    width = edges[1] - edges[0]
    assert np.isclose(dens[0] * width, 1.0)


def test_histogram_uniform_flat():
    edges, dens = histogram(np.linspace(0, 1, 10001), 10, (0.0, 1.0))
    assert np.max(np.abs(dens - 1.0)) < 0.02


def test_histogram_unit_area_and_errors():
    rng = np.random.default_rng(0)
    edges, dens = histogram(rng.normal(size=500), 25)
    assert np.isclose(np.sum(dens * np.diff(edges)), 1.0)
    with pytest.raises(ParameterError):
        histogram([], 5)
    with pytest.raises(ParameterError):
        histogram([1.0], 0)


# --- detection binding ----------------------------------------------------------------


def test_detection_roc_monotone():
    spec = ScenarioSpec("mp-null", 4, 8, 4000, seed=6, params={"snr_db": 0.0})
    agg = run_monte_carlo(spec, DetectionRocBinding()).aggregates
    fars = [0.01, 0.05, 0.2, 0.5]
    for name in ("glrt", "cond"):
        rates = [DetectionRocBinding.detection_at_far(agg, name, f) for f in fars]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:])), (name, rates)
        assert 0.0 <= rates[0] <= rates[-1] <= 1.0


# --- DoA binding ------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    ScenarioSpec("doa", 20, 150, 200, 1, {"angles_deg": [35.0, 37.0], "snr_db": 10.0}),
    ScenarioSpec("doa", 4, 40, 20, 2, {"angles_deg": [-50.0, 0.0, 40.0], "snr_db": 10.0}),
], ids=["fig5", "k-is-n-1"])
def test_doa_binding_records_equal_two_estimates_per_trial(spec, monkeypatch):
    # a trial decomposes Y once and weights it per method; estimate_doa decomposes per call
    got, step = [], simulate._doa_from_eigh

    def recorded(*args):
        res = step(*args)
        got.append(np.array(res.angles).tobytes())
        return res

    monkeypatch.setattr(simulate, "_doa_from_eigh", recorded)
    records = run_monte_carlo(spec, DoaResolutionBinding()).records
    true, want, flags = np.sort(spec.state.angles), [], {"music": [], "gmusic": []}
    for trial in range(spec.trials):
        y = generate_trial(spec, trial)[0]
        for method in flags:
            angles = np.sort(estimate_doa(y, len(true), spec.state.model, (-90.0, 0.0, 90.0), method).angles)
            want.append(angles.tobytes())
            flags[method].append(bool(angles.size == true.size and np.all(np.abs(angles - true) <= 1.0)))
    assert got == want
    assert {method: records[method].tolist() for method in flags} == flags


def test_doa_binding_refuses_k_not_below_n():
    spec = ScenarioSpec("doa", 3, 20, 2, 5, {"angles_deg": [-40.0, 0.0, 40.0], "snr_db": 10.0})
    with pytest.raises(ParameterError, match=r"need 0 <= K < N"):
        run_monte_carlo(spec, DoaResolutionBinding())


# --- failure binding --------------------------------------------------------------------


def test_failure_binding_smoke():
    spec = ScenarioSpec(
        "failure", 10, 60, 200, 9,
        {"n_params": 10, "alpha": -1.0, "failed_index": 0, "noise_var": 1.0},
    )
    agg = run_monte_carlo(spec, FailureBinding(far=1e-2)).aggregates
    assert 0.0 <= agg["localization_rate"] <= agg["detection_rate"] <= 1.0


def test_failure_binding_localizes_a_variance_rise():
    # a rise is a spike above the bulk: it is read off the largest eigenpair
    spec = ScenarioSpec(
        "failure", 10, 102, 200, 11,
        {"n_params": 10, "alpha": 1.0, "failed_index": 0, "noise_var": 1.0},
    )
    agg = run_monte_carlo(spec, FailureBinding(far=1e-2)).aggregates
    assert agg["detection_rate"] >= 0.95 and agg["localization_rate"] >= 0.95, agg


def test_failure_setup_refuses_unlocalizable_scenarios():
    with pytest.raises(ParameterError, match="nonzero"):
        ScenarioSpec("failure", 10, 102, 1, 0, {"n_params": 10, "alpha": 0.0})
    for n in (8, 10):
        with pytest.raises(ParameterError, match="smallest eigenvalue"):
            ScenarioSpec("failure", 10, n, 1, 0, {"n_params": 10, "alpha": -1.0})
    ScenarioSpec("failure", 10, 10, 1, 0, {"n_params": 10, "alpha": 1.0})


def test_failure_binding_refuses_a_far_beyond_the_table():
    # it clamped to the table's last knot (s = 6) and detected nothing; rmt detect refuses the same rate
    with pytest.raises(ParameterError, match="smallest usable rate is 3.82e-12"):
        FailureBinding(far=1e-12)
    for far in (0.0, 1.0):
        with pytest.raises(ParameterError, match=r"must lie in \(0, 1\)"):
            FailureBinding(far=far)
    assert FailureBinding(far=1e-2).threshold == glrt_test(np.ones(4), 8, far=1e-2).threshold


def test_failure_hypotheses_are_per_scenario_state():
    # scenarios that differ only in alpha, n_params or noise_var each carry their own
    # localizable hypotheses, with fluctuation stats at their own ratio
    base = {"n_params": 4, "alpha": -1.0, "failed_index": 0, "noise_var": 1.0}
    specs = [ScenarioSpec("failure", 4, 40, 1, 3, dict(base, **change))
             for change in ({}, {"alpha": 1.0}, {"n_params": 3}, {"noise_var": 2.0})]
    got = []
    for spec in specs:
        s = spec.state
        assert 0 < len(s.hypotheses) == len(s.stats) <= s.n_params
        for hyp, st in zip(s.hypotheses, s.stats):
            # omega_k = ((1 + alpha)^2 - 1) ||T^(-1/2) H e_k||^2 at the scenario's alpha
            v = s.inv_sqrt @ s.network[:, hyp.index]
            assert np.isclose(hyp.omega, ((1 + s.alpha) ** 2 - 1) * np.vdot(v, v).real, rtol=1e-12, atol=0)
            assert (hyp.omega > 0) == (s.alpha > 0)
            assert (st.omega, st.ratio) == (hyp.omega, spec.ratio)
        got.append(tuple((h.index, h.omega) for h in s.hypotheses))
    assert len(set(got)) == len(specs)


# --- figure reproduction ------------------------------------------------------------------


def test_reproduce_unknown_id():
    with pytest.raises(ParameterError):
        reproduce_figure("fig99", seed=0)


def test_reproduce_checks_the_seed_range():
    # fig2 runs no Monte Carlo, so no spec would catch a bad seed
    for seed in (-1, 2**64, True, 1.0):
        with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 18446744073709551615\]"):
            reproduce_figure("fig2", seed=seed)
    assert reproduce_figure("fig2", seed=2**64 - 1)["manifest"]["seed"] == 2**64 - 1


def test_reproduce_fig2_density_point():
    out = reproduce_figure("fig2", seed=0)
    curve = out["c=0.5"]
    i = np.argmin(np.abs(curve["x"] - 1.0))
    assert abs(curve["density"][i] - 0.4211) < 1e-3


def _record_runs(monkeypatch):
    """The JSON spec of every run_monte_carlo call the figure runner makes, in order."""
    runs, run = [], simulate.run_monte_carlo

    def recorded(spec, binding, workers=1):
        runs.append(json.loads(spec.to_json()))
        return run(spec, binding, workers)

    monkeypatch.setattr(simulate, "run_monte_carlo", recorded)
    return runs


def test_reproduce_fig5_gmusic_deeper_at_true_angles(two_blas_threads, monkeypatch):
    runs, threads, decompose = _record_runs(monkeypatch), [], simulate.sample_eigh

    def recorded(*args):
        threads.append(OPENBLAS and OPENBLAS.get_threads())
        return decompose(*args)

    monkeypatch.setattr(simulate, "sample_eigh", recorded)
    out = reproduce_figure("fig5", seed=1)
    grid = out["music"]["theta_deg"]
    for theta in (35.0, 37.0):
        j = np.argmin(np.abs(grid - theta))
        assert out["gmusic"]["cost_db"][j] < out["music"]["cost_db"][j]
    res = out["resolution"]
    assert res["gmusic_resolution_rate"] >= res["music_resolution_rate"]
    assert out["manifest"]["workers"] == 1
    assert out["manifest"]["blas_threads"] == (None if OPENBLAS is None else BLOCK_BLAS_THREADS)
    assert out["manifest"]["specs"] == runs and len(runs) == 1
    # one decomposition per Y; the cost curves', drawn outside any block, runs at the pinned count too
    assert len(threads) == runs[0]["trials"] + 1 and set(threads) == {out["manifest"]["blas_threads"]}
    assert two_blas_threads is None or two_blas_threads() == 2


@pytest.mark.parametrize("figure", ["fig1", "fig3-bottom"])
def test_one_draw_figures_run_as_pinned_blocks(figure, monkeypatch):
    runs = _record_runs(monkeypatch)
    out = reproduce_figure(figure, seed=2)
    assert out["manifest"]["blas_threads"] == (None if OPENBLAS is None else BLOCK_BLAS_THREADS)
    assert out["manifest"]["specs"] == runs and len(runs) == 1
    edges = out["histogram"]["x"]
    assert np.isclose(np.sum(out["histogram"]["density"]) * (edges[1] - edges[0]), 1.0)


@pytest.mark.parametrize("figure, want", [("fig3-top", ["EigBinding"]), ("fig6", ["DetectionRocBinding"]),
                                          ("fig4", ["PowerNmseBinding"] * 8)])
def test_manifest_names_the_binding_of_every_run(figure, want, monkeypatch):
    # the figure's own specs, bindings and curves, on at most 40 trials a run
    short = [ScenarioSpec(s.kind, s.n_dim, s.n_samples, min(s.trials, 40), s.seed, s.params)
             for s in FIGURES[figure].specs(3, True)]
    monkeypatch.setitem(simulate.FIGURES, figure, dataclasses.replace(FIGURES[figure], specs=lambda seed, desk: short))
    bindings, run = [], simulate.run_monte_carlo

    def recorded(spec, binding, workers=1):
        bindings.append(type(binding).__name__)
        return run(spec, binding, workers)

    monkeypatch.setattr(simulate, "run_monte_carlo", recorded)
    manifest = reproduce_figure(figure, seed=3)["manifest"]
    assert manifest["bindings"] == bindings == want
    assert len(manifest["specs"]) == len(want)


FIG8_PAPER_N = (16, 24, 32, 40, 47, 55, 63, 71, 79, 86, 94, 102, 110, 118, 125, 133, 141, 149, 157, 164)
FIG8_PARAMS = {"n_params": 10, "alpha": -1.0, "failed_index": 0, "noise_var": 1.0, "far": 0.01}


def _figure_oracle(seed, desk):
    """(kind, N, n, trials, seed, params) of every spec each figure runs, in run order."""
    def three_masses(top):
        return [("masses", 300, 3000, 1, seed, {"atoms": [[1.0, 100], [3.0, 100], [top, 100]]})]

    snrs = [-5, 0, 5, 10, 15, 20, 25, 30] if desk else list(range(-5, 31))
    grid = [24, 40, 55, 71, 86, 102] if desk else FIG8_PAPER_N
    return {
        "fig1": [("mp-null", 500, 2000, 1, seed, {})],
        "fig2": [],
        "fig3-top": three_masses(7.0),
        "fig3-bottom": three_masses(4.0),
        "fig4": [("iid-channel", 24, 128, 2000 if desk else 10_000, seed + i,
                  {"powers": [0.0625, 0.25, 1.0], "multiplicities": [4, 4, 4], "snr_db": snr})
                 for i, snr in enumerate(snrs)],
        "fig5": [("doa", 20, 150, 500 if desk else 10_000, seed, {"angles_deg": [35.0, 37.0], "snr_db": 10.0})],
        "fig6": [("mp-null", 4, 8, 20_000 if desk else 100_000, seed, {"snr_db": 0.0})],
        "fig7": [("mp-null", 256, 768, 2000, seed, {}) if desk else ("mp-null", 500, 1500, 10_000, seed, {})],
        "fig8": [("failure", 10, n, 5000 if desk else 100_000, seed + i, FIG8_PARAMS) for i, n in enumerate(grid)],
    }


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("figure", FIGURE_IDS)
def test_figure_specs_at_both_scales(figure, scale):
    # builds the specs only: the paper-scale runs take minutes to hours
    oracle = _figure_oracle(7, scale == "desk")
    assert FIGURE_IDS == tuple(oracle)
    specs = FIGURES[figure].specs(7, scale == "desk")
    assert all(isinstance(spec, ScenarioSpec) for spec in specs)
    keys = ("kind", "N", "n", "trials", "seed", "params")
    assert [json.loads(spec.to_json()) for spec in specs] == [dict(zip(keys, row)) for row in oracle[figure]]
    for spec in specs:
        binding = FIGURES[figure].binding or MODELS[spec.kind].binding(spec)
        assert getattr(binding, "kind", spec.kind) == spec.kind
