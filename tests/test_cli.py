import json
import math
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

import rmt
from rmt.cli import _parse_grid, _write_csv, main
from rmt.linalg import RngStream, complex_gaussian, load_matrix_csv, save_matrix_csv
from rmt.schemas import validate
from rmt.simulate import ScenarioSpec, generate_trial


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def test_import_path_loads_no_scipy_pool_or_subprocess():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rmt.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'subprocess') "
        "or m in ('concurrent.futures.process', 'concurrent.futures.thread', 'multiprocessing.pool', "
        "'multiprocessing.dummy'))); "
        # neither the import nor a binding's construction looks the BLAS library up
        "rmt.simulate.EigBinding('mp-null'); print(rmt.simulate._numpy_openblas.cache_info().currsize)"
    )
    src = str(pathlib.Path(rmt.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["[]", "0"]


def test_write_csv_bytes_match_savetxt(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1096) * 10.0 ** rng.integers(-300, 300, 1096)
    x[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
    columns = {"x": x, "f": rng.standard_normal(1096)}
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    _write_csv(ours, columns)
    np.savetxt(ref, np.column_stack(list(columns.values())), delimiter=",", header="x,f", comments="")
    assert ours.read_bytes() == ref.read_bytes()
    _write_csv(ours, {"only": np.array([1.5])})
    np.savetxt(ref, np.array([[1.5]]), delimiter=",", header="only", comments="")
    assert ours.read_bytes() == ref.read_bytes()


# --- densities -------------------------------------------------------------------


def test_mp_density_command(tmp_path, capsys):
    out = tmp_path / "mp.csv"
    assert run_cli("mp-density", "--c", "0.5", "--grid", "0:3:0.01", "--out", str(out)) == 0
    header, data = read_csv(out)
    assert header == ["x", "f"]
    i = np.argmin(np.abs(data[:, 0] - 1.0))
    assert abs(data[i, 1] - 0.4211) < 1e-3


def test_density_command(tmp_path):
    out = tmp_path / "d.csv"
    clusters = tmp_path / "clusters.json"
    code = run_cli(
        "density", "--atoms", "1:0.3334,3:0.3333,7:0.3333", "--c", "0.1",
        "--eps", "1e-4", "--grid", "0.05:11:0.05", "--out", str(out),
        "--clusters-out", str(clusters),
    )
    assert code == 0
    header, data = read_csv(out)
    assert header == ["x", "f"]
    assert np.all(data[:, 1] >= 0)
    doc = json.loads(clusters.read_text())
    assert len(doc) == 3
    assert all(set(entry) == {"lo", "hi", "mass"} for entry in doc)


def test_density_clusters_exact_above_c_one(tmp_path):
    # at c = 2 the only cluster is the MP support; the Dirac mass at zero is
    # not a cluster and takes half of the mass
    clusters = tmp_path / "clusters.json"
    code = run_cli(
        "density", "--atoms", "1:1", "--c", "2", "--out", str(tmp_path / "d.csv"),
        "--clusters-out", str(clusters),
    )
    assert code == 0
    doc = json.loads(clusters.read_text())
    assert len(doc) == 1
    assert abs(doc[0]["lo"] - (1 - 2**0.5) ** 2) < 1e-9 and abs(doc[0]["hi"] - (1 + 2**0.5) ** 2) < 1e-9
    assert abs(doc[0]["mass"] - 0.5) < 1e-9


def _run_as_process(*argv):
    """``rmt`` in a child process, so a warning or a traceback on its stderr shows."""
    src = str(pathlib.Path(rmt.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "rmt.cli", *argv], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))


def test_density_refuses_clusters_double_precision_cannot_resolve(tmp_path):
    # the cluster's edges (1 -+ 1e-150)^2 are one double: refused, with no numpy warning and no file
    out, clusters = tmp_path / "d.csv", tmp_path / "clusters.json"
    run = _run_as_process("density", "--atoms", "1:1", "--c", "1e-300", "--out", str(out),
                          "--clusters-out", str(clusters))
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert "too narrow around some atom" in run.stderr
    assert not out.exists() and not clusters.exists()


def test_density_defaults_to_the_exact_density(tmp_path):
    argv = ("density", "--atoms", "1:0.3334,3:0.3333,7:0.3333", "--c", "0.1", "--grid", "0.05:11:0.01")
    assert run_cli(*argv, "--out", str(tmp_path / "default.csv")) == 0
    assert run_cli(*argv, "--eps", "0", "--out", str(tmp_path / "exact.csv")) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "exact.csv").read_bytes()
    _, data = read_csv(tmp_path / "default.csv")
    assert np.count_nonzero(data[:, 1] == 0.0) > 0  # exactly 0 between the clusters
    for eps in ("-1", "nan"):
        assert run_cli(*argv, "--eps", eps, "--out", str(tmp_path / "refused.csv")) == 1
    assert not (tmp_path / "refused.csv").exists()


def test_bad_grid_is_usage_error(tmp_path):
    assert run_cli("mp-density", "--c", "0.5", "--grid", "nonsense") == 2
    assert run_cli("mp-density", "--c", "0.5", "--grid", "0:inf:0.01") == 2
    assert run_cli("density", "--atoms", "1:1", "--c", "0.5", "--grid", "nan:1:0.01") == 2


def test_grid_size_is_capped_before_allocating(tmp_path, capsys, monkeypatch):
    arange = np.arange

    def guarded(start, stop, step):  # so an uncapped grid fails here instead of allocating it
        assert (stop - start) / step <= 10**6, (start, stop, step)
        return arange(start, stop, step)

    monkeypatch.setattr(np, "arange", guarded)
    out = tmp_path / "x.csv"
    capsys.readouterr()
    for grid in ("0:1e9:1", "0:1000000:1", "-1e308:1e308:1"):  # 10^9 + 1, 10^6 + 1 and inf points
        assert run_cli("mp-density", "--c", "0.5", f"--grid={grid}", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: bad grid spec {grid!r}: the grid would exceed the cap of 1000000 points\n"
    assert _parse_grid("0:999999:1").size == 10**6
    # the default grid steps by 0.01 up to 1.4 (1 + sqrt(c))^2 times the largest atom
    assert run_cli("density", "--atoms", "1e5:1", "--c", "0.5", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: the grid would exceed the cap of 1000000 points\n"
    assert not out.exists()


def test_bad_parameter_is_runtime_error(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("density", "--atoms", "1:1.0", "--c", "-2", "--out", str(out)) == 1
    # non-finite model inputs are refused before any grid point is solved
    assert run_cli("density", "--atoms", "1:nan", "--c", "0.1", "--out", str(out)) == 1
    assert run_cli("mp-density", "--c", "inf", "--grid", "0:1:0.5", "--out", str(out)) == 1


# --- estimate / detect / doa -------------------------------------------------------


@pytest.fixture(scope="module")
def masses_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "y.csv"
    spec = ScenarioSpec("masses", 60, 600, 1, 3, {"atoms": [(1.0, 20), (3.0, 20), (7.0, 20)]})
    y, _ = generate_trial(spec, 0)
    save_matrix_csv(path, y)
    return path


def test_estimate_command(masses_csv, tmp_path, capsys):
    out = tmp_path / "est.json"
    code = run_cli(
        "estimate", "--input", str(masses_csv), "--K", "3", "--mult", "20,20,20",
        "--method", "g", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    validate("estimate", doc)
    assert doc["method"] == "g-estimator"
    p_hat = doc["P_hat"]
    for got, want in zip(p_hat, (1.0, 3.0, 7.0)):
        assert abs(got - want) / want < 0.25


def test_estimate_bad_arguments_are_usage_errors(masses_csv):
    base = ("estimate", "--input", str(masses_csv), "--K", "3")
    # --n 0 is refused, not replaced by the column count
    assert run_cli(*base, "--mult", "20,20,20", "--n", "0") == 2
    assert run_cli(*base, "--mult", "a,b,c") == 2


def test_detect_command_noise_and_signal(tmp_path):
    noise = complex_gaussian(32, 128, RngStream(5))
    noise_path = tmp_path / "noise.csv"
    save_matrix_csv(noise_path, noise)
    out = tmp_path / "d.json"
    assert run_cli("detect", "--input", str(noise_path), "--far", "0.01", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate("detect", doc)
    assert doc["signal"] is False

    g = RngStream(6).generator()
    h = complex_gaussian(32, 1, g)[:, 0]
    x = complex_gaussian(1, 128, g)
    strong = h[:, None] * x + complex_gaussian(32, 128, g)
    sig_path = tmp_path / "sig.csv"
    save_matrix_csv(sig_path, strong)
    out2 = tmp_path / "d2.json"
    assert run_cli("detect", "--input", str(sig_path), "--far", "0.01", "--out", str(out2)) == 0
    assert json.loads(out2.read_text())["signal"] is True


def test_detect_refuses_a_far_beyond_the_table(tmp_path, capsys):
    # the bundled table ends at s = 6, where its upper tail is 3.8e-12
    path = tmp_path / "noise.csv"
    save_matrix_csv(path, complex_gaussian(8, 32, RngStream(5)))
    capsys.readouterr()
    assert run_cli("detect", "--input", str(path), "--far", "1e-12") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "smallest usable rate is 3.82e-12" in err
    assert run_cli("detect", "--input", str(path), "--far", "3.82e-12") == 0


def test_doa_command(tmp_path):
    from rmt.doa import SteeringModel, steering_matrix

    model = SteeringModel(20)
    g = RngStream(7).generator()
    smat = steering_matrix(model, (35.0, 37.0))
    y = smat @ complex_gaussian(2, 150, g) + 10 ** (-0.5) * complex_gaussian(20, 150, g)
    path = tmp_path / "y.csv"
    save_matrix_csv(path, y)
    out = tmp_path / "doa.json"
    cost = tmp_path / "cost.csv"
    code = run_cli(
        "doa", "--input", str(path), "--K", "2", "--method", "gmusic",
        "--grid=-90:90:0.05", "--cost-out", str(cost), "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    validate("doa", doc)
    header, data = read_csv(cost)
    assert header == ["theta_deg", "cost_db"]
    assert data.shape[0] == 3601
    assert run_cli("doa", "--input", str(path), "--K", "-1", "--method", "music", "--grid=-90:90:0.05") == 1
    assert run_cli("doa", "--input", str(path), "--K", "2", "--spacing", "1.5") == 1  # aliased directions


def test_localize_command(tmp_path):
    g = RngStream(8).generator()
    n_dim = 10
    h = complex_gaussian(n_dim, n_dim, g)
    t_cov = h @ h.conj().T + np.eye(n_dim)
    model = {
        "H": [[[z.real, z.imag] for z in row] for row in h],
        "T": [[[z.real, z.imag] for z in row] for row in t_cov],
        "alphas": [-1.0] * n_dim,
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))

    spec = ScenarioSpec(
        "failure", n_dim, 120, 1, 8, {"n_params": n_dim, "alpha": -1.0, "failed_index": 2, "noise_var": 1.0}
    )
    # regenerate the observation with the same network matrix as the model file
    theta = complex_gaussian(n_dim, 120, RngStream(8, 0))
    w = complex_gaussian(n_dim, 120, RngStream(8, 1))
    gain = np.ones(n_dim)
    gain[2] = 0.0
    x = h @ (gain[:, None] * theta) + w
    te = np.linalg.eigh(t_cov)
    y = (te.eigenvectors / np.sqrt(te.eigenvalues)) @ te.eigenvectors.conj().T @ x
    y_path = tmp_path / "y.csv"
    save_matrix_csv(y_path, y)

    out = tmp_path / "loc.json"
    code = run_cli(
        "localize", "--input", str(y_path), "--model", str(model_path), "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    validate("localize", doc)
    assert doc["side"] == "smallest"
    assert doc["k_hat"] == 2


@pytest.mark.parametrize("change, message", [
    ({"alphas": 1.0}, "alphas must be a list"),
    ({"alphas": None}, "alphas must be a list"),
    ({"alphas": [math.nan, -1.0, -1.0, -1.0]}, "alphas must be finite"),
    ({"y_rows": 6}, "the observations have 6 rows but H has 4"),
], ids=["scalar-alphas", "null-alphas", "nan-alpha", "y-rows"])
def test_localize_refuses_a_malformed_model(tmp_path, capsys, change, message):
    g = RngStream(8).generator()
    h = complex_gaussian(4, 4, g)
    model = {
        "H": [[[z.real, z.imag] for z in row] for row in h],
        "T": [[[z.real, z.imag] for z in row] for row in h @ h.conj().T + np.eye(4)],
        "alphas": [-1.0] * 4,
    }
    model.update({k: v for k, v in change.items() if k != "y_rows"})
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    y_path = tmp_path / "y.csv"
    save_matrix_csv(y_path, complex_gaussian(change.get("y_rows", 4), 40, g))
    capsys.readouterr()
    assert run_cli("localize", "--input", str(y_path), "--model", str(model_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def _localize_files(tmp_path, alphas, n_dim=6, n_samples=40, zero_column=None):
    g = RngStream(9).generator()
    h = complex_gaussian(n_dim, len(alphas), g)
    if zero_column is not None:
        h[:, zero_column] = 0
    model = {
        "H": [[[z.real, z.imag] for z in row] for row in h],
        "T": [[[z.real, z.imag] for z in row] for row in h @ h.conj().T + np.eye(n_dim)],
        "alphas": alphas,
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    y_path = tmp_path / "y.csv"
    save_matrix_csv(y_path, complex_gaussian(n_dim, n_samples, g))
    return y_path, model_path


@pytest.mark.parametrize("alphas, side", [([1.0, 0.0, 1.0], "largest"), ([-1.0, 0.0, -1.0], "smallest")])
def test_localize_skips_a_zero_alpha(tmp_path, alphas, side):
    # omega = 0 is no spike: it is skipped and listed, whatever the other hypotheses' sign
    y_path, model_path = _localize_files(tmp_path, alphas)
    out = tmp_path / "loc.json"
    assert run_cli("localize", "--input", str(y_path), "--model", str(model_path), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate("localize", doc)
    assert doc["side"] == side
    assert doc["skipped_hypotheses"] == [1]
    assert len(doc["scores"]) == 2


def test_localize_refuses_all_zero_alphas(tmp_path, capsys):
    y_path, model_path = _localize_files(tmp_path, [0.0, 0.0, 0.0])
    capsys.readouterr()
    assert run_cli("localize", "--input", str(y_path), "--model", str(model_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no hypothesis is in the detectable regime" in err, err


def test_localize_refuses_a_zero_column_of_h(tmp_path):
    y_path, model_path = _localize_files(tmp_path, [1.0, 1.0, 1.0], zero_column=1)
    out = _run_as_process("localize", "--input", str(y_path), "--model", str(model_path))
    assert out.returncode == 1
    assert out.stderr == "error: column 1 of H is zero, so it has no spike direction\n", out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("alpha, message", [
    (1e200, "alphas must be finite numbers in [-1, 1e+150]"),  # (1 + alpha)^2 overflows a double
    (1e100, "overflows a double"),  # omega ~ 1e200, so Sigma_22 ~ c omega^2 overflows
])
def test_localize_refuses_a_huge_alpha(tmp_path, alpha, message):
    y_path, model_path = _localize_files(tmp_path, [alpha, 1.0, 1.0])
    out = _run_as_process("localize", "--input", str(y_path), "--model", str(model_path))
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert message in out.stderr and out.stdout == ""


def test_localize_scores_a_large_alpha(tmp_path):
    # omega ~ 1e120: every entry of the fluctuation covariance is still a double
    y_path, model_path = _localize_files(tmp_path, [1e60, 1.0, 1.0])
    out = _run_as_process("localize", "--input", str(y_path), "--model", str(model_path))
    assert out.returncode == 0 and out.stderr == "", out.stderr
    doc = validate("localize", json.loads(out.stdout))
    assert len(doc["scores"]) == 3 and all(math.isfinite(s) for s in doc["scores"])


@pytest.mark.parametrize("entry, message", [
    (1e200, "holds entries so large that its sample covariance overflows a double"),
    (math.nan, "holds a non-finite entry (nan or inf)"),
    (math.inf, "holds a non-finite entry (nan or inf)"),
], ids=["huge", "nan", "inf"])
def test_observation_matrix_is_refused_unless_finite(tmp_path, entry, message):
    # they printed numpy's overflow warning and "Eigenvalues did not converge", which names no cause
    y_path, model_path = _localize_files(tmp_path, [1.0, 1.0, 1.0])
    y = load_matrix_csv(y_path)
    y[2, 3] = entry
    save_matrix_csv(y_path, y)
    for argv in (("estimate", "--K", "1", "--mult", "6"), ("detect", "--far", "0.01"), ("doa", "--K", "1"),
                 ("localize", "--model", str(model_path))):
        out = _run_as_process(argv[0], "--input", str(y_path), *argv[1:])
        assert (out.returncode, out.stdout) == (1, ""), argv
        assert out.stderr == f"error: {y_path} {message}\n", (argv, out.stderr)


@pytest.mark.parametrize("key", ["H", "T", "alphas"])
def test_localize_model_missing_key_is_runtime_error(tmp_path, capsys, key):
    g = RngStream(8).generator()
    h = complex_gaussian(4, 4, g)
    model = {
        "H": [[[z.real, z.imag] for z in row] for row in h],
        "T": [[[z.real, z.imag] for z in row] for row in h @ h.conj().T + np.eye(4)],
        "alphas": [-1.0] * 4,
    }
    del model[key]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    y_path = tmp_path / "y.csv"
    save_matrix_csv(y_path, complex_gaussian(4, 40, g))
    capsys.readouterr()
    assert run_cli("localize", "--input", str(y_path), "--model", str(model_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"lacks {key} " in err


@pytest.mark.parametrize("tail", [b"\x01\x00", struct.pack("<qq", 2, 3) + bytes(16 * 6 + 1)],
                         ids=["short-header", "byte-over"])
def test_malformed_binary_input_is_runtime_error(tmp_path, capsys, tail):
    # every malformed layout is refused in load_matrix_bin (see test_linalg); the CLI reports it
    path = tmp_path / "y.bin"
    path.write_bytes(b"RMTM" + tail)
    capsys.readouterr()
    assert run_cli("detect", "--input", str(path), "--far", "0.01") == 1
    assert capsys.readouterr().err.startswith("error: ")


# --- reproduce / simulate ------------------------------------------------------------


def test_reproduce_unknown_id_exit_2(tmp_path):
    assert run_cli("reproduce", "fig99", "--out-dir", str(tmp_path)) == 2


def test_reproduce_fig3_top_bundle(tmp_path):
    out_dir = tmp_path / "fig3"
    assert run_cli("reproduce", "fig3-top", "--seed", "1", "--out-dir", str(out_dir)) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "fig3-top_histogram.csv" in files
    assert "fig3-top_limit.csv" in files
    manifest = json.loads((out_dir / "fig3-top_manifest.json").read_text())
    assert manifest["specs"][0]["N"] == 300 and manifest["specs"][0]["n"] == 3000
    assert manifest["bindings"] == ["EigBinding"]  # not the masses kind's default
    assert "build" in manifest


def test_reproduce_fig2_bundle(tmp_path):
    out_dir = tmp_path / "bundle"
    assert run_cli("reproduce", "fig2", "--seed", "1", "--out-dir", str(out_dir)) == 0
    manifest = json.loads((out_dir / "fig2_manifest.json").read_text())
    validate("manifest", manifest)
    assert manifest["figure"] == "fig2"
    assert (manifest["workers"], manifest["blas_threads"]) == (1, None)  # fig2 runs no Monte Carlo
    assert manifest["specs"] == manifest["bindings"] == []
    assert manifest["files"]
    for name in manifest["files"]:
        header, _ = read_csv(out_dir / name)
        assert header  # every CSV carries a header row


def test_simulate_command_reproducible(tmp_path):
    spec = ScenarioSpec("mp-null", 8, 24, 5, 17)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("simulate", "--spec", str(spec_path), "--out", str(out1)) == 0
    assert run_cli("simulate", "--spec", str(spec_path), "--workers", "2", "--out", str(out2)) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    validate("summary", a)
    assert a["aggregates"]["all_eigs"] == b["aggregates"]["all_eigs"]
    for doc, workers in ((a, 1), (b, 2)):
        manifest = validate("seed_manifest", doc["seed_manifest"])
        assert manifest["workers"] == workers and manifest["blas_threads"] in (None, 1)
    assert a["seed_manifest"]["blas_threads"] == b["seed_manifest"]["blas_threads"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_worker_count_is_runtime_error(tmp_path, capsys, workers):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(ScenarioSpec("mp-null", 8, 24, 5, 17).to_json())
    capsys.readouterr()
    assert run_cli("simulate", "--spec", str(spec_path), "--workers", workers) == 1
    # fig2 runs no Monte Carlo, and is refused all the same
    assert run_cli("reproduce", "fig2", "--workers", workers, "--out-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.count("error: workers must be an integer") == 2


@pytest.mark.parametrize("argv, err", [
    (("--workers", "0"), "workers must be an integer in [1, inf], got 0"),
    (("--seed", "-1"), f"seed must be an integer in [0, {2**64 - 1}], got -1"),
    (("--seed", str(2**64)), f"seed must be an integer in [0, {2**64 - 1}], got {2**64}"),
], ids=["workers-0", "seed-minus-1", "seed-2-64"])
def test_refused_reproduce_leaves_no_directory(tmp_path, capsys, argv, err):
    out_dir = tmp_path / "refused"
    capsys.readouterr()
    assert run_cli("reproduce", "fig2", *argv, "--out-dir", str(out_dir)) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("doc", [
    {"kind": "mp-null", "N": 8, "trials": 2, "seed": 1},  # no "n"
    {"kind": "masses", "N": 4, "n": 8, "trials": 2, "seed": 1, "params": {"atoms": [[1.0, "two"], [2.0, 2]]}},
    {"kind": "masses", "N": 4, "n": 8, "trials": 2, "seed": 1, "params": {"atoms": [[1.0, -2], [2.0, 6]]}},
    {"kind": "spike", "N": 8, "n": 16, "trials": 2, "seed": 1, "params": {"omegas": ["2.0"]}},
    {"kind": "mp-null", "N": 8, "n": 16, "trials": 2, "seed": -1},
    {"kind": "failure", "N": 8, "n": 16, "trials": 2, "seed": 1, "params": {"n_params": 2, "failed_index": 1.5}},
    {"kind": "mp-null", "N": 8, "n": 16, "trials": 2, "seed": 1, "params": [1, 2]},
    [1, 2, 3],
], ids=["missing-key", "string-mult", "negative-mult", "string-omega", "negative-seed", "fractional-index",
        "list-params", "not-an-object"])
def test_simulate_malformed_spec_is_runtime_error(tmp_path, capsys, doc):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("simulate", "--spec", str(spec_path)) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_refuses_a_failure_far_beyond_the_table(tmp_path, capsys):
    # it ran with the table's last knot as threshold and reported detection_rate 0.0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "failure", "N": 10, "n": 40, "trials": 5, "seed": 1,
                                     "params": {"n_params": 10, "alpha": -1.0, "failed_index": 0, "far": 1e-12}}))
    capsys.readouterr()
    assert run_cli("simulate", "--spec", str(spec_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: false alarm rate 1e-12 is beyond the Tracy-Widom table")
    assert "smallest usable rate is 3.82e-12" in err and err.count("\n") == 1
