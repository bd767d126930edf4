"""Command-line front end.

Subcommands: mp-density, density, estimate, doa, detect, localize, reproduce,
simulate.  Machine-readable outputs only: CSVs always carry a header row and
JSON documents validate against the shipped schemas.  Exit codes: 0 success,
1 runtime/numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import pathlib
import sys

import numpy as np

from . import __version__
from . import gestimation as ge
from . import simulate as sim
from . import spikes as sp
from .doa import SteeringModel, estimate_doa
from .errors import DimensionError, ParameterError, RmtError
from .linalg import load_matrix_bin, load_matrix_csv, sample_covariance
from .schemas import validate
from .stieltjes import SpectralModel, density_from_stieltjes, mp_density, mp_support, support_clusters
from .simulate import FIGURE_IDS, ScenarioSpec, reproduce_figure, run_monte_carlo


_GRID_MAX = 10**6  # grid points per command: 8 MB a column


class UsageError(Exception):
    pass


def _arange(start: float, stop: float, step: float) -> np.ndarray:
    """``np.arange(start, stop, step)``, refused before allocating if it exceeds :data:`_GRID_MAX` points."""
    if (stop - start) / step > _GRID_MAX:
        raise ParameterError(f"the grid would exceed the cap of {_GRID_MAX} points")
    return np.arange(start, stop, step)


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}, expected lo:hi:step") from exc
    if not (np.isfinite([lo, hi, step]).all() and step > 0 and hi > lo):
        raise UsageError(f"bad grid spec {text!r}")
    try:
        return _arange(lo, hi + step / 2, step)
    except ParameterError as exc:
        raise UsageError(f"bad grid spec {text!r}: {exc}") from exc


def _parse_atoms(text: str):
    atoms = []
    for part in text.split(","):
        try:
            v, w = (float(x) for x in part.split(":"))
        except ValueError as exc:
            raise UsageError(f"bad atom spec {part!r}, expected value:weight") from exc
        atoms.append((v, w))
    return tuple(atoms)


def _load_matrix(path: str) -> np.ndarray:
    """The observation matrix in ``path``; refused unless its entries are finite
    and the sum of their squared moduli, which bounds every Gram entry, is too."""
    p = pathlib.Path(path)
    if not p.exists():
        raise UsageError(f"input file not found: {path}")
    y = load_matrix_csv(p) if p.suffix.lower() == ".csv" else load_matrix_bin(p)
    parts = y.view(float).ravel()  # the loaders return C-contiguous arrays
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(np.vdot(parts, parts))  # one BLAS pass; nan or inf on a non-finite entry too
    if not math.isfinite(energy):
        if not np.all(np.isfinite(parts)):
            raise ParameterError(f"{path} holds a non-finite entry (nan or inf)")
        raise ParameterError(f"{path} holds entries so large that its sample covariance overflows a double")
    return y


def _write_csv(path, columns: dict) -> None:
    """Header line of names, then one ``%.18e`` row per point: ``np.savetxt``'s bytes, one format call."""
    names = list(columns)
    data = np.column_stack([np.asarray(columns[n], dtype=float) for n in names])
    row = ",".join(["%.18e"] * len(names)) + "\n"
    pathlib.Path(path).write_text(",".join(names) + "\n" + (row * len(data)) % tuple(data.ravel().tolist()))


def _emit_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        pathlib.Path(out).write_text(text + "\n")
    else:
        print(text)


def _json_to_complex(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise UsageError("complex matrices in JSON must be [[re, im], ...] rows")
    return arr[..., 0] + 1j * arr[..., 1]


# --- subcommands ----------------------------------------------------------------


def cmd_mp_density(args) -> int:
    grid = _parse_grid(args.grid)
    values = mp_density(args.c, grid)
    a, b, mass0 = mp_support(args.c)
    _write_csv(args.out, {"x": grid, "f": values})
    print(f"support [{a:.6f}, {b:.6f}], mass at zero {mass0:.6f}, wrote {args.out}")
    return 0


def cmd_density(args) -> int:
    atoms = _parse_atoms(args.atoms)
    model = SpectralModel(atoms, args.c)
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        hi = max(v for v, _ in atoms) * (1 + args.c**0.5) ** 2 * 1.4
        grid = _arange(0.01, hi, 0.01)
    dens = density_from_stieltjes(model, grid, eps=args.eps)
    clusters = support_clusters(model) if args.clusters_out else None  # may refuse: before any file is written
    _write_csv(args.out, {"x": dens.grid, "f": dens.values})
    if clusters is not None:
        doc = [
            {"lo": lo, "hi": hi_, "mass": mass}
            for (lo, hi_), mass in zip(clusters.intervals, clusters.masses)
        ]
        pathlib.Path(args.clusters_out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"mass at zero {dens.mass_at_zero:.6f}, wrote {args.out}")
    return 0


def cmd_estimate(args) -> int:
    y = _load_matrix(args.input)
    n_dim = y.shape[0]
    n_samples = args.n if args.n is not None else y.shape[1]
    if n_samples < 1:
        raise UsageError("--n must be at least 1")
    try:
        mult = tuple(int(m) for m in args.mult.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --mult {args.mult!r}, expected comma-separated integers") from exc
    if len(mult) != args.K:
        raise UsageError("--mult must list K multiplicities")
    eigs = np.clip(np.linalg.eigvalsh(sample_covariance(y)), 0.0, None)
    clusters = ge.clusters_from_gaps(eigs, args.K, mult)
    if args.method == "classical":
        est = ge.classical_estimate(eigs, clusters)
    elif args.method == "iid-channel":
        est = ge.power_estimate_iid_channel(eigs, n_dim, n_samples, clusters)
    else:
        est = ge.g_estimate(eigs, n_samples, clusters)
    warnings = list(ge.separation_warnings(est.values, mult, n_dim, n_samples)) if args.check_separation else []
    if not clusters.gap_aligned:
        warnings.append("cluster boundaries were not confirmed by spectral gaps")
    doc = validate(
        "estimate",
        {
            "P_hat": [float(v) for v in est.values],
            "method": est.method,
            "N": int(n_dim),
            "n": int(n_samples),
            "warnings": warnings,
        },
    )
    _emit_json(doc, args.out)
    return 0


def cmd_doa(args) -> int:
    y = _load_matrix(args.input)
    model = SteeringModel(y.shape[0], args.spacing)
    grid = _parse_grid(args.grid)
    res = estimate_doa(y, args.K, model, grid, args.method)
    doc = validate(
        "doa",
        {"angles_deg": [float(a) for a in res.angles], "method": res.method, "complete": res.complete},
    )
    _emit_json(doc, args.out)
    if args.cost_out:
        cost_db = 10 * np.log10(np.maximum(res.costs, 1e-300))
        _write_csv(args.cost_out, {"theta_deg": res.grid, "cost_db": cost_db})
    return 0


def cmd_detect(args) -> int:
    y = _load_matrix(args.input)
    eigs = np.clip(np.linalg.eigvalsh(sample_covariance(y)), 0.0, None)
    decision = sp.glrt_test(eigs, y.shape[0], y.shape[1], args.far)
    doc = validate(
        "detect",
        {
            "signal": bool(decision.signal),
            "statistic": decision.statistic,
            "standardized": decision.standardized,
            "threshold": decision.threshold,
            "far": decision.false_alarm_rate,
        },
    )
    _emit_json(doc, args.out)
    return 0


def cmd_localize(args) -> int:
    y = _load_matrix(args.input)
    model = json.loads(pathlib.Path(args.model).read_text())
    missing = [key for key in ("H", "T", "alphas") if not isinstance(model, dict) or key not in model]
    if missing:
        raise ParameterError(f"model file lacks {', '.join(missing)} (it must hold H, T and alphas)")
    h = _json_to_complex(model["H"])
    t_cov = _json_to_complex(model["T"])
    if y.shape[0] != h.shape[0]:
        raise DimensionError(f"the observations have {y.shape[0]} rows but H has {h.shape[0]}: they must match")
    hyps = sp.failure_hypotheses(h, sp.inverse_sqrt(t_cov), model["alphas"])
    if all(hyp.omega <= 0 for hyp in hyps):
        side = "smallest"
    elif all(hyp.omega >= 0 for hyp in hyps):
        side = "largest"
    else:
        raise ParameterError("mixed-sign failure hypotheses are not supported")
    usable, stats, skipped = sp.localizable_hypotheses(hyps, y.shape[0] / y.shape[1])
    if not usable:
        raise ParameterError("no hypothesis is in the detectable regime at this N/n")
    eig = np.linalg.eigh(sample_covariance(y))
    idx = 0 if side == "smallest" else -1
    lam = float(eig.eigenvalues[idx])
    best, scores = sp.localize_failure(lam, eig.eigenvectors[:, idx], usable, stats)
    doc = validate(
        "localize",
        {
            "k_hat": int(usable[best].index),
            "scores": [float(s) for s in scores],
            "extreme_eigenvalue": lam,
            "side": side,
            "skipped_hypotheses": skipped,
        },
    )
    _emit_json(doc, args.out)
    return 0


def _git_describe() -> str:
    import subprocess  # deferred: only `reproduce` runs git

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=pathlib.Path(__file__).parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return f"rmt-{__version__}"


def cmd_reproduce(args) -> int:
    if args.figure not in FIGURE_IDS:
        raise UsageError(f"unknown figure id {args.figure!r}; known: {', '.join(FIGURE_IDS)}")
    result = reproduce_figure(args.figure, args.seed, args.scale, args.workers)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once the run is done: a refused one leaves no directory
    manifest = dict(result.pop("manifest", {}))
    written = []
    for name, columns in result.items():
        safe = name.replace("=", "").replace(".", "p")
        path = out_dir / f"{args.figure}_{safe}.csv"
        _write_csv(path, columns)
        written.append(path.name)
    manifest.update({"build": _git_describe(), "files": written})
    validate("manifest", manifest)
    (out_dir / f"{args.figure}_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(written)} curve files + manifest to {out_dir}")
    return 0


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def cmd_simulate(args) -> int:
    spec = ScenarioSpec.from_json(pathlib.Path(args.spec).read_text())
    binding = sim.MODELS[spec.kind].binding(spec)
    summary = run_monte_carlo(spec, binding, workers=args.workers)
    doc = validate(
        "summary",
        {
            "kind": spec.kind,
            "aggregates": _jsonable(summary.aggregates),
            "runtime_s": summary.runtime_s,
            "seed_manifest": validate("seed_manifest", summary.seed_manifest),
        },
    )
    _emit_json(doc, args.out)
    return 0


# --- parser -----------------------------------------------------------------------


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rmt {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mp-density", help="Marchenko-Pastur density on a grid")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--out", default="mp_density.csv")
    p.set_defaults(func=cmd_mp_density)

    p = subs.add_parser("density", help="limiting density of a discrete-spectrum model")
    p.add_argument("--atoms", required=True, help="value:weight,value:weight,...")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0,
                   help="imaginary offset of the evaluation points; 0 (the default) is the exact "
                        "real-axis density, > 0 the eps-smoothed one")
    p.add_argument("--grid", default=None, help="lo:hi:step (default spans the support)")
    p.add_argument("--out", default="density.csv")
    p.add_argument("--clusters-out", default=None, help="also write support intervals as JSON")
    p.set_defaults(func=cmd_density)

    p = subs.add_parser("estimate", help="population power estimation from observations")
    p.add_argument("--input", required=True, help="observation matrix (.csv or binary)")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--mult", required=True, help="comma-separated multiplicities")
    p.add_argument("--method", choices=("g", "classical", "iid-channel"), default="g")
    p.add_argument("--n", type=int, default=None, help="sample count override")
    p.add_argument("--check-separation", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("doa", help="direction-of-arrival estimation")
    p.add_argument("--input", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--method", choices=("music", "gmusic"), default="gmusic")
    p.add_argument("--grid", default="-90:90:0.05",
                   help="lo:hi:step in degrees: the search range (minima strictly inside it) "
                        "and the --cost-out samples")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--cost-out", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_doa)

    p = subs.add_parser("detect", help="GLRT signal detection")
    p.add_argument("--input", required=True)
    p.add_argument("--far", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = subs.add_parser("localize", help="failure localization from a model file")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True, help="JSON with H, T, alphas")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_localize)

    p = subs.add_parser("reproduce", help="re-run a bundled experiment")
    p.add_argument("figure", help=f"one of {', '.join(FIGURE_IDS)}")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", choices=("desk", "paper"), default="desk")
    p.add_argument("--out-dir", default="reproduce_out")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_reproduce)

    p = subs.add_parser("simulate", help="run a scenario JSON under its default binding")
    p.add_argument("--spec", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RmtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
