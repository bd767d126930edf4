#!/usr/bin/env python3
"""Check that two ``src`` trees of rmt give the same outputs, byte for byte.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--keep DIR]

Each tree runs the same requests, each in a fresh process of this interpreter
with PYTHONPATH set to that tree:

* ``rmt reproduce FIG --seed 1`` at desk scale for every figure id of OLD_SRC;
* ``rmt estimate`` with each ``--method`` and with ``--check-separation``,
  and on a rank-deficient input (n < N), ``rmt detect``, ``rmt doa`` with
  ``--cost-out`` (both methods), ``rmt localize``, ``rmt density
  --clusters-out`` on three atoms and on six, three of them close together,
  ``rmt density`` at c > 1 and on a model with an atom of weight 1e-20, and
  ``rmt mp-density``, on input files drawn once, with OLD_SRC;
* ``rmt simulate`` on one scenario per kind;
* one script that prints the SHA-256 of every per-trial record column of
  three desk runs at seed 1: fig5's spec under ``DoaResolutionBinding``,
  fig8's first two under ``FailureBinding`` and fig6's under
  ``DetectionRocBinding``.  Those figures report only rates, so a flipped
  decision or a changed statistic that moves no rate shows only here.

Every file a request writes, and its exit code, stdout and stderr, are
compared between the trees byte for byte, except a reproduce manifest's
``build`` and ``rmt simulate``'s ``runtime_s``, which are left out.  One line
is printed per output; the exit status is 1 if any output differs or exists
in one tree only, else 0.  Both trees take about a minute each on a 2-core
machine, so this is not part of the test suite.
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

# run under OLD_SRC, with the inputs directory as argv[1]
DRAW_INPUTS = """
import json, pathlib, sys
import numpy as np
from rmt.linalg import save_matrix_bin, save_matrix_csv
from rmt.simulate import ScenarioSpec, generate_trial

out = pathlib.Path(sys.argv[1])
def draw(kind, n_dim, n_samples, params):
    return generate_trial(ScenarioSpec(kind, n_dim, n_samples, 1, 7, params), 0)[0]
save_matrix_bin(out / "masses.bin", draw("masses", 120, 1200, {"atoms": [[1.0, 40], [3.0, 40], [7.0, 40]]}))
save_matrix_bin(out / "masses-wide.bin", draw("masses", 120, 80, {"atoms": [[1.0, 40], [3.0, 40], [7.0, 40]]}))
save_matrix_csv(out / "spike.csv", draw("spike", 60, 240, {"omegas": [2.0]}))
save_matrix_bin(out / "doa.bin", draw("doa", 20, 150, {"angles_deg": [35.0, 37.0], "snr_db": 25.0}))
spec = ScenarioSpec("failure", 10, 120, 1, 8, {"n_params": 10, "alpha": -1.0, "failed_index": 2})
h, rows = spec.state.network, lambda a: [[[z.real, z.imag] for z in row] for row in a]
model = {"H": rows(h), "T": rows(h @ h.conj().T + spec.state.noise_var * np.eye(10)), "alphas": [-1.0] * 10}
(out / "failure_model.json").write_text(json.dumps(model))
save_matrix_csv(out / "failure.csv", generate_trial(spec, 0)[0])
"""

FIGURES = "import json; from rmt.simulate import FIGURE_IDS; print(json.dumps(FIGURE_IDS))"

# run under each tree: the per-trial record hashes, a line per column
RECORDS = """
import hashlib
from rmt.simulate import FIGURES, MODELS, run_monte_carlo

for fig, runs in (("fig5", 1), ("fig8", 2), ("fig6", 1)):
    figure = FIGURES[fig]
    for spec in figure.specs(1, True)[:runs]:
        binding = figure.binding or MODELS[spec.kind].binding(spec)
        for name, column in run_monte_carlo(spec, binding).records.items():
            print(fig, f"n={spec.n_samples}", type(binding).__name__, name, column.dtype, column.shape,
                  hashlib.sha256(column.tobytes()).hexdigest())
"""

SCENARIOS = {
    "mp-null": (64, 192, 20, {"snr_db": 0.0}),
    "masses": (30, 120, 10, {"atoms": [[1.0, 10], [3.0, 10], [7.0, 10]]}),
    "spike": (40, 160, 10, {"omegas": [2.0]}),
    "iid-channel": (24, 128, 10, {"powers": [0.5, 2.0], "multiplicities": [2, 2], "snr_db": 6.0}),
    "doa": (10, 40, 10, {"angles_deg": [20.0, 35.0], "snr_db": 5.0}),
    "failure": (10, 60, 10, {"n_params": 10, "alpha": -1.0, "failed_index": 2}),
}


# six atoms, three of them within 5.58..5.80, whose support has four clusters at c = 0.0069
SIX_ATOMS = ("1.249586445937074:0.20836043577824387,5.581832270135483:0.12165974486714823,"
             "5.620285800630414:0.20143465309183042,5.796345931840999:0.11446412473362506,"
             "6.6426622998788725:0.18613993563119702,8.664197692803588:0.1679411058979554")


def requests(inputs: pathlib.Path, figures):
    """(name, rmt arguments) of every request; outputs are named relative to the tree's directory."""
    for fig in figures:
        yield f"reproduce-{fig}", ["reproduce", fig, "--seed", "1", "--scale", "desk", "--out-dir", "reproduce"]
    masses = ["--input", str(inputs / "masses.bin"), "--K", "3", "--mult", "40,40,40"]
    for method in ("g", "classical", "iid-channel"):
        yield f"estimate-{method}", ["estimate", *masses, "--method", method, "--out", f"estimate-{method}.json"]
    yield "estimate-separation", ["estimate", *masses, "--check-separation", "--out", "estimate-separation.json"]
    yield "estimate-wide", ["estimate", "--input", str(inputs / "masses-wide.bin"), "--K", "3", "--mult", "40,40,40",
                            "--out", "estimate-wide.json"]
    yield "detect", ["detect", "--input", str(inputs / "spike.csv"), "--far", "0.01", "--out", "detect.json"]
    for method in ("music", "gmusic"):
        yield f"doa-{method}", ["doa", "--input", str(inputs / "doa.bin"), "--K", "2", "--method", method,
                                "--cost-out", f"doa-{method}-cost.csv", "--out", f"doa-{method}.json"]
    yield "localize", ["localize", "--input", str(inputs / "failure.csv"),
                       "--model", str(inputs / "failure_model.json"), "--out", "localize.json"]
    yield "density", ["density", "--atoms", "1:0.3,3:0.3,7:0.4", "--c", "0.1", "--out", "density.csv",
                      "--clusters-out", "density-clusters.json"]
    yield "density-c2", ["density", "--atoms", "1:0.5,4:0.5", "--c", "2", "--out", "density-c2.csv"]
    yield "density-light", ["density", "--atoms", "1:1e-20,3:1", "--c", "0.5", "--out", "density-light.csv"]
    yield "density-six", ["density", "--atoms", SIX_ATOMS, "--c", "0.006946147411187864", "--out", "density-six.csv",
                          "--clusters-out", "density-six-clusters.json"]
    yield "mp-density", ["mp-density", "--c", "0.5", "--grid", "0:3:0.01", "--out", "mp-density.csv"]
    for kind in SCENARIOS:
        yield f"simulate-{kind}", ["simulate", "--spec", str(inputs / f"{kind}.json"), "--out", f"simulate-{kind}.json"]


def python(src: pathlib.Path, args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def run_tree(src: pathlib.Path, out: pathlib.Path, inputs: pathlib.Path, figures) -> None:
    out.mkdir()
    runs = [(name, ["-m", "rmt.cli", *args]) for name, args in requests(inputs, figures)]
    for name, args in runs + [("records", ["-c", RECORDS])]:
        done = python(src, args, out)
        (out / f"{name}.log").write_text(f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}")


# the top-level JSON lines that differ between any two runs: a manifest's git
# describe and a simulate summary's wall time
VARYING = re.compile(rb'^  "(build|runtime_s)": [^\n]*\n', re.MULTILINE)


def comparable(path: pathlib.Path) -> bytes:
    """The bytes compared: the file's, less its :data:`VARYING` lines."""
    return VARYING.sub(b"", path.read_bytes())


def compare(old: pathlib.Path, new: pathlib.Path) -> int:
    names = sorted({p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()})
    differ = 0
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            verdict = "only in " + ("new" if (new / name).exists() else "old")
        else:
            verdict = "same" if comparable(old / name) == comparable(new / name) else "DIFFERS"
        differ += verdict != "same"
        print(f"{verdict:>11}  {name}")
    print(f"{len(names) - differ} of {len(names)} outputs the same")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=pathlib.Path)
    parser.add_argument("new_src", type=pathlib.Path)
    parser.add_argument("--keep", type=pathlib.Path, default=None,
                        help="write inputs and outputs into this new directory and keep them")
    args = parser.parse_args(argv)
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.keep or pathlib.Path(tmp)
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        for script, what in ((DRAW_INPUTS, "drawing the inputs"), (FIGURES, "listing the figure ids")):
            done = python(old_src, ["-c", script, str(inputs)], work)
            if done.returncode:
                sys.exit(f"{what} with {old_src} failed:\n{done.stderr}")
        figures = json.loads(done.stdout)
        for kind, (n_dim, n_samples, trials, params) in SCENARIOS.items():
            spec = {"kind": kind, "N": n_dim, "n": n_samples, "trials": trials, "seed": 11, "params": params}
            (inputs / f"{kind}.json").write_text(json.dumps(spec))
        for src, side in ((old_src, "old"), (new_src, "new")):
            run_tree(src, work / side, inputs, figures)
        return compare(work / "old", work / "new")


if __name__ == "__main__":
    sys.exit(main())
