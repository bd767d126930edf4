"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the package's test collection: the smoke test
runs every workload and takes about a minute.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_times_add_up_to_root_span():
    tracer = Tracer()

    def leaf():
        sum(range(20_000))

    leaf_t = tracer.wrap(leaf, "x.leaf")

    def failing():
        leaf_t()
        raise ValueError("boom")

    failing_t = tracer.wrap(failing, "x.failing")

    def root():
        leaf_t()
        try:
            failing_t()
        except ValueError:
            pass

    tracer.wrap(root, "bench.op")()
    spans, self_t = tracer.spans, tracer.self_times()
    root_duration = spans[0][2] - spans[0][1]
    assert [s[0] for s in spans] == ["bench.op", "x.leaf", "x.failing", "x.leaf"]
    assert all(s >= 0 for s in self_t)
    assert abs(sum(self_t) - root_duration) < 1e-9
    assert spans[3][3] == 2  # the leaf inside the failing call is its child


def test_instrumentation_reaches_from_imports():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import rmt.cli, rmt.simulate as sim\n"
        "from spans import Tracer, instrument_rmt\n"
        "t = Tracer(); instrument_rmt(t)\n"
        "sim.generate_trial(sim.ScenarioSpec('mp-null', 4, 8, 1, 0), 0)\n"
        "print(sorted({s[0] for s in t.spans}))\n"
        "print(rmt.cli.run_monte_carlo is sim.run_monte_carlo, rmt.simulate.complex_gaussian.__name__)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH_DIR)],
                         capture_output=True, text=True, timeout=120, check=True).stdout.splitlines()
    assert out[0] == "['linalg.complex_gaussian', 'simulate.generate_trial']"
    assert out[1] == "True complex_gaussian"


def test_reference_time_is_taken_out_of_the_operation():
    import workloads

    class Pausing:
        def op(self, op, pause):
            time.sleep(0.05)
            pause()
            return 1, None

    reference = workloads.Reference("scalar", repeats=6)
    ops, errors, _ = workloads.timed_loop(Pausing(), 0.01, None, reference)
    assert not errors and len(ops) == 1
    assert len(reference.readings) == 12  # a pause inside the operation and one after it
    assert 0.05 <= ops[0]["s"] < 0.05 + sum(reference.readings[:6]) / 2


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) == (None, None)
    assert run.tail_percentile(list(range(100)))[0] == 90.0
    assert run.tail_percentile(list(range(1000)))[0] == 99.0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-dense", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_smoke_every_workload():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "problems": 0}
