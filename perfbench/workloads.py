"""One measured process of the rmt benchmark.

``run.py`` starts this script in a fresh interpreter for every measurement,
so that set-up includes importing rmt.  Roles:

* ``setup``   set the workload up once and report the set-up time;
* ``run``     set up, run operations in a closed loop (one client, the next
              operation starts when the previous one returns) for the given
              number of seconds, then check every output;
* ``import``  time ``import rmt.cli`` alone.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy and rmt load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_REPEATS = 3  # reference kernel runs at every sampling point of an untraced run


def import_rmt():
    """Import rmt from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rmt

    if not pathlib.Path(rmt.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"rmt was imported from {rmt.__file__}, not from {src}")
    return rmt


# --- workloads ------------------------------------------------------------------


class McDense:
    """fig7's scenario: mp-null 256x768 eigenvalue trials, then fig7's
    Tracy-Widom post-processing.  One operation is one Monte-Carlo run."""

    unit = "trial"
    items = ("run",)
    workers = 1
    reference = "dense"
    n_dim, n_samples, trials = 256, 768, 40

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        if smoke:
            self.n_dim, self.n_samples, self.trials = 64, 192, 8

    def imports(self):
        import_rmt()
        from rmt import simulate, spikes

        self.sim, self.sp = simulate, spikes

    def setup(self):
        self.table = self.sp.default_tw_table()
        self.binding = self.sim.EigBinding("mp-null")

    def spec(self, op: int):
        # every operation draws new trials: its seed is derived from (seed, op)
        return self.sim.ScenarioSpec("mp-null", self.n_dim, self.n_samples, self.trials,
                                     self.seed * 1_000_003 + op)

    def run_op(self, op: int, workers: int):
        import numpy as np

        sim, sp = self.sim, self.sp
        spec = self.spec(op)
        agg = sim.run_monte_carlo(spec, self.binding, workers=workers).aggregates
        lam1 = agg["per_trial_max"]
        std = np.array([sp.tw_standardize(v, spec.n_dim, spec.ratio) for v in lam1])
        edges, _ = sim.histogram(std, 40, (-5.0, 3.0))
        centers = (edges[:-1] + edges[1:]) / 2
        np.gradient(np.array([sp.tracy_widom(self.table, s) for s in centers]), centers)
        return self.trials, {"aggregates": agg, "std": std}

    def op(self, op: int, pause):
        return self.run_op(op, self.workers)

    def check(self, op: int, out) -> list:
        return [self.ks_check(out["std"])]

    def ks_check(self, std):
        import numpy as np

        # criterion 6 allows 0.05 at 2000 trials; the Kolmogorov band scales as 1/sqrt(trials)
        tol = 0.05 * math.sqrt(2000 / std.size)
        xs = np.sort(std)
        cdf = np.array([self.sp.tracy_widom(self.table, x) for x in xs])
        n = xs.size
        ks = float(max(np.max(cdf - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - cdf)))
        return ("run", "tw_ks", ks < tol, f"ks={ks:.4f}<{tol:.4f}")


class McParallel(McDense):
    """The same runs as mc-dense through the process pool (workers = 2)."""

    workers = 2

    def check(self, op: int, out) -> list:
        checks = super().check(op, out)
        if op == 0:
            # worker invariance: mc-dense's serial run of the same spec, bit for bit
            serial = self.run_op(0, 1)[1]["aggregates"]
            same = all(serial[k].tobytes() == out["aggregates"][k].tobytes() for k in serial)
            checks.append(("run", "bit_identical_to_serial", same, "aggregates equal mc-dense's"))
        return checks


class FailureLoc:
    """fig8's scenario at n = 24 and n = 102.  Set-up calibrates both
    bindings; one operation is one Monte-Carlo run at each n."""

    unit = "trial"
    items = ("run",)
    workers = 1
    reference = "scalar"
    grid = (24, 102)
    trials = 200
    calibration_trials = 2000

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        if smoke:
            self.trials, self.calibration_trials = 50, 1000

    def imports(self):
        import_rmt()
        from rmt import simulate, spikes

        self.sim, self.sp = simulate, spikes

    def setup(self):
        self.sp.default_tw_table()
        self.runs = []
        for i, n in enumerate(self.grid):
            spec = self.sim.ScenarioSpec(
                "failure", 10, n, self.trials, self.seed * 1_000_003 + i,
                {"n_params": 10, "alpha": -1.0, "failed_index": 0, "noise_var": 1.0},
            )
            binding = self.sim.FailureBinding(far=1e-2, calibration_trials=self.calibration_trials)
            binding.prepare(spec)
            self.runs.append((n, spec, binding))

    def op(self, op: int, pause):
        rates = {}
        for n, spec, binding in self.runs:
            agg = self.sim.run_monte_carlo(spec, binding).aggregates
            rates[n] = (agg["detection_rate"], agg["localization_rate"])
        return self.trials * len(self.runs), rates

    def check(self, op: int, rates) -> list:
        cdr, clr = rates[102]
        return [("run", "clr_vs_cdr_n102", clr >= 0.95 * cdr and cdr > 0, f"clr={clr:.4f}>=0.95*cdr={cdr:.4f}>0")]


class SingleShot:
    """Analysis requests through ``rmt.cli.main``.  One operation is one
    session: the five requests below, in order, from one client."""

    unit = "request"
    items = ("fig3-top", "fig3-bottom", "estimate", "doa", "detect")
    workers = 1
    reference = "scalar"
    thirds = repr(1 / 3)
    atoms = {"fig3-top": (1.0, 3.0, 7.0), "fig3-bottom": (1.0, 3.0, 4.0)}
    expected_clusters = {"fig3-top": 3, "fig3-bottom": 2}
    mass_tol = 0.01
    estimate_rtol = 0.03
    doa_angles = (35.0, 37.0)
    doa_snr_db = 25.0

    draws = 8  # observation matrices per request kind, cycled over the sessions

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        if smoke:
            self.draws = 2

    def imports(self):
        import_rmt()
        from rmt import cli, spikes

        self.cli, self.sp = cli, spikes

    def setup(self):
        self.sp.default_tw_table()

    def make_inputs(self, work: pathlib.Path):
        """Draw the observation matrices from the seed and save them as binary files.

        Each request kind gets ``draws`` matrices, and session ``op`` uses draw
        ``op % draws``: how long the separation check takes depends on the draw,
        so one draw per run would make the run's latency follow the seed.
        """
        from rmt import linalg, simulate

        def draw(kind, n_dim, n_samples, params, name, i):
            spec = simulate.ScenarioSpec(kind, n_dim, n_samples, 1, self.seed * 1_000_003 + i, params)
            y, _ = simulate.generate_trial(spec, 0)
            path = work / f"{name}-{i}.bin"
            linalg.save_matrix_bin(path, y)
            return str(path)

        self.work = work
        self.inputs = [{
            "estimate": draw("masses", 300, 3000, {"atoms": [(1.0, 100), (3.0, 100), (7.0, 100)]}, "est", i),
            "doa": draw("doa", 20, 150, {"angles_deg": list(self.doa_angles), "snr_db": self.doa_snr_db}, "doa", i),
            # a clearly detectable spike: omega = 2 > sqrt(c) = 0.5
            "detect": draw("spike", 100, 400, {"omegas": [2.0]}, "det", i),
        } for i in range(self.draws)]

    def requests(self, op: int):
        w, inputs = self.work, self.inputs[op % self.draws]
        for figure, values in self.atoms.items():
            atoms = ",".join(f"{v:g}:{self.thirds}" for v in values)
            yield "density", figure, ["density", "--atoms", atoms, "--c", "0.1", "--grid", "0.05:11:0.01",
                                      "--out", str(w / f"{op}-{figure}.csv"),
                                      "--clusters-out", str(w / f"{op}-{figure}.json")]
        yield "estimate", "estimate", ["estimate", "--input", inputs["estimate"], "--K", "3",
                                       "--mult", "100,100,100", "--check-separation",
                                       "--out", str(w / f"{op}-estimate.json")]
        yield "doa", "doa", ["doa", "--input", inputs["doa"], "--K", "2", "--method", "gmusic",
                             "--out", str(w / f"{op}-doa.json")]
        yield "detect", "detect", ["detect", "--input", inputs["detect"], "--far", "0.01",
                                   "--out", str(w / f"{op}-detect.json")]

    def op(self, op: int, pause):
        latencies, codes = [], []
        sink = io.StringIO()
        for i, (kind, name, argv) in enumerate(self.requests(op)):
            if i:
                pause()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
            latencies.append((kind, time.perf_counter() - t0))
            codes.append((name, code))
        return len(latencies), {"latencies": latencies, "codes": codes}

    def check(self, op: int, out) -> list:
        import numpy as np

        w = self.work
        checks = [(name, "exit_code", code == 0, f"exit code {code}") for name, code in out["codes"]]
        for figure, want in self.expected_clusters.items():
            clusters = json.loads((w / f"{op}-{figure}.json").read_text())
            checks.append((figure, "clusters", len(clusters) == want, f"{len(clusters)} clusters, want {want}"))
            data = np.loadtxt(w / f"{op}-{figure}.csv", delimiter=",", skiprows=1, ndmin=2)
            mass = float(np.trapezoid(data[:, 1], data[:, 0]))
            checks.append((figure, "total_mass", abs(mass - 1) <= self.mass_tol, f"|{mass:.5f}-1|<={self.mass_tol}"))
        est = json.loads((w / f"{op}-estimate.json").read_text())
        rel = max(abs(p - t) / t for p, t in zip(est["P_hat"], (1.0, 3.0, 7.0)))
        checks.append(("estimate", "values", rel <= self.estimate_rtol, f"max rel err {rel:.4f}<={self.estimate_rtol}"))
        checks.append(("estimate", "separation", est["warnings"] == [], f"warnings={est['warnings']}"))
        doa = json.loads((w / f"{op}-doa.json").read_text())
        err = max((abs(a - t) for a, t in zip(doa["angles_deg"], self.doa_angles)), default=math.inf)
        checks.append(("doa", "resolved", doa["complete"] and err <= 1.0, f"complete={doa['complete']} err={err:.3f}<=1"))
        det = json.loads((w / f"{op}-detect.json").read_text())
        checks.append(("detect", "signal", det["signal"] is True, f"signal={det['signal']}"))
        return checks


WORKLOADS = {"mc-dense": McDense, "mc-parallel": McParallel, "failure-loc": FailureLoc, "single-shot": SingleShot}


# --- measurement ------------------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def provenance(seed: int, workers: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True, text=True,
                             timeout=10, cwd=ROOT, env=env)
        build = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        build = "git not available"
    return {
        "seed": seed,
        "build": build,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Reference:
    """A fixed kernel of the kind of work a workload does, using numpy but not rmt.

    The shared host runs the same code up to 1.7x slower, in phases of a
    fraction of a second to minutes.  Timed in this process between
    operations, and between the requests of a session, the kernel samples the
    host's speed for that kind of work along the run, so the run's latency
    can be stated in units of it.  ``dense``: the Gram matrix of a fixed
    256x768 complex matrix and its eigenvalues (BLAS and LAPACK, as in a
    Monte-Carlo trial).  ``scalar``: 1500 steps of a damped scalar fixed point
    over three atoms (small numpy calls in a Python loop, as in the Stieltjes
    solver).
    """

    def __init__(self, kind: str, repeats: int = REFERENCE_REPEATS):
        import numpy as np

        if kind == "dense":
            rng = np.random.default_rng(0)
            x = rng.standard_normal((256, 768)) + 1j * rng.standard_normal((256, 768))

            def work():
                np.linalg.eigvalsh(x @ x.conj().T)
        else:
            t, w = np.array([1.0, 3.0, 7.0]), np.full(3, 1 / 3)

            def work():
                m = 0.1 + 0.2j
                for _ in range(1500):
                    m = -1.0 / (0.5 + 0.001j - 0.1 * np.sum(w * t / (1.0 + t * m)))

        self.work, self.repeats = work, repeats
        work()  # warm-up
        self.readings = []  # every kernel time of the run
        self.paused_s = 0.0  # time spent sampling, taken out of the operation that sampled

    def sample(self):
        t_start = time.perf_counter()
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.work()
            self.readings.append(time.perf_counter() - t0)
        self.paused_s += time.perf_counter() - t_start


def timed_loop(wl, seconds: float, tracer, reference=None, first_op: int = 0):
    """Closed loop of operations until ``seconds`` have passed (at least one).

    An operation that raises is recorded with its traceback and the loop goes
    on; it counts as failed for every item it carries.  ``reference``, if
    given, is sampled after every operation and wherever the operation pauses
    (between a session's requests), outside the operation's time.
    """
    ops, errors = [], {}
    pause = reference.sample if reference else lambda: None
    t_phase = time.perf_counter()
    op = first_op
    while True:
        paused_s = reference.paused_s if reference else 0.0
        t0 = time.perf_counter()
        index = tracer.enter("bench.op") if tracer else None
        try:
            units, out = wl.op(op, pause)
        except Exception:
            units, out = 0, None
            errors[op] = traceback.format_exc(limit=4)
        finally:
            if tracer:
                tracer.exit(index)
        t1 = time.perf_counter()
        if reference:
            t1 -= reference.paused_s - paused_s
        pause()
        ops.append({"op": op, "s": t1 - t0, "units": units, "out": out})
        op += 1
        elapsed = time.perf_counter() - t_phase
        if elapsed >= seconds:
            return ops, errors, elapsed


def check_ops(wl, ops, errors) -> tuple:
    """Run the workload's output checks; returns (checks, failed (op, item) pairs)."""
    checks, failed = [], set()
    for o in ops:
        if o["op"] in errors:
            failed.update((o["op"], item) for item in wl.items)
            continue
        try:
            results = wl.check(o["op"], o["out"])
        except Exception:
            results = [(item, "check_raised", False, traceback.format_exc(limit=4)) for item in wl.items]
        for item, name, ok, detail in results:
            checks.append({"op": o["op"], "item": item, "name": name, "ok": bool(ok), "detail": detail})
            if not ok:
                failed.add((o["op"], item))
    return checks, failed


def role_run(args) -> dict:
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    wl.imports()
    tracer = None
    if args.trace:
        sys.path.insert(0, str(BENCH_DIR))
        from spans import Tracer, instrument_rmt

        tracer = Tracer()
        instrument_rmt(tracer)  # after the import: the wrappers need the modules loaded
    wl.setup()
    setup_s = time.perf_counter() - T_START

    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if tracer:
            tracer.phase = "inputs"
        if hasattr(wl, "make_inputs"):
            wl.make_inputs(work)
        if tracer:
            tracer.phase = "timed"
        reference = None if tracer else Reference(wl.reference)  # the traced run keeps its spans rmt's
        ops, errors, phase_s = timed_loop(wl, args.seconds, tracer, reference)
        if tracer:
            tracer.phase = "check"
        checks, failed = check_ops(wl, ops, errors)
        parallel = None
        if args.parallel_probe:
            # untraced worker-pool runs of the same problem, for the pool's efficiency
            pw = McParallel(args.seed, args.smoke)
            pw.imports()
            pw.setup()
            pops, perrors, _ = timed_loop(pw, args.seconds, None, first_op=len(ops))
            pchecks, pfailed = check_ops(pw, pops, perrors)
            parallel = {"trials": sum(o["units"] for o in pops), "busy_s": sum(o["s"] for o in pops),
                        "ops": len(pops), "failed": len(pfailed), "workers": pw.workers}
            checks += pchecks
            errors.update(perrors)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rss = peak_rss_mb()
    kinds = {}  # request kind -> latencies, single-shot only
    for o in ops:
        if wl.unit == "request" and o["out"] is not None:
            for kind, s in o["out"]["latencies"]:
                kinds.setdefault(kind, []).append(s)
    result = {
        "setup_s": setup_s,
        "unit": wl.unit,
        "op_s": [o["s"] for o in ops],
        "ref_s": reference.readings if reference else [],
        "units": sum(o["units"] for o in ops),
        "phase_s": phase_s,
        "kinds": kinds,
        "attempted": len(ops) * len(wl.items),
        "failed": len(failed),
        "errors": list(errors.values())[:3],
        "failed_checks": [c for c in checks if not c["ok"]][:10],
        "checks_run": len(checks),
        "checks_passed": sum(c["ok"] for c in checks),
        "parallel": parallel,
        "peak_rss_mb": rss,
        "provenance": provenance(args.seed, wl.workers),
    }
    if tracer:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer, result["units"], len(ops), phase_s)
        tracer.write_jsonl(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--role", choices=("setup", "run", "import"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="mc-dense")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--parallel-probe", action="store_true",
                        help="after the run, time the same problem through the worker pool")
    parser.add_argument("--smoke", action="store_true", help="minimal problem sizes")
    args = parser.parse_args(argv)

    if args.role == "import":
        t0 = time.perf_counter()
        import_rmt()
        import rmt.cli  # noqa: F401

        result = {"import_s": time.perf_counter() - t0}
    elif args.role == "setup":
        wl = WORKLOADS[args.workload](args.seed, args.smoke)
        wl.imports()
        wl.setup()
        result = {"setup_s": time.perf_counter() - T_START}
    else:
        result = role_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
