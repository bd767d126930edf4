"""rmt benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload mc-dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Every measurement runs in a fresh interpreter (``workloads.py``), so set-up
includes importing rmt.  ``--trace 0`` sets up several times and reports the
median set-up time, then runs the workload's closed loop for ``--seconds``.
``--trace 1`` makes one untraced and one traced run of half that length each
and reports per-layer numbers from the traced one, with the tracing overhead.

The second-to-last line of standard output is a JSON report (every metric by
name with its unit, the output checks and the provenance); the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.  Nothing
here sets a BLAS thread variable: the program runs as its users run it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mc-dense", "mc-parallel", "failure-loc", "single-shot")
MC_WORKLOADS = ("mc-dense", "mc-parallel")
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SETUP_REPEATS = 7  # fresh set-ups per run: half before the timed run, the rest after it
SELF_SUM_TOLERANCE = 0.01  # traced self times must add up to the traced phase's wall time

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_rel": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "linalg.self_ms": "ms",
    "linalg.draw_ms": "ms",
    "linalg.gram_ms": "ms",
    "linalg.eig_ms": "ms",
    "linalg.gram_gflops": "GFLOP/s",
    "linalg.eig_calls_per_trial": "count",
    "linalg.setup_eig_s": "s",
    "simulate.self_ms": "ms",
    "simulate.generate_trial_ms": "ms",
    "simulate.per_trial_ms": "ms",
    "simulate.prepare_s": "s",
    "simulate.reduce_ms": "ms",
    "simulate.parallel_efficiency": "ratio",
    "spikes.self_ms": "ms",
    "spikes.calibrate_s": "s",
    "spikes.usable_hypotheses_ratio": "ratio",
    "spikes.localize_us": "us",
    "spikes.tw_lookup_us": "us",
    "spikes.tw_quantile_ms": "ms",
    "stieltjes.self_ms": "ms",
    "stieltjes.point_us": "us",
    "stieltjes.solver_iters_p50": "count",
    "stieltjes.solver_iters_max": "count",
    "stieltjes.skipped_points": "count",
    "gestimation.self_ms": "ms",
    "gestimation.estimate_ms": "ms",
    "gestimation.separation_ms": "ms",
    "gestimation.gap_aligned_ratio": "ratio",
    "doa.self_ms": "ms",
    "doa.steering_ms": "ms",
    "doa.weights_ms": "ms",
    "doa.cost_ms": "ms",
    "doa.complete_ratio": "ratio",
    "cli.self_ms": "ms",
    "cli.import_s": "s",
    "trace.unattributed_ratio": "ratio",
    "trace.self_sum_error": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


class Clock:
    """Remaining time of this invocation, handed to each child as its timeout."""

    def __init__(self, budget_s: float):
        self.end = time.monotonic() + budget_s

    def remaining(self) -> float:
        left = self.end - time.monotonic()
        if left <= 1:
            raise BenchError("time budget exhausted")
        return left


def child(clock: Clock, role: str, workload: str, seed: int, seconds: float = 1.0, *flags: str) -> dict:
    """Run ``workloads.py`` in a fresh interpreter; return its JSON result.

    The child leads a process group of its own, with the reference process and
    any pool workers it starts; if it outlives the budget, or this process is
    interrupted, the whole group is killed and reaped.
    """
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--role", role, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), *flags]
    timeout = clock.remaining()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{role} {workload} did not finish in time") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"{role} {workload} exited {proc.returncode}:\n{stderr[-3000:]}")
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{role} {workload} printed no result:\n{stdout[-2000:]}") from exc


def tail_percentile(samples):
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it
    (nearest-rank), or (None, None) when there are too few samples."""
    n = len(samples)
    ordered = sorted(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(round(q * n / 100, 9))
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1]
    return None, None


def latency_summary(samples_s) -> dict:
    q, value = tail_percentile(samples_s)
    return {"p50_ms": statistics.median(samples_s) * 1e3, "tail_q": q,
            "tail_ms": None if value is None else value * 1e3, "samples": len(samples_s)}


def end_to_end(run: dict, setups: list) -> tuple:
    """The bounded metrics, plus the report's named diagnostics.

    ``latency_rel`` is the run's mean operation latency divided by the mean
    time of the workload's reference kernel, timed in the same process after
    every operation and between a session's requests: the operation's cost in
    units of the host's speed along the run.  The host's speed drifts between runs by more than a bound
    allows, and the ratio cancels that drift.  The latency in milliseconds and
    the reference's time are in the report.
    """
    setup_s = statistics.median(setups)
    op_p50 = statistics.median(run["op_s"])
    throughput = run["units"] / sum(run["op_s"])
    ref = run["ref_s"]
    metrics = {
        "setup_s": setup_s,
        "latency_rel": statistics.fmean(run["op_s"]) / statistics.fmean(ref),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    named = {"latency_p50_ms": {"value": op_p50 * 1e3, "unit": "ms"},
             "latency_mean_ms": {"value": statistics.fmean(run["op_s"]) * 1e3, "unit": "ms"},
             "reference_mean_ms": {"value": statistics.fmean(ref) * 1e3, "unit": "ms"},
             "wall_s": {"value": setup_s + op_p50, "unit": "s"},
             "fail_ratio": {"value": run["failed"] / run["attempted"], "unit": "ratio"},
             "operation": latency_summary(run["op_s"]) | {"unit": "ms"}}
    if run["unit"] == "request":
        named["requests_per_s"] = {"value": throughput, "unit": "1/s"}
        for kind, samples in run["kinds"].items():
            named[f"{kind}_p50_ms"] = latency_summary(samples) | {"unit": "ms"}
    else:
        named["trials_per_s"] = {"value": throughput, "unit": "1/s"}
    return metrics, named


def measure(workload: str, seed: int, seconds: float, smoke: bool, clock: Clock) -> tuple:
    flags = ("--smoke",) if smoke else ()
    repeats = 2 if smoke else SETUP_REPEATS
    setups = [child(clock, "setup", workload, seed, 0, *flags)["setup_s"] for _ in range(repeats // 2)]
    run = child(clock, "run", workload, seed, seconds, *flags)
    setups.append(run["setup_s"])
    setups += [child(clock, "setup", workload, seed, 0, *flags)["setup_s"] for _ in range(repeats - len(setups))]
    metrics, named = end_to_end(run, setups)
    report = {"named": named, "setup_samples": setups, "runs": [run]}
    return metrics, END_TO_END_UNITS, run["attempted"], run["failed"], report


def measure_traced(workload: str, seed: int, seconds: float, smoke: bool, clock: Clock) -> tuple:
    """Per-layer numbers: an untraced and a traced run of the same workload.

    mc-parallel's spans would sit in pool workers, which are not collected, so
    its traced numbers come from the serial mc-dense trace; both Monte-Carlo
    workloads also time the worker pool (untraced) for its parallel efficiency.
    """
    flags = ("--smoke",) if smoke else ()
    traced_workload = "mc-dense" if workload in MC_WORKLOADS else workload
    probe = ("--parallel-probe",) if workload in MC_WORKLOADS else ()
    imported = child(clock, "import", traced_workload, seed, 0)
    plain = child(clock, "run", traced_workload, seed, seconds / 2, *flags, *probe)
    traced = child(clock, "run", traced_workload, seed, seconds / 2, *flags, "--trace")

    def wall(run):
        return run["setup_s"] + statistics.median(run["op_s"])

    metrics = dict(traced["layers"])
    metrics["cli.import_s"] = imported["import_s"]
    parallel = plain["parallel"]
    if parallel and parallel["busy_s"] > 0:
        serial_rate = plain["units"] / sum(plain["op_s"])
        pool_rate = parallel["trials"] / parallel["busy_s"]
        metrics["simulate.parallel_efficiency"] = pool_rate / (parallel["workers"] * serial_rate)
    else:
        metrics["simulate.parallel_efficiency"] = 0.0
    metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / wall(plain)
    attempted = plain["attempted"] + traced["attempted"] + (parallel["ops"] if parallel else 0)
    failed = plain["failed"] + traced["failed"] + (parallel["failed"] if parallel else 0)
    report = {"traced_workload": traced_workload, "untraced_wall_s": wall(plain), "traced_wall_s": wall(traced),
              "runs": [plain, traced]}
    return metrics, PER_LAYER_UNITS, attempted, failed, report


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple:
    clock = Clock(DEADLINE_S)
    measure_fn = measure_traced if trace else measure
    metrics, units, attempted, failed, report = measure_fn(workload, seed, seconds, smoke, clock)
    checks_ok = all(not r["failed_checks"] and not r["errors"] for r in report["runs"])
    result = {
        "correct": bool(failed == 0 and checks_ok),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "checks": [{k: r[k] for k in ("checks_run", "checks_passed", "failed_checks", "errors")}
                   for r in report["runs"]],
        "provenance": report["runs"][-1]["provenance"],
    }
    summary.update({k: v for k, v in report.items() if k != "runs"})
    return result, summary


# --- smoke mode --------------------------------------------------------------------


def smoke() -> int:
    """Every workload at minimal size, traced and untraced: every metric that
    BENCHMARK.json names is emitted with its unit, every output check passes,
    and traced self times add up to the traced phase's wall time."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            try:
                result, summary = run_workload(workload, 1, 0.5, bool(trace), smoke=True)
            except BenchError as exc:
                problems.append(f"{label}: {exc}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: output checks failed: {summary['checks']}")
            if trace:
                err = result["metrics"]["trace.self_sum_error"]["value"]
                if err > SELF_SUM_TOLERANCE:
                    problems.append(f"{label}: self times miss the traced wall time by {err:.2%}")
            print(f"smoke {label}: attempted={result['attempted']} failed={result['failed']}", flush=True)
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at minimal size and check the output")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rmt" / "__init__.py").is_file():
        print(f"error: no rmt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        result, summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
