#!/usr/bin/env python3
"""Run bundled figures at paper scale and record what each run cost.

    python3 tools/paper_runs.py fig8 fig4 --out paper_runs.json

Each figure runs as ``rmt reproduce FIG --scale paper --seed 1`` in a fresh
process of this interpreter, from the ``src`` tree next to this script.  Per
figure, the JSON file gets the exit code, the wall time, and the CPU time
(user + system) and peak RSS of that child alone, read from its own rusage
with ``os.wait4``; ``RUSAGE_CHILDREN`` would report the largest peak over all
children so far.  It also gets the figure's manifest when the run wrote one.
The curve files go to a temporary directory and are dropped.

Each child leads a session of its own.  A runner stopped by SIGTERM or SIGINT
kills that session's process group, reaps the child and exits with status
128 + the signal number, writing no JSON file.

Paper-scale runs take minutes each (fig7 and fig8 about ten), so this is not
part of the test suite.
"""

import argparse
import json
import os
import pathlib
import signal
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
STOPS = (signal.SIGTERM, signal.SIGINT)


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_figure, which kills and reaps its child


def run_figure(figure: str, out_dir: pathlib.Path) -> dict:
    argv = [sys.executable, "-m", "rmt.cli", "reproduce", figure, "--scale", "paper", "--seed", "1",
            "--out-dir", str(out_dir)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    signal.pthread_sigmask(signal.SIG_BLOCK, STOPS)  # a stop waits until the child can be killed
    pid = None
    try:
        pid = os.posix_spawn(sys.executable, argv, env, setsid=True, setsigmask=())
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOPS)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        signal.pthread_sigmask(signal.SIG_BLOCK, STOPS)  # nor can a second stop cut the kill and reap short
        if pid is not None:
            os.killpg(pid, signal.SIGKILL)  # its session's group: pid, as setsid made it the leader
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOPS)
        raise
    wall = time.perf_counter() - start
    manifest = out_dir / f"{figure}_manifest.json"
    return {"figure": figure, "exit_code": os.waitstatus_to_exitcode(status), "wall_s": round(wall, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
            "manifest": json.loads(manifest.read_text()) if manifest.exists() else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figures", nargs="+", metavar="FIG", help="figure ids, run in the order given")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    for stop in STOPS:
        signal.signal(stop, _stop)
    runs = []
    for figure in args.figures:
        with tempfile.TemporaryDirectory() as tmp:
            runs.append(run_figure(figure, pathlib.Path(tmp)))
        print(json.dumps({k: v for k, v in runs[-1].items() if k != "manifest"}), file=sys.stderr)
    doc = {"command": "rmt reproduce FIG --scale paper --seed 1", "python": sys.version.split()[0],
           "cpus": os.cpu_count(), "runs": runs}
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if any(run["exit_code"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
