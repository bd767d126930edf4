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

Paper-scale runs take minutes each (fig7 and fig8 about ten), so this is not
part of the test suite.
"""

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_figure(figure: str, out_dir: pathlib.Path) -> dict:
    argv = [sys.executable, "-m", "rmt.cli", "reproduce", figure, "--scale", "paper", "--seed", "1",
            "--out-dir", str(out_dir)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
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
