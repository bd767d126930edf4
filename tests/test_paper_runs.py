import os
import pathlib
import signal
import subprocess
import sys
import time

RUNNER = pathlib.Path(__file__).resolve().parent.parent / "tools" / "paper_runs.py"


def _children(pid: int) -> list:
    """Pids of the live processes whose parent is ``pid``, read from /proc."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # gone since the listing
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:  # the field after the state is the parent's pid
            found.append(int(entry.name))
    return found


def test_a_stopped_runner_takes_its_figure_process_down(tmp_path):
    # a paper-scale fig7 child left running kept a 2-core host busy for about ten minutes
    out = tmp_path / "runs.json"
    runner = subprocess.Popen([sys.executable, str(RUNNER), "fig7", "--out", str(out)], stderr=subprocess.PIPE)
    children, passed = [], False
    try:
        deadline = time.monotonic() + 30
        while not children and time.monotonic() < deadline and runner.poll() is None:
            time.sleep(0.05)
            children = _children(runner.pid)
        assert children, "the runner started no figure process"
        runner.send_signal(signal.SIGTERM)
        assert runner.wait(timeout=5) == 128 + signal.SIGTERM
        assert not [pid for pid in children if os.path.exists(f"/proc/{pid}")]
        assert not out.exists()
        passed = True
    finally:
        if runner.poll() is None:
            runner.kill()
        for pid in [] if passed else children:  # a passed run has reaped them, and their pids may be reused
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        runner.wait(timeout=10)
        runner.stderr.close()
