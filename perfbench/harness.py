"""Fresh-process launching shared by the benchmark scripts.

Every child runs with the checkout's ``src/`` first on ``PYTHONPATH`` and
BLAS pinned to one thread, in its own process group, and is reaped with
``wait4`` so that its peak RSS (pool workers included, because the CLI waits
for them) comes back with its exit status.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ)
    env.update(BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_checkout():
    """Fail fast unless the program's sources are in this checkout."""
    cli = ROOT / "src" / "tfim_phases" / "cli.py"
    if not cli.is_file():
        sys.exit(f"perfbench: {cli} not found; run from a checkout of the repository")


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid, limit_s=10.0):
    """Wait until no process of the child's group is left (orphaned workers)."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        time.sleep(0.05)


def spawn(script, args, stdout_path, timeout_s):
    """Run ``python3 perfbench/<script> <args>`` to completion.

    Returns the spawn time (``time.monotonic``, comparable with the child's
    own clock), the exit code, the child's stderr tail, its peak RSS in MB
    and the JSON record the child wrote to ``<stdout_path>.json`` (None when
    it wrote none).
    """
    stdout_path = Path(stdout_path)
    record_path = stdout_path.with_name(stdout_path.name + ".json")
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / script), str(record_path), *map(str, args)]
    with open(stdout_path, "wb") as out:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.PIPE, start_new_session=True)
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _wait_group_gone(proc.pid)
    record = json.loads(record_path.read_text()) if record_path.is_file() else None
    return {
        "t_spawn": t_spawn,
        "rc": proc.returncode,
        "stderr": err.decode(errors="replace")[-2000:],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "record": record,
    }
