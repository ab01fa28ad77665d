"""Regenerate the committed reference outputs of every workload and grid shift.

Usage: python3 perfbench/make_reference.py

Each reference is the raw output of one CLI invocation: the CSV of a sweep,
or the standard output of the oracle.  Regenerate only at a commit whose
outputs are known good; the benchmark compares later commits against them.
"""

import shutil
import sys

from harness import WORK_DIR, check_checkout, spawn
from workloads import SHIFTS, WORKLOADS


def main():
    check_checkout()
    out_dir = WORK_DIR / "make_reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    bad = 0
    for name, wl in WORKLOADS.items():
        for k in range(SHIFTS):
            stdout = out_dir / f"{name}.stdout"
            res = spawn("invoke.py", wl.cli_args(k, out_dir), stdout, timeout_s=600)
            src = stdout if wl.is_oracle else wl.outputs(out_dir)[0]
            text = src.read_text() if src.is_file() else ""
            statuses = [ln.rsplit(",", 1)[-1] for ln in text.splitlines()[1:]]
            if res["rc"] != 0 or (not wl.is_oracle and set(statuses) != {"ok"}):
                print(f"{name} shift {k}: failed (rc {res['rc']})\n{res['stderr']}",
                      file=sys.stderr)
                bad += 1
                continue
            dest = wl.reference(k)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dest)
            wall = res["record"]["done"] - res["record"]["start"]
            print(f"{name} shift {k}: {wall:.1f} s -> {dest}")
    shutil.rmtree(out_dir)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
