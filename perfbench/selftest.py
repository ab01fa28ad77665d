"""Tiny-size self-test of the benchmark itself; it has no timing bound.

Usage: python3 perfbench/selftest.py

It runs the --trace 0 and --trace 1 paths on two tiny workloads (a 6-point
sweep on 2 workers and the oracle at n = 4, 6), with one CLI invocation's
output as their reference, and checks that every metric of BENCHMARK.json
comes out with its unit.  It then checks that the reference comparison
accepts a 4.9e-12 shift and catches a flipped sign and a 2 pi branch jump,
and that the benchmark refuses to run in a directory without the program.
Exit code 0 means every check passed.
"""

import math
import shutil
import subprocess
import sys

import run as bench
from check import compare_text
from harness import ROOT, WORK_DIR, check_checkout, spawn
from workloads import SELFTEST

SEED = 3
FAILURES = []


def expect(condition, what):
    print(("PASS " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def reference_for(wl, work):
    """Output of one CLI invocation, used as the tiny workload's reference."""
    out_dir = work / "ref"
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout = work / "ref.out"
    res = spawn("invoke.py", wl.cli_args(SEED, out_dir), stdout, 120)
    expect(res["rc"] == 0, f"{wl.name}: CLI invocation exits 0")
    return (stdout if wl.is_oracle else wl.outputs(out_dir)[0]).read_text()


def check_metrics(label, metrics, spec):
    names = [m["name"] for m in spec]
    expect(metrics is not None and all(n in metrics for n in names),
           f"{label}: every metric present")
    expect(metrics is not None and all(isinstance(metrics[n], (int, float))
                                       and math.isfinite(metrics[n]) for n in names),
           f"{label}: every value a finite number")


def check_workloads(bench_spec, work):
    """Runs both tiny workloads; returns the sweep's reference text."""
    refs = {}
    for wl in SELFTEST.values():
        ref = refs[wl.name] = reference_for(wl, work / wl.name)
        metrics, cmp, _ = bench.run_untraced(wl, SEED, 1, work / f"{wl.name}-t0", ref)
        check_metrics(f"{wl.name} --trace 0", metrics, bench_spec["end_to_end"])
        expect(cmp.failed == 0 and cmp.rows == wl.rows(), f"{wl.name} --trace 0: outputs match")
        expect(all(metrics[m["name"]] > 0 for m in bench_spec["end_to_end"]),
               f"{wl.name} --trace 0: end-to-end metrics are never 0")
        metrics, cmp, info = bench.run_traced(wl, SEED, work / f"{wl.name}-t1", ref)
        expect(not info.get("missing_targets"), f"{wl.name} --trace 1: every layer target wrapped")
        check_metrics(f"{wl.name} --trace 1", metrics, bench_spec["per_layer"])
        expect(cmp.failed == 0 and cmp.rows == 2 * wl.rows(),
               f"{wl.name} --trace 1: untraced and traced outputs match")
        expect(metrics["ising.det_calls"] > 0 and metrics["ising.quad_calls"] > 0,
               f"{wl.name}: correlator and quadrature spans recorded")
        if wl.is_oracle:
            expect(metrics["ising.ed_calls"] == len(wl.n_sites), f"{wl.name}: one ED span per size")
        else:
            points = wl.rows()
            expect(metrics["phases.uhlmann_calls"] == 2 * points
                   and metrics["phases.interferometric_calls"] == 2 * points
                   and metrics["phases.point_count"] == points,
                   f"{wl.name}: two phase spans of each kind per point")
        expect(0 < metrics["trace.spans_s"] < metrics["trace.wall_s"],
               f"{wl.name}: layer spans lie within the traced wall")
    return refs["selftest_sweep"]


def _edit_cell(csv_text, column, edit):
    """Apply edit to the first non-zero value of column; returns the new text."""
    lines = csv_text.splitlines()
    col = lines[0].split(",").index(column)
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[col] and float(cells[col]) != 0.0:
            cells[col] = repr(edit(float(cells[col])))
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise ValueError(f"no non-zero value in {column}")


def check_tolerance(ref):
    cases = [
        ("accepts a 4.9e-12 shift", "delta_gamma_u", lambda x: x + 4.9e-12, 0),
        ("catches a flipped sign", "delta_gamma", lambda x: -x, 1),
        ("catches a 2 pi branch jump", "delta_gamma_u_unwrapped",
         lambda x: x + 2 * math.pi, 1),
    ]
    for what, column, edit, failed in cases:
        cmp = compare_text(_edit_cell(ref, column, edit), ref, "edited")
        expect(cmp.failed == failed, f"reference check {what}")


def check_bare_directory(work):
    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in (ROOT / "perfbench").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            dest = bare / path.relative_to(ROOT)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, dest)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ed_oracle",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "refuses to run without the program's sources")


def main():
    check_checkout()
    work = WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_tolerance(check_workloads(bench.load_benchmark(), work))
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
