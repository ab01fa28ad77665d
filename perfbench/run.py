"""Benchmark of the tfim-phases CLI, end to end and per layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --list     # every metric with its unit, workloads, predictions

Run it from the root of a checkout.  Every CLI invocation runs in a fresh
process (cold caches, BLAS pinned to one thread) through
``tfim_phases.cli.main``; its outputs are checked against the committed
reference for the seed's grid shift (see check.py and workloads.py).

--trace 0  One closed loop: a few set-up probes (import only), then CLI
           invocations back to back while the next one still fits into
           --seconds (at least one).  Prints the end-to-end metrics as
           medians over the invocations.
--trace 1  One untraced invocation, then the same invocation at 1 worker
           through traced.py, which puts a span around every call into a
           layer.  Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
The same result is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from check import Comparison, compare_text, svg_problem
from harness import BLAS_PIN, HERE, ROOT, WORK_DIR, check_checkout, spawn
from workloads import WORKLOADS

SETUP_PROBES = 6
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s it is allowed


class Run:
    """Shared state of one benchmark run: its scratch directory and deadline."""

    def __init__(self, work):
        self.work = work
        self.started = time.monotonic()
        work.mkdir(parents=True, exist_ok=True)

    def timeout(self):
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))


def _check_module(record):
    module = os.path.realpath(record["module"])
    if not module.startswith(os.path.realpath(ROOT / "src") + os.sep):
        sys.exit(f"perfbench: imported {module}, not the checkout's src/")


def setup_probe(run):
    res = spawn("invoke.py", [], run.work / "probe.out", run.timeout())
    if res["record"] is None:
        sys.exit(f"perfbench: import of tfim_phases failed\n{res['stderr']}")
    _check_module(res["record"])
    return res["record"]["ready"] - res["t_spawn"]


def invoke(run, wl, seed, reference, spans=None):
    """One CLI invocation in a fresh process, timed and checked.

    With ``spans`` (a path) it runs traced.py at 1 worker, which writes the
    layer spans there; otherwise invoke.py at the workload's pool size.
    """
    out_dir = run.work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    stdout = run.work / "cli.out"
    if spans is None:
        label, script, args = "cli", "invoke.py", wl.cli_args(seed, out_dir)
    else:
        label, script = "traced", "traced.py"
        args = [spans, *wl.cli_args(seed, out_dir, workers=1)]
    t0 = time.monotonic()
    res = spawn(script, args, stdout, run.timeout())
    duration = time.monotonic() - t0
    rec = res["record"]
    cmp = Comparison()
    if rec is None or res["rc"] != 0 or rec["rc"] != 0:
        cmp.fail_all(wl.rows(), f"{label} invocation failed (rc {res['rc']}): {res['stderr']}")
        wall, setup = duration, None
    else:
        _check_module(rec)
        wall, setup = rec["done"] - rec["start"], rec["ready"] - res["t_spawn"]
        if wl.is_oracle:
            cmp = compare_text(stdout.read_text(), reference, label)
        else:
            csv, svg = wl.outputs(out_dir)
            problem = svg_problem(svg, len(wl.r_list) * len(wl.theta_list))
            if not csv.is_file() or problem:
                cmp.fail_all(wl.rows(), problem or f"{csv} missing")
            else:
                cmp = compare_text(csv.read_text(), reference, label)
    return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": res["peak_rss_mb"],
            "duration_s": duration, "rows": wl.rows(), "check": cmp,
            "missing_targets": (rec or {}).get("missing_targets", [])}


def run_untraced(wl, seed, seconds, work, reference):
    """The closed loop of --trace 0; returns (end-to-end metrics, Comparison, info)."""
    run = Run(work)
    setup_probe(run)  # warm-up: writes the bytecode cache, not measured
    t0 = time.monotonic()
    setups = [setup_probe(run) for _ in range(SETUP_PROBES)]
    invocations = []
    while True:
        inv = invoke(run, wl, seed, reference)
        invocations.append(inv)
        if inv["setup_s"] is not None:
            setups.append(inv["setup_s"])
        elapsed = time.monotonic() - t0
        if elapsed + inv["duration_s"] > seconds or run.timeout() < 2 * inv["duration_s"]:
            break
    cmp = Comparison()
    for inv in invocations:
        cmp.add(inv["check"])
    metrics = {
        "wall_s": statistics.median(i["wall_s"] for i in invocations),
        "points_per_s": statistics.median(i["rows"] / i["wall_s"] for i in invocations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in invocations),
        "ok_share": 1.0 - cmp.failed / cmp.rows,
    }
    info = {"invocations": len(invocations), "setup_samples": len(setups),
            "walls_s": [i["wall_s"] for i in invocations]}
    return metrics, cmp, info


# span name -> layer metric prefix; "point" spans (sweep.compute_phases) are
# the grid points and have no layer of their own
LAYERS = {
    "ising.toeplitz_element": "ising.quad",
    "ising.magnetization": "ising.quad",
    "ising.correlators": "ising.det",
    "ising.exact_diag_correlators": "ising.ed",
    "states.two_site_state": "states.build",
    "states.single_site_state": "states.build",
    "phases.interferometric_phase": "phases.interferometric",
    "phases.uhlmann_phase": "phases.uhlmann",
    "sweep.emit_csv": "sweep.emit_csv",
    "sweep.emit_svg": "sweep.emit_svg",
}
COUNTED = ("ising.quad", "ising.det", "ising.ed", "states.build",
           "phases.interferometric", "phases.uhlmann")


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def layer_metrics(spans, untraced_wall, traced_wall):
    """Per-layer self times and counts, point latency and trace figures.

    A layer's time is the self time of its spans: nested spans (the
    quadrature inside ``correlators``) count toward their own layer.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    m = {f"{p}_s": 0.0 for p in set(LAYERS.values())}
    m.update({f"{p}_calls": 0 for p in COUNTED})
    points = []
    for i, s in enumerate(spans):
        if s["name"] == "point":
            points.append(s["end"] - s["start"])
            continue
        prefix = LAYERS[s["name"]]
        m[f"{prefix}_s"] += s["end"] - s["start"] - child_time[i]
        if prefix in COUNTED:
            m[f"{prefix}_calls"] += 1
    spans_s = sum(m[f"{p}_s"] for p in set(LAYERS.values()))
    m.update({
        "phases.point_p50_ms": 1e3 * _percentile(points, 0.5),
        "phases.point_p90_ms": 1e3 * _percentile(points, 0.9),
        "phases.point_count": len(points),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans_s": spans_s,
        "trace.unaccounted_s": traced_wall - spans_s,
    })
    return m


def run_traced(wl, seed, work, reference):
    """--trace 1: one untraced invocation, then the traced one."""
    run = Run(work)
    setup_probe(run)
    spans_path = run.work / "spans.jsonl"
    cmp = Comparison()
    untraced = invoke(run, wl, seed, reference)
    traced = invoke(run, wl, seed, reference, spans=spans_path)
    cmp.add(untraced["check"])
    cmp.add(traced["check"])
    if traced["setup_s"] is None:
        return None, cmp, {}
    with open(spans_path) as fh:
        spans = [json.loads(line) for line in fh]
    metrics = layer_metrics(spans, untraced["wall_s"], traced["wall_s"])
    metrics["check.max_abs_dev"] = cmp.max_abs_dev
    return metrics, cmp, {"spans": len(spans), "missing_targets": traced["missing_targets"]}


def environment():
    """What the numbers depend on; recorded with every result, never gated.

    A checkout without git history is identified by the hash of its sources.
    """
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    sources = [p.read_bytes() for p in sorted((ROOT / "src").rglob("*.py"))]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas": openblas,
        "git_commit": commit,
        "src_sha256": hashlib.sha256(b"".join(sources)).hexdigest(),
        "blas_pin": BLAS_PIN,
        "src_lines": sum(text.count(b"\n") for text in sources),
    }


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def list_metrics():
    bench = load_benchmark()
    with open(HERE / "predictions.json") as fh:
        predictions = json.load(fh)
    print("workloads:")
    for w in bench["workloads"]:
        print(f"  {w['name']:16s} {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in bench["end_to_end"]:
        print(f"  {m['name']:28s} {m['unit']:6s} {m['better']:6s} bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in bench["per_layer"]:
        print(f"  {m['name']:28s} {m['unit']:6s} {m['better']}")
    print("predictions (layer metric -> end-to-end metric, workload):")
    for p in predictions["predictions"]:
        line = f"  {p['layer']:28s}"
        if p["moves"]:
            line += f" moves {', '.join(p['moves'])} on {', '.join(p['on'])}"
        if p["not_on"]:
            line += f"; no change on {', '.join(p['not_on'])}"
        print(line)
        if p.get("note"):
            print(f"  {'':28s} ({p['note']})")


def main(argv=None):
    p = argparse.ArgumentParser(description="tfim-phases CLI benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every metric with its unit")
    args = p.parse_args(argv)
    check_checkout()
    if args.list:
        list_metrics()
        return 0
    if not args.workload:
        p.error("--workload is required")
    wl = WORKLOADS[args.workload]
    reference = wl.reference(args.seed).read_text()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    (WORK_DIR / "results").mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, cmp, info = run_traced(wl, args.seed, work, reference)
            if (work / "spans.jsonl").is_file():
                shutil.copyfile(work / "spans.jsonl", WORK_DIR / "results" / f"{tag}.spans.jsonl")
        else:
            metrics, cmp, info = run_untraced(wl, args.seed, args.seconds, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        print("\n".join(cmp.notes), file=sys.stderr)
        return 1
    bench = load_benchmark()
    spec = bench["per_layer" if args.trace else "end_to_end"]
    env = environment()
    for note in cmp.notes:
        print(f"check: {note}", file=sys.stderr)
    for target in info.get("missing_targets", ()):
        print(f"trace: tfim_phases.{target} not found, so its layer reads 0", file=sys.stderr)
    for m in spec:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"check.max_abs_dev = {cmp.max_abs_dev:.3g} (tolerance in check.py)")
    result = {
        "correct": cmp.failed == 0,
        "attempted": cmp.rows,
        "failed": cmp.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    with open(WORK_DIR / "results" / f"{tag}.json", "w") as fh:
        json.dump({"result": result, "env": env, "info": info,
                   "check_notes": cmp.notes, "max_abs_dev": cmp.max_abs_dev}, fh, indent=1)
    print(json.dumps({"env": env, "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
