"""Command-line front end: correlators, phase, sweep, preset, oracle."""

from __future__ import annotations

import argparse
import os
import sys

from . import ising
from .errors import QuadratureError, RankDeficientError, VisibilityError
from .phases import KINDS, compute_phases
from .sweep import Y_COLUMNS, SweepConfig, emit_csv, emit_svg, preset, run_sweep

_KIND_CHOICES = {**{kind: (kind,) for kind in KINDS}, "both": KINDS}


def _items(parse):
    """Parser of a comma-separated config-file value into a tuple."""
    return lambda raw: tuple(parse(x.strip()) for x in raw.split(",") if x.strip())


def _kinds(raw):
    """Parser of a config-file kinds value: comma-separated --kinds choices, "both" too."""
    return tuple(k for x in _items(str)(raw) for k in _KIND_CHOICES.get(x, (x,)))


_TRUTH = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(key):
    """Parser of a config-file truth value: true/false, yes/no or 1/0, in any case."""
    def parse(raw):
        try:
            return _TRUTH[raw.lower()]
        except KeyError:
            raise ValueError(f"{key} must be one of true/false/yes/no/1/0, got {raw!r}") from None
    return parse


# SweepConfig field -> (its `sweep` flag, argparse keywords of the flag,
# parser of its config-file value).  A flag that is given overrides the file.
_SWEEP_FIELDS = {
    "lambda_min": ("--lam-min", {"type": float}, float),
    "lambda_max": ("--lam-max", {"type": float}, float),
    "lambda_steps": ("--lam-steps", {"type": int}, int),
    "r_list": ("--r", {"type": int, "nargs": "+"}, _items(int)),
    "theta_list": ("--theta", {"type": float, "nargs": "+"}, _items(float)),
    "kinds": ("--kinds", {"choices": sorted(_KIND_CHOICES)}, _kinds),
    "loop_steps": ("--loop-steps", {"type": int}, int),
    "quad_tol": ("--quad-tol", {"type": float}, float),
    "rank_eps": ("--rank-eps", {"type": float}, float),
    "unwrap": ("--no-unwrap", {"action": "store_false", "default": None}, _boolean("unwrap")),
    "output_path": ("--out", {"help": "CSV output path (overrides config output_path)"},
                    str),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="tfim-phases",
        description="Geometric phases of reduced states of the transverse-field "
                    "Ising chain: correlators, per-point phases, and sweeps.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("correlators", help="magnetization and two-site correlators")
    c.add_argument("--lam", type=float, required=True, help="coupling ratio, >= 0")
    c.add_argument("--r", type=int, nargs="+", default=[1], help="site separations")
    c.add_argument("--quad-tol", type=float, default=SweepConfig.quad_tol)

    ph = sub.add_parser("phase", help="phases at a single (lambda, r, theta) point")
    ph.add_argument("--lam", type=float, required=True)
    ph.add_argument("--r", type=int, default=1)
    ph.add_argument("--theta", type=float, required=True, help="polar angle in radians")
    ph.add_argument("--kinds", choices=sorted(_KIND_CHOICES), default="both")
    ph.add_argument("--loop-steps", type=int, default=SweepConfig.loop_steps)
    ph.add_argument("--quad-tol", type=float, default=SweepConfig.quad_tol)
    ph.add_argument("--rank-eps", type=float, default=SweepConfig.rank_eps)

    sw = sub.add_parser("sweep", help="grid sweep with CSV (and optional SVG) output")
    sw.add_argument("--config", help="key=value file; command-line flags override")
    for field, (flag, options, _) in _SWEEP_FIELDS.items():
        sw.add_argument(flag, dest=field, **options)
    sw.add_argument("--svg", help="optional SVG output path")
    sw.add_argument("--svg-y", choices=Y_COLUMNS, default="delta_gamma_unwrapped",
                    metavar="COLUMN", help="CSV column on the SVG y axis: %(choices)s")
    sw.add_argument("--workers", type=int, default=1)

    pr = sub.add_parser("preset", help="run a named figure-reproduction sweep")
    pr.add_argument("name", choices=["fig1", "fig2", "fig3"])
    pr.add_argument("--out-dir", default=".")
    pr.add_argument("--workers", type=int, default=1)

    orc = sub.add_parser("oracle", help="finite-chain exact-diagonalization comparison")
    orc.add_argument("--lam", type=float, required=True)
    orc.add_argument("--n-sites", type=int, nargs="+", default=[8, 10, 12])
    orc.add_argument("--r-max", type=int, default=3)
    orc.add_argument("--quad-tol", type=float, default=SweepConfig.quad_tol)
    return p


def _cmd_correlators(args):
    params = ising.CouplingRatio(args.lam)
    ising.check_quad_tol(args.quad_tol)
    rows = [ising.correlators(r, params) for r in args.r]
    print("r,m,c_xx,c_yy,c_zz")
    for c in rows:
        print(f"{c.r},{c.m:.12g},{c.c_xx:.12g},{c.c_yy:.12g},{c.c_zz:.12g}")
    return 0


def _cmd_phase(args):
    ising.check_quad_tol(args.quad_tol)
    rec = compute_phases(
        args.lam, args.r, args.theta, kinds=_KIND_CHOICES[args.kinds],
        loop_steps=args.loop_steps, rank_eps=args.rank_eps,
    )
    for name in ("gamma_int_pair", "gamma_int_single", "delta_gamma",
                 "gamma_u_pair", "gamma_u_single", "delta_gamma_u"):
        val = getattr(rec, name)
        print(f"{name} = {'n/a' if val is None else format(val, '.12g')}")
    if rec.steps_used:
        print(f"steps_used = {rec.steps_used}")
        print(f"convergence_estimate = {rec.convergence_estimate:.3e}")
    return 0


def _config_from_file(path):
    """SweepConfig keywords from a file of key=value lines (# starts a comment)."""
    kwargs = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _SWEEP_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _SWEEP_FIELDS[key][2](raw)
    return kwargs


def _write_svg(records, path, column):
    """SVG of column; with no value to draw (every row a status row) the
    sweep still succeeds, so print emit_svg's error and write none."""
    try:
        emit_svg(records, path, y_column=column)
    except ValueError as exc:
        print(f"{exc}; SVG not written")
        return
    print(f"wrote {path}")


def _cmd_sweep(args):
    kwargs = _config_from_file(args.config) if args.config else {}
    for field in _SWEEP_FIELDS:
        value = getattr(args, field)
        if value is None:
            continue
        if field == "kinds":
            value = _KIND_CHOICES[value]
        kwargs[field] = tuple(value) if isinstance(value, list) else value
    config = SweepConfig(**kwargs)
    if not config.output_path:
        raise ValueError("no output path: pass --out or set output_path in the config file")
    svg_kind, _ = Y_COLUMNS[args.svg_y]
    if args.svg and svg_kind not in config.kinds:
        raise ValueError(f"--svg-y {args.svg_y} needs kind {svg_kind}, which the sweep "
                         f"does not run (kinds: {', '.join(config.kinds)})")

    records = run_sweep(config, workers=args.workers)
    emit_csv(records, config.output_path, quad_tol=config.quad_tol)
    print(f"wrote {len(records)} rows to {config.output_path}")
    if args.svg:
        _write_svg(records, args.svg, args.svg_y)
    n_bad = sum(1 for rec in records if rec.status != "ok")
    if n_bad:
        print(f"{n_bad} grid points carry error status (see the status column)")
    return 0


def _cmd_preset(args):
    config = preset(args.name)
    os.makedirs(args.out_dir, exist_ok=True)
    records = run_sweep(config, workers=args.workers)
    csv_path = os.path.join(args.out_dir, f"{args.name}.csv")
    emit_csv(records, csv_path, quad_tol=config.quad_tol)
    print(f"wrote {csv_path}")
    for column in ("delta_gamma_unwrapped", "delta_gamma_u_unwrapped"):
        kind, _ = Y_COLUMNS[column]
        if kind in config.kinds:
            _write_svg(records, os.path.join(args.out_dir, f"{args.name}_{column}.svg"), column)
    return 0


def _cmd_oracle(args):
    params = ising.CouplingRatio(args.lam)
    ising.check_quad_tol(args.quad_tol)
    for n in args.n_sites:
        ising.check_chain_size(n)
    if len(set(args.n_sites)) < len(args.n_sites):
        raise ValueError(f"n_sites must not repeat a size, got {args.n_sites}")
    r_cap = min(args.n_sites) // 2  # the largest separation every chain has
    if not 1 <= args.r_max <= r_cap:
        raise ValueError(f"r_max must be within [1, min(n_sites) // 2 = {r_cap}], got {args.r_max}")
    r_values = list(range(1, args.r_max + 1))
    thermo = {r: ising.correlators(r, params) for r in r_values}
    # every row is computed before any output, so a failure leaves none
    table = {n: ising.exact_diag_correlators(n, args.lam) for n in sorted(args.n_sites)}
    print(f"# thermodynamic limit vs exact diagonalization at lambda = {args.lam:g}")
    print("n_sites,r,m_ed,m_inf,c_xx_ed,c_xx_inf,c_yy_ed,c_yy_inf,c_zz_ed,c_zz_inf")
    for n, ed in table.items():
        for r in r_values:
            t, e = thermo[r], ed[r]
            print(f"{n},{r},{e.m:.8f},{t.m:.8f},{e.c_xx:.8f},{t.c_xx:.8f},"
                  f"{e.c_yy:.8f},{t.c_yy:.8f},{e.c_zz:.8f},{t.c_zz:.8f}")
    sizes = sorted(table)
    if len(sizes) >= 2:
        gaps = [abs(table[n][1].m - thermo[1].m) for n in sizes]
        trend = "monotone" if all(a >= b for a, b in zip(gaps, gaps[1:])) else "not monotone"
        print(f"# |m_ed - m_inf| at r=1 across N={sizes}: "
              + ", ".join(f"{g:.2e}" for g in gaps) + f" ({trend})")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "correlators": _cmd_correlators,
        "phase": _cmd_phase,
        "sweep": _cmd_sweep,
        "preset": _cmd_preset,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, QuadratureError, RankDeficientError,
            VisibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
