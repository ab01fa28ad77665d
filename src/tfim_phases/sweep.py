"""Parameter sweeps over (lambda, r, theta) with CSV and SVG output.

The correlators of every coupling point (lambda, r) come first, from one
G_k batch per lambda up to max(r_list), with each r's Toeplitz determinants
stacked over lambda.  The phase kernels then run per coupling point: one
``compute_phases`` call, given that point's correlators, evaluates all of
the sweep's theta values there (and each theta again on its own if a
visibility vanishes).
"""

from __future__ import annotations

import concurrent.futures
import functools
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import ising
from .errors import RankDeficientError, UnphysicalStateError, VisibilityError
from .ising import (CouplingRatio, check_coupling, check_quad_tol, check_separations,
                    require_integer)
from .phases import KINDS, RANK_EPS, PhaseRecord, check_kinds, check_rank_eps, compute_phases
from .states import LoopSpec, check_loop_steps, check_theta

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "run_sweep",
    "emit_csv",
    "read_csv",
    "emit_svg",
    "preset",
    "CSV_HEADER",
    "Y_COLUMNS",
]

# CSV columns 4-11 in order, each with the phase kind that fills it and the
# SweepRecord attribute that holds it; each can also be the y axis of an SVG.
Y_COLUMNS = {
    "gamma_int_2site": ("interferometric", "record.gamma_int_pair"),
    "gamma_int_1site": ("interferometric", "record.gamma_int_single"),
    "delta_gamma": ("interferometric", "record.delta_gamma"),
    "delta_gamma_unwrapped": ("interferometric", "delta_gamma_unwrapped"),
    "gamma_u_2site": ("uhlmann", "record.gamma_u_pair"),
    "gamma_u_1site": ("uhlmann", "record.gamma_u_single"),
    "delta_gamma_u": ("uhlmann", "record.delta_gamma_u"),
    "delta_gamma_u_unwrapped": ("uhlmann", "delta_gamma_u_unwrapped"),
}
# a SweepRecord's values in these columns, as one tuple
_y_values = operator.attrgetter(*(attr for _, attr in Y_COLUMNS.values()))

CSV_HEADER = ",".join(["lambda", "r", "theta", *Y_COLUMNS, "steps", "quad_tol", "status"])


@dataclass(frozen=True)
class SweepConfig:
    lambda_min: float = 1e-6
    lambda_max: float = 2.0
    lambda_steps: int = 20
    r_list: tuple = (1,)
    theta_list: tuple = (np.pi / 3,)
    kinds: tuple = KINDS
    loop_steps: int = LoopSpec.steps
    quad_tol: float = 1e-10
    rank_eps: float = RANK_EPS
    unwrap: bool = True
    output_path: str = ""

    def __post_init__(self):
        check_coupling("lambda_min", self.lambda_min)
        check_coupling("lambda_max", self.lambda_max)
        if self.lambda_max < self.lambda_min:
            raise ValueError("lambda_max must be >= lambda_min")
        require_integer("lambda_steps", self.lambda_steps, 1)
        for name in ("r_list", "theta_list"):
            # a str would be split into its characters
            value = getattr(self, name)
            if isinstance(value, str) or not np.iterable(value):
                raise ValueError(f"{name} must be a sequence, got {value!r}")
        object.__setattr__(self, "r_list", check_separations("r_list entry", self.r_list))
        object.__setattr__(self, "theta_list", check_theta("theta_list", tuple(self.theta_list)))
        object.__setattr__(self, "kinds", check_kinds("kinds", self.kinds))
        check_loop_steps("loop_steps", self.loop_steps)
        check_quad_tol(self.quad_tol)
        check_rank_eps("rank_eps", self.rank_eps)

    def lambda_grid(self):
        return np.linspace(self.lambda_min, self.lambda_max, self.lambda_steps)


@dataclass
class SweepRecord:
    """One grid point: coordinates, phases, unwrapped deviations, status."""

    lam: float
    r: int
    theta: float
    record: PhaseRecord = field(default_factory=PhaseRecord)
    status: str = "ok"
    delta_gamma_unwrapped: float | None = None
    delta_gamma_u_unwrapped: float | None = None


# Status of a row by the error it met; the first matching entry wins.
_STATUSES = {
    RankDeficientError: "rank_deficient",
    VisibilityError: "vanishing_visibility",
    UnphysicalStateError: "unphysical_state",
    ValueError: "numerical_error",
    np.linalg.LinAlgError: "numerical_error",
    ArithmeticError: "numerical_error",
}


def _evaluate_coupling(config, thetas, coupling):
    """The rows of one (lambda, r, correlators) coupling point, one per theta
    of thetas (the sorted theta_list), from one compute_phases call;
    correlators None has compute_phases compute them.

    A raised error becomes the status of every row, with one exception: a
    vanishing visibility belongs to a single theta, so when a stack of
    several theta values raises VisibilityError, each theta of the coupling
    is evaluated again on its own.
    """
    lam, r, corr = coupling
    try:
        records = compute_phases(
            lam, r, thetas, kinds=config.kinds, loop_steps=config.loop_steps,
            rank_eps=config.rank_eps, corr=corr,
        )
    except tuple(_STATUSES) as exc:
        if isinstance(exc, VisibilityError) and len(thetas) > 1:
            return [row for theta in thetas
                    for row in _evaluate_coupling(config, (theta,), coupling)]
        status = next(s for error, s in _STATUSES.items() if isinstance(exc, error))
        return [SweepRecord(lam, r, float(theta), status=status) for theta in thetas]
    return [SweepRecord(lam, r, float(theta), rec) for theta, rec in zip(thetas, records)]


def _correlator_table(r_values, params):
    """Correlators indexed [coupling][r], from one ising.correlators stack.

    A stack raises if any of its entries fails, so then each coupling's row
    is computed again on its own, as in the stack and bitwise equal to it.
    A row that fails on its own too is all None: compute_phases then
    computes each of its couplings and meets the error there.
    """
    try:
        return ising.correlators(r_values, params)
    except tuple(_STATUSES):
        if len(params) == 1:
            return [[None] * len(r_values)]
        return [row for p in params for row in _correlator_table(r_values, [p])]


def _unwrap_family(records, attr, target):
    """Unwrap one deviation column along lambda within a (theta, r) family."""
    defined = [rec for rec in records if getattr(rec.record, attr) is not None]
    for rec, v in zip(defined, np.unwrap([getattr(rec.record, attr) for rec in defined])):
        setattr(rec, target, float(v))


def run_sweep(config: SweepConfig, workers: int = 1):
    """Evaluate every grid point; failures become status rows, not aborts.

    The correlators of every coupling point (lambda, r) are computed first,
    in this process, by one ising.correlators call: one G_k batch per lambda
    up to max(r_list), and for each r one determinant per Toeplitz kind over
    the stack of all lambda.  The unit of phase work is then a coupling
    point: one compute_phases call, given its correlators, evaluates it for
    the whole sorted theta_list, so each state is built once for all its
    theta rows.  A coupling whose correlators fail gets the status of that
    error on its rows alone.  Records come in (theta, r, lambda)
    ascending order, independent of the worker count (an integer >= 1; more
    than 1 runs a process pool, with at most one worker per coupling point).
    lambda runs fastest, so each (theta, r) family is one run of lambda_steps
    records, and each family's deviations are unwrapped along lambda on their
    own, also when r_list or theta_list repeats a value.  With unwrap off, each
    row is a family of its own: np.unwrap of one value returns it.
    """
    if not workers >= 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    require_integer("workers", workers)
    lams = [float(lam) for lam in config.lambda_grid()]
    r_values = sorted(set(config.r_list))
    table = _correlator_table(r_values, [CouplingRatio(lam) for lam in lams])
    couplings = [(lam, int(r), row[r_values.index(r)]) for r in sorted(config.r_list)
                 for lam, row in zip(lams, table)]
    evaluate = functools.partial(_evaluate_coupling, config, tuple(sorted(config.theta_list)))
    if workers > 1:
        # the pool forks all of its workers up front: no more than there are couplings
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(couplings))) as pool:
            rows = list(pool.map(evaluate, couplings, chunksize=4))
    else:
        rows = list(map(evaluate, couplings))
    records = [rec for theta_rows in zip(*rows) for rec in theta_rows]

    size = config.lambda_steps if config.unwrap else 1
    for i in range(0, len(records), size):
        family = records[i:i + size]
        _unwrap_family(family, "delta_gamma", "delta_gamma_unwrapped")
        _unwrap_family(family, "delta_gamma_u", "delta_gamma_u_unwrapped")
    return records


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(x):
    return "" if x is None else format(x, ".12g")


def _row_fields(rec: SweepRecord, quad_tol):
    return [_fmt(rec.lam), str(rec.r), _fmt(rec.theta), *map(_fmt, _y_values(rec)),
            str(rec.record.steps_used), _fmt(quad_tol), rec.status]


def emit_csv(records, path, quad_tol=SweepConfig.quad_tol):
    """Write records in grid order; floats carry 12 significant digits."""
    lines = [CSV_HEADER] + [",".join(_row_fields(rec, quad_tol)) for rec in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse(s):
    return None if s == "" else float(s)


def read_csv(path):
    """Parse a sweep CSV back into records (inverse of emit_csv)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected header in {path}")
    names = CSV_HEADER.split(",")
    records = []
    quad_tol = SweepConfig.quad_tol
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != len(names):
            raise ValueError(f"expected {len(names)} fields, got {len(f)}: {ln!r}")
        row = dict(zip(names, f))
        phase, own = {}, {}
        for column, (_, attr) in Y_COLUMNS.items():
            holder, _, name = attr.rpartition(".")
            (phase if holder else own)[name] = _parse(row[column])
        quad_tol = float(row["quad_tol"]) if row["quad_tol"] else quad_tol
        records.append(SweepRecord(
            lam=float(row["lambda"]), r=int(row["r"]), theta=float(row["theta"]),
            record=PhaseRecord(**phase, steps_used=int(row["steps"])), status=row["status"],
            **own,
        ))
    return records, quad_tol


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")


def emit_svg(records, path, y_column="delta_gamma_unwrapped"):
    """Render one polyline per (r, theta) family as a standalone SVG."""
    if y_column not in Y_COLUMNS:
        raise ValueError(f"unknown y_column {y_column!r}; choose from {sorted(Y_COLUMNS)}")
    get = operator.attrgetter(Y_COLUMNS[y_column][1])

    families = {}
    for rec in records:
        y = get(rec)
        if y is not None:
            families.setdefault((rec.r, rec.theta), []).append((rec.lam, y))
    if not families:
        raise ValueError(f"no records carry a value for {y_column!r}")

    xs = [x for pts in families.values() for x, _ in pts]
    ys = [y for pts in families.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    width, height = 800, 560
    ml, mr, mt, mb = 70, 170, 20, 50

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for t in np.linspace(x_lo, x_hi, 5):
        parts.append(
            f'<text x="{sx(t):.1f}" y="{height - mb + 18:.1f}" font-size="11" '
            f'text-anchor="middle">{t:.3g}</text>'
        )
    for t in np.linspace(y_lo, y_hi, 5):
        parts.append(
            f'<text x="{ml - 6}" y="{sy(t) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 10}" font-size="13" '
        f'text-anchor="middle">lambda</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">'
        f'{y_column}</text>'
    )

    for idx, key in enumerate(sorted(families)):
        r, theta = key
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(families[key])
        if len(pts) == 1:
            x, y = pts[0]
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="{color}"/>')
        else:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = mt + 18 + 18 * idx
        parts.append(
            f'<line x1="{width - mr + 12}" y1="{ly - 4}" x2="{width - mr + 36}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr + 42}" y="{ly}" font-size="12">r={r}, '
            f'theta={theta:.4g}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_PRESETS = {
    # r sets and lambda ranges below are package choices: the interferometric
    # deviation is swept over the whole coupling window for several
    # separations; the transport-phase sweep starts at the smallest coupling
    # that keeps the two-site state full rank at the default rank_eps; the
    # critical-window sweep carries both kinds on a dense grid.
    "fig1": SweepConfig(
        lambda_min=0.1, lambda_max=2.0, lambda_steps=39,
        r_list=(1, 2, 5, 10), theta_list=(np.pi / 3,),
        kinds=("interferometric",),
    ),
    "fig2": SweepConfig(
        lambda_min=0.05, lambda_max=2.0, lambda_steps=40,
        r_list=(1, 10), theta_list=(np.pi / 12, np.pi / 4, np.pi / 3),
        kinds=("uhlmann",),
    ),
    "fig3": SweepConfig(
        lambda_min=0.8, lambda_max=1.2, lambda_steps=41,
        r_list=(1, 2), theta_list=(np.pi / 3,),
        kinds=("interferometric", "uhlmann"),
    ),
}


def preset(name: str) -> SweepConfig:
    """Named sweep configurations reproducing the qualitative result figures."""
    try:
        base = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}") from None
    return replace(base)
