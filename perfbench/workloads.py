"""The benchmark's workloads: CLI invocations and lambda grids for a seed.

A seed shifts every lambda grid up by ``k / SHIFTS`` of one grid step, with
``k = seed % SHIFTS``, so seed 0 runs the grids exactly as written below and
every seed maps onto one of ``SHIFTS`` inputs that each have a committed
reference output (see ``make_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

SHIFTS = 8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    lam_min: float
    lam_max: float
    lam_steps: int
    r_list: tuple
    theta_list: tuple = ()
    kinds: tuple = ()          # empty for the exact-diagonalization oracle
    workers: int = 1
    preset: str = ""           # seed-0 invocation runs this preset instead
    n_sites: tuple = ()        # oracle only
    lam_step: float = 0.0      # grid step for single-point grids

    @property
    def is_oracle(self):
        return not self.kinds

    def shift(self, seed):
        step = self.lam_step or (self.lam_max - self.lam_min) / (self.lam_steps - 1)
        return (seed % SHIFTS) / SHIFTS * step

    def lambdas(self, seed):
        """The lambda grid, computed as SweepConfig.lambda_grid does."""
        import numpy as np

        d = self.shift(seed)
        return [float(x) for x in np.linspace(self.lam_min + d, self.lam_max + d,
                                              self.lam_steps)]

    def rows(self):
        """Output rows one invocation produces."""
        if self.is_oracle:
            return len(self.n_sites) * len(self.r_list)
        return self.lam_steps * len(self.r_list) * len(self.theta_list)

    def svg_y(self):
        return "delta_gamma_u_unwrapped" if "uhlmann" in self.kinds else "delta_gamma_unwrapped"

    def outputs(self, out_dir):
        """(csv, svg) paths an invocation writes; None for the oracle."""
        if self.is_oracle:
            return None
        stem = self.preset or self.name
        return (Path(out_dir) / f"{stem}.csv",
                Path(out_dir) / f"{stem}_{self.svg_y()}.svg")

    def cli_args(self, seed, out_dir, workers=None):
        """Arguments to tfim_phases.cli.main for this seed.

        ``workers`` overrides the workload's pool size (the traced run is
        serial, so that every span is recorded in one process).
        """
        workers = workers or self.workers
        if self.is_oracle:
            lam = self.lam_min + self.shift(seed)
            return (["oracle", "--lam", repr(lam), "--n-sites"]
                    + [str(n) for n in self.n_sites]
                    + ["--r-max", str(max(self.r_list))])
        if self.preset and seed % SHIFTS == 0:
            return ["preset", self.preset, "--out-dir", str(out_dir),
                    "--workers", str(workers)]
        lams = self.lambdas(seed)
        csv, svg = self.outputs(out_dir)
        return (["sweep", "--kinds", "both" if len(self.kinds) == 2 else self.kinds[0],
                 "--r"] + [str(r) for r in self.r_list]
                + ["--theta"] + [repr(t) for t in self.theta_list]
                + ["--lam-min", repr(lams[0]), "--lam-max", repr(lams[-1]),
                   "--lam-steps", str(self.lam_steps),
                   "--out", str(csv), "--svg", str(svg), "--svg-y", self.svg_y(),
                   "--workers", str(workers)])

    def reference(self, seed):
        suffix = "txt" if self.is_oracle else "csv"
        return REFERENCE_DIR / self.name / f"shift{seed % SHIFTS}.{suffix}"


WORKLOADS = {
    w.name: w for w in (
        # preset fig2: 3 theta x r in {1, 10} x 40 lambda in [0.05, 2]
        Workload("fig2_uhlmann", 0.05, 2.0, 40, (1, 10),
                 (math.pi / 12, math.pi / 4, math.pi / 3), ("uhlmann",),
                 workers=1, preset="fig2"),
        Workload("long_range_int", 0.5, 1.5, 26, (10, 25, 50, 100),
                 (1.0471975512,), ("interferometric",)),
        # one-point grid; the seed shifts it by a fraction of fig2's step
        Workload("ed_oracle", 1.0, 1.0, 1, (1, 2, 3), n_sites=(8, 10, 12),
                 lam_step=0.05),
    )
}

# Tiny workloads for selftest.py; they have no committed reference.
SELFTEST = {
    w.name: w for w in (
        Workload("selftest_sweep", 0.5, 1.5, 3, (1, 2), (1.0471975512,),
                 ("interferometric", "uhlmann"), workers=2),
        Workload("selftest_oracle", 1.0, 1.0, 1, (1, 2), n_sites=(4, 6), lam_step=0.05),
    )
}
