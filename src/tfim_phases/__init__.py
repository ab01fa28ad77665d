"""Geometric phases of reduced states of the transverse-field Ising chain.

Library layout:

* :mod:`tfim_phases.linalg`  -- small dense Hermitian/unitary kernels
* :mod:`tfim_phases.ising`   -- thermodynamic-limit correlators + finite-chain oracle
* :mod:`tfim_phases.states`  -- reduced density matrices and the loop U(phi) = e^{K phi} U(0)
* :mod:`tfim_phases.phases`  -- both phases and the per-point driver ``compute_phases``
* :mod:`tfim_phases.sweep`   -- parameter sweeps, CSV/SVG output, presets
* :mod:`tfim_phases.cli`     -- the ``tfim-phases`` command
"""

from .errors import (
    QuadratureError,
    RankDeficientError,
    UnphysicalStateError,
    VisibilityError,
)
from .ising import (
    Correlators,
    CouplingRatio,
    correlators,
    exact_diag_correlators,
    ground_energy_density,
    magnetization,
    toeplitz_element,
)
from .phases import (
    PhaseRecord,
    compute_phases,
    interferometric_phase,
    single_site_phase_closed,
    uhlmann_connection,
    uhlmann_holonomy,
    uhlmann_phase,
    wrap_angle,
)
from .states import (
    LoopSpec,
    loop_generator,
    loop_unitary,
    single_site_state,
    two_site_state,
)
from .sweep import SweepConfig, emit_csv, emit_svg, preset, read_csv, run_sweep

__version__ = "0.1.0"
