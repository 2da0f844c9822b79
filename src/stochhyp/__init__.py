"""Stochastic Galerkin solvers for hyperbolic equations with interfaces.

Polynomial chaos expansions in a single uniform random variable are applied
to fully discrete finite volume schemes: a 1D convection equation whose wave
speed jumps at x = 0, and a phase-space transport equation with a potential
barrier.  Nodal (collocation and deterministic) reference solvers, metrics,
convergence sweeps, and a CLI harness round out the package.
"""

from .baselines import deterministic_liouville
from .config import (
    MODES,
    PRESETS,
    PROBLEMS,
    ExperimentConfig,
    convection_parts,
    liouville_parts,
    parse_config,
    render_config,
)
from .convection import (
    PROFILES,
    AnalyticConvectionSolution,
    ConvectionGrid,
    ConvectionRun,
    InterfaceCoefficient,
    convection_errors,
    convection_solve_nodal,
    run_convection,
)
from .errors import ConfigurationError, DivergenceError
from .gpc import (
    ChaosSpace,
    OrthonormalBasis,
    QuadratureRule,
    galerkin_matrix,
    gauss_rule,
    legendre_table,
    project,
)
from .limiters import BAP_KINDS, bap_slope, limiter_maps
from .liouville import (
    PHASE_PROFILES,
    VFLUX_VARIANTS,
    BarrierStencil,
    LiouvilleRun,
    PhaseSpaceGrid,
    PotentialBarrier,
    liouville_solve_gpc,
    liouville_solve_nodal,
)
from .metrics import MomentField, h_norm, l1_norm, moments_from_samples
from .sweeps import GpcSweepRow, MeshSweepRow, gpc_error_sweep, mesh_error_sweep

__version__ = "0.1.0"
