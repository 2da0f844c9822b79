"""The deterministic phase-space solve at one frozen z.

Every other nodal solver sits beside its gPC twin: `convection_solve_nodal`
in `convection`, `liouville_solve_nodal` in `liouville`.  Collocation is a
nodal solve at the nodes of `gauss_rule(m)` followed by
`metrics.moments_from_samples`.
"""

from __future__ import annotations

import numpy as np

from .liouville import PhaseSpaceGrid, PotentialBarrier, liouville_solve_nodal

__all__ = ["deterministic_liouville"]


def deterministic_liouville(
    grid: PhaseSpaceGrid,
    barrier: PotentialBarrier,
    z: float,
    t_final: float,
    order: int = 1,
    integrator: str = "euler",
    alpha: float | None = None,
    profile: str = "quarter_disks",
    kind: str = "arctan",
    vflux_variant: str = "product",
) -> tuple[np.ndarray, dict]:
    """Deterministic phase-space solve with the potential frozen at one z."""
    run = liouville_solve_nodal(
        grid, barrier, [z], t_final, order, integrator, alpha, profile, kind,
        vflux_variant,
    )
    return run.field[:, :, 0], run.diagnostics
