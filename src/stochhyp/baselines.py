"""Nodal reference solvers for collocation and deterministic runs.

The nodal solvers march the deterministic scheme at fixed samples of z,
batched over a trailing node axis so the per-node runs share the grid
machinery (and the barrier stencil, which is z-independent) while staying
exactly the independent deterministic solves.  Collocation is a nodal solve
at the nodes of `gauss_rule(m)` followed by `metrics.moments_from_samples`.
"""

from __future__ import annotations

import numpy as np

from .convection import (
    PROFILES,
    ConvectionGrid,
    InterfaceCoefficient,
    scheme_problems,
    step_first_order_nodal,
    step_second_order_nodal,
)
from .errors import reject
from .liouville import PhaseSpaceGrid, PotentialBarrier, liouville_solve_nodal
from .march import march, time_steps

__all__ = ["convection_solve_nodal", "deterministic_liouville"]


def convection_solve_nodal(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    z_nodes: np.ndarray,
    t_final: float,
    order: int = 1,
    profile: str = "cos_bump",
    kind: str = "arctan",
) -> tuple[np.ndarray, dict]:
    """March the deterministic scheme at fixed z samples; shape (cells, nodes)."""
    z_nodes = np.atleast_1d(np.asarray(z_nodes, dtype=float))
    steps, problems = time_steps(t_final, grid.dt)
    reject(problems + scheme_problems(order, profile, kind, z_nodes, coef, grid))

    lam_m = grid.ratio * coef.left(z_nodes)
    lam_p = grid.ratio * coef.right(z_nodes)
    values = PROFILES[profile].func(grid.centers)
    if order == 1:
        step = lambda w: step_first_order_nodal(w, lam_m, lam_p, grid.interface_index)
    else:
        step = lambda w: step_second_order_nodal(
            w, lam_m, lam_p, grid.dx, grid.interface_index, kind
        )
    mass = lambda w: w.sum(axis=0) * grid.dx
    return march(
        np.repeat(values[:, None], z_nodes.size, axis=1), step, steps, mass, "cell %d, node %d"
    )


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
