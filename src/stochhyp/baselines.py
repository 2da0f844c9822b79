"""Stochastic collocation and single-sample reference solvers.

Collocation marches the deterministic scheme at Gauss-Legendre nodes in z and
aggregates moments by quadrature; the per-node runs are batched over a trailing
node axis so they share the grid machinery (and the barrier stencil, which is
z-independent) while staying exactly the independent deterministic solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convection import (
    PROFILES,
    ConvectionGrid,
    InterfaceCoefficient,
    check_cfl,
    step_first_order_nodal,
    step_second_order_nodal,
)
from .errors import ConfigurationError
from .gpc import QuadratureRule, gauss_rule
from .liouville import PhaseSpaceGrid, PotentialBarrier, liouville_solve_nodal
from .march import march
from .metrics import MomentField, moments_from_samples

__all__ = [
    "CollocationRun",
    "convection_solve_nodal",
    "deterministic_convection",
    "collocation_convection",
    "deterministic_liouville",
    "collocation_liouville",
    "barrier_step_characteristics",
]


@dataclass(frozen=True)
class CollocationRun:
    """Per-node deterministic solutions plus quadrature moments."""

    rule: QuadratureRule
    fields: np.ndarray
    moments: MomentField
    diagnostics: dict


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
    problems = []
    if np.any(np.abs(z_nodes) > 1.0):
        problems.append("samples must lie in [-1, 1]")
    if order not in (1, 2):
        problems.append("order must be 1 or 2")
    if profile not in PROFILES:
        problems.append("unknown initial profile %r" % (profile,))
    steps = int(round(t_final / grid.dt))
    if t_final < 0.0 or abs(steps * grid.dt - t_final) > 1e-9 * max(1.0, t_final):
        problems.append("final time must be an integer number of time steps")
    if problems:
        raise ConfigurationError(problems)
    check_cfl(coef, grid)

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


def deterministic_convection(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    z: float,
    t_final: float,
    order: int = 1,
    profile: str = "cos_bump",
    kind: str = "arctan",
) -> np.ndarray:
    """Deterministic solve with the wave speed frozen at one z."""
    u, _ = convection_solve_nodal(coef, grid, [z], t_final, order, profile, kind)
    return u[:, 0]


def collocation_convection(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    m: int,
    t_final: float,
    order: int = 1,
    profile: str = "cos_bump",
    kind: str = "arctan",
) -> CollocationRun:
    """Collocation on the m-node Gauss-Legendre sample set."""
    rule = gauss_rule(m)
    fields, diagnostics = convection_solve_nodal(
        coef, grid, rule.nodes, t_final, order, profile, kind
    )
    return CollocationRun(rule, fields, moments_from_samples(fields, rule), diagnostics)


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
    if abs(z) > 1.0:
        raise ConfigurationError(["samples must lie in [-1, 1]"])
    run = liouville_solve_nodal(
        grid, barrier, [z], t_final, order, integrator, alpha, profile, kind,
        vflux_variant,
    )
    return run.field[:, :, 0], run.diagnostics


def collocation_liouville(
    grid: PhaseSpaceGrid,
    barrier: PotentialBarrier,
    m: int,
    t_final: float,
    order: int = 1,
    integrator: str = "euler",
    alpha: float | None = None,
    profile: str = "quarter_disks",
    kind: str = "arctan",
    vflux_variant: str = "product",
) -> CollocationRun:
    """Collocation for the phase-space problem on m Gauss-Legendre samples."""
    rule = gauss_rule(m)
    run = liouville_solve_nodal(
        grid, barrier, rule.nodes, t_final, order, integrator, alpha, profile, kind,
        vflux_variant,
    )
    moments = moments_from_samples(run.field, rule)
    return CollocationRun(rule, run.field, moments, run.diagnostics)


def barrier_step_characteristics(
    x,
    v,
    t: float,
    profile,
    v_left: float = 0.2,
    v_right: float = 0.0,
):
    """Exact solution of the step-potential transport problem at z = 0.

    Traces each (x, v) backwards through free streaming, transmission with
    speed sqrt(v^2 -+ jump), or reflection at the barrier, then samples the
    initial profile.  Requires the step to drop from left to right.
    """
    if v_left <= v_right:
        raise ValueError("the potential step must drop from left to right")
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    jump = 2.0 * (v_left - v_right)
    ratio = np.divide(x, np.where(v == 0.0, 1.0, v))

    x0 = x - v * t
    v0 = v.astype(float, copy=True)

    # ends right of the barrier moving right, having touched it
    touched = (x > 0.0) & (v > 0.0) & (x < v * t)
    transmitted = touched & (v * v > jump)
    w = np.sqrt(np.maximum(v * v - jump, 0.0))
    x0 = np.where(transmitted, -w * (t - ratio), x0)
    v0 = np.where(transmitted, w, v0)
    reflected = touched & ~(v * v > jump)
    x0 = np.where(reflected, v * t - x, x0)
    v0 = np.where(reflected, -v, v0)

    # ends left of the barrier moving left: always transmitted from the right
    crossed = (x < 0.0) & (v < 0.0) & (x > v * t)
    w = np.sqrt(v * v + jump)
    x0 = np.where(crossed, w * (t - ratio), x0)
    v0 = np.where(crossed, -w, v0)
    return profile(x0, v0)
