"""gPC stochastic Galerkin solver for phase-space transport over a potential step.

Solves u_t + v u_x - V_x(x, z) u_v = 0 on an (x, v) grid where the potential
V(x, z) = V0(x) + slope*x*z jumps at x = 0.  The x-flux at the barrier routes
density between velocity rows so kinetic plus potential energy is conserved
(transmission) or the velocity is reversed (reflection); v-fluxes are central
and characteristic-independent.  The random dimension is handled by evaluating
the nodal scheme at quadrature nodes and projecting back per time step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .gpc import OrthonormalBasis, QuadratureRule, deterministic_coeffs, gauss_rule, project
from .limiters import BAP_KINDS, limited_slopes
from .march import march
from .metrics import MomentField

__all__ = [
    "PhaseSpaceGrid",
    "PotentialBarrier",
    "StencilEntry",
    "BarrierStencil",
    "PHASE_PROFILES",
    "LiouvilleRun",
    "VFLUX_VARIANTS",
    "check_cfl",
    "resolve_interface",
    "rhs_nodal",
    "galerkin_rhs",
    "advance",
    "liouville_solve_nodal",
    "liouville_solve_gpc",
]

VFLUX_VARIANTS = ("product", "ratio")


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform cell-centered (x, v) grid; x = 0 and v = 0 are cell edges."""

    x_lo: float
    x_hi: float
    v_hi: float
    nx: int
    nv: int
    dt: float

    def __post_init__(self) -> None:
        problems = []
        if not (self.x_lo < 0.0 < self.x_hi):
            problems.append("x range must straddle the barrier at x = 0")
        if self.v_hi <= 0.0:
            problems.append("v range must be symmetric with positive extent")
        if self.nx < 4 or self.nv < 4:
            problems.append("need at least 4 cells per direction")
        if self.nv % 2 != 0:
            problems.append("nv must be even so v = 0 is a cell edge")
        if self.dt <= 0.0:
            problems.append("dt must be positive")
        if not problems:
            dx = (self.x_hi - self.x_lo) / self.nx
            if abs(round(-self.x_lo / dx) * dx + self.x_lo) > 1e-9 * dx:
                problems.append("x = 0 must land on a cell edge")
            elif not 1 <= round(-self.x_lo / dx) <= self.nx - 1:
                problems.append("x = 0 must be an interior cell edge")
        if problems:
            raise ConfigurationError(problems)

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.v_hi / self.nv

    @property
    def barrier_edge(self) -> int:
        """Index of the x-edge sitting at x = 0."""
        return int(round(-self.x_lo / self.dx))

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def v_centers(self) -> np.ndarray:
        # built from one half and mirrored so v[nv-1-j] == -v[j] bitwise
        pos = (np.arange(self.nv // 2) + 0.5) * self.dv
        return np.concatenate([-pos[::-1], pos])

    def mirror_row(self, j: int) -> int:
        return self.nv - 1 - j


@dataclass(frozen=True)
class PotentialBarrier:
    """Potential V(x, z) = V0(x) + slope_amp*x*z with V0 jumping at x = 0."""

    v_left: float = 0.2
    v_right: float = 0.0
    slope_amp: float = 0.1

    def value(self, x, z):
        x = np.asarray(x, dtype=float)
        base = np.where(x < 0.0, self.v_left, self.v_right)
        return base + self.slope_amp * x * z

    def force(self, z):
        """Cell-averaged potential gradient DV(z).

        One-sided limits at the cell edges never cross the jump, so the
        difference of edge limits over any cell is slope_amp*z*dx exactly and
        the force is uniform in space.
        """
        return self.slope_amp * np.asarray(z, dtype=float)

    @property
    def max_force(self) -> float:
        # force is linear in z, extreme at z = +-1
        return abs(self.slope_amp)


@dataclass(frozen=True)
class StencilEntry:
    """Where one ghost row at the barrier edge draws its value from."""

    branch: str
    partner_speed: float
    k: int
    c1: float
    c2: float
    truncated: bool = False


def resolve_interface(
    v_j: float, v_minus: float, v_plus: float, grid: PhaseSpaceGrid
) -> StencilEntry:
    """Trace one velocity row through the potential step at x = 0.

    A particle at speed v_j crosses when its kinetic energy survives the
    potential jump ahead of it (v_j > 0 moves left-to-right against
    v_plus - v_minus, and mirrored for v_j < 0); it keeps |new speed| =
    sqrt(v_j^2 + 2*jump).  Otherwise it reflects onto the opposite row, which
    exists exactly on the symmetric v grid.  Transmit entries carry true
    linear-interpolation weights: c1 on row k, c2 on row k + 1.
    """
    if v_j == 0.0:
        raise ValueError("v = 0 rows never touch the barrier stencil")
    centers = grid.v_centers
    if v_j > 0.0:
        disc = v_j * v_j + 2.0 * (v_minus - v_plus)
    else:
        disc = v_j * v_j + 2.0 * (v_plus - v_minus)
    if disc > 0.0:
        # no jump keeps the row exactly, with no roundoff from the sqrt
        speed = abs(v_j) if v_minus == v_plus else float(np.sqrt(disc))
        target = speed if v_j > 0.0 else -speed
        k = int(np.searchsorted(centers, target, side="right")) - 1
        if k < 0:
            return StencilEntry("transmit", target, 0, 1.0, 0.0, True)
        if k >= grid.nv - 1 and target > centers[-1]:
            return StencilEntry("transmit", target, grid.nv - 1, 1.0, 0.0, True)
        if target == centers[k]:
            return StencilEntry("transmit", target, k, 1.0, 0.0)
        dv = grid.dv
        c1 = (centers[k + 1] - target) / dv
        c2 = (target - centers[k]) / dv
        return StencilEntry("transmit", target, k, c1, c2)
    j = int(np.searchsorted(centers, v_j))
    if j >= grid.nv or centers[j] != v_j:
        raise ValueError("reflection requires v_j to be a grid row")
    return StencilEntry("reflect", -v_j, grid.mirror_row(j), 1.0, 0.0)


@dataclass(frozen=True)
class _StencilSide:
    """Vectorized gather data for the ghost rows on one side of the barrier."""

    rows: np.ndarray
    transmit: np.ndarray
    k: np.ndarray
    k1: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    mirror: np.ndarray
    truncated: np.ndarray

    def gather(self, partner_vals: np.ndarray, own_vals: np.ndarray) -> np.ndarray:
        """Ghost values: interpolate the partner cell or reflect the own cell."""
        trans = self.c1[:, None] * partner_vals[self.k] + self.c2[:, None] * partner_vals[self.k1]
        refl = own_vals[self.mirror]
        return np.where(self.transmit[:, None], trans, refl)

    def live_truncations(self, partner_vals: np.ndarray) -> int:
        """Count truncated entries that are actually fed nonzero density."""
        if not self.truncated.any():
            return 0
        picked = partner_vals[self.k[self.truncated]]
        return int(np.count_nonzero(np.any(picked != 0.0, axis=-1)))


@dataclass(frozen=True)
class BarrierStencil:
    """Precomputed transmit/reflect connectivity for both barrier ghosts.

    The potential's z-dependent tilt vanishes at x = 0, so the one-sided
    limits there carry no z term and the stencil is built once per grid.
    """

    right_side: _StencilSide
    left_side: _StencilSide
    static_truncations: int

    @classmethod
    def build(cls, grid: PhaseSpaceGrid, barrier: PotentialBarrier) -> "BarrierStencil":
        centers = grid.v_centers
        half = grid.nv // 2
        sides = []
        for rows in (np.arange(half, grid.nv), np.arange(half)):
            entries = [
                # arrival rows are traced backwards: swap the two potentials
                resolve_interface(centers[j], barrier.v_right, barrier.v_left, grid)
                for j in rows
            ]
            k = np.array([e.k for e in entries])
            sides.append(
                _StencilSide(
                    rows=rows,
                    transmit=np.array([e.branch == "transmit" for e in entries]),
                    k=k,
                    k1=np.minimum(k + 1, grid.nv - 1),
                    c1=np.array([e.c1 for e in entries]),
                    c2=np.array([e.c2 for e in entries]),
                    mirror=np.array([grid.mirror_row(j) for j in rows]),
                    truncated=np.array([e.truncated for e in entries]),
                )
            )
        right_side, left_side = sides
        trunc = int(right_side.truncated.sum() + left_side.truncated.sum())
        return cls(right_side, left_side, trunc)


def _vflux_product(u: np.ndarray, force: np.ndarray, alpha: float, dv: float) -> np.ndarray:
    # central flux for the v-advection term -force*u, in conservative form;
    # zero-gradient ghosts collapse the boundary flux to -force*u_boundary
    flux = np.empty((u.shape[0], u.shape[1] + 1, u.shape[2]))
    flux[:, 1:-1] = (-0.5 * force) * (u[:, :-1] + u[:, 1:]) - (0.5 * alpha) * (
        u[:, 1:] - u[:, :-1]
    )
    flux[:, 0] = -force * u[:, 0]
    flux[:, -1] = -force * u[:, -1]
    return -(flux[:, 1:] - flux[:, :-1]) / dv


def _vflux_ratio(u: np.ndarray, force: np.ndarray, alpha: float, dv: float) -> np.ndarray:
    # legacy central form, multiplied through to stay regular at force = 0;
    # its transport term runs opposite to the product form (comparison only)
    out = np.zeros_like(u)
    out[:, 1:-1] = (
        (0.5 * alpha) * (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2])
        - (0.5 * force) * (u[:, 2:] - u[:, :-2])
    ) / dv
    out[:, 0] = ((0.5 * alpha) * (u[:, 1] - u[:, 0]) - (0.5 * force) * (u[:, 1] - u[:, 0])) / dv
    out[:, -1] = (
        (0.5 * alpha) * (u[:, -2] - u[:, -1]) - (0.5 * force) * (u[:, -1] - u[:, -2])
    ) / dv
    return out


def _vflux_second(
    u: np.ndarray, force: np.ndarray, dt: float, dv: float
) -> np.ndarray:
    # one-step second-order edge values; the dt term makes euler stepping
    # reproduce the classical second-order update exactly
    edge = np.empty((u.shape[0], u.shape[1] + 1, u.shape[2]))
    diff = u[:, 1:] - u[:, :-1]
    edge[:, 1:-1] = 0.5 * (u[:, :-1] + u[:, 1:]) + (force * dt / (2.0 * dv)) * diff
    edge[:, 0] = u[:, 0]
    edge[:, -1] = u[:, -1]
    return force * (edge[:, 1:] - edge[:, :-1]) / dv


def rhs_nodal(
    u: np.ndarray,
    grid: PhaseSpaceGrid,
    barrier: PotentialBarrier,
    stencil: BarrierStencil,
    z_nodes: np.ndarray,
    alpha: float,
    order: int = 1,
    kind: str = "arctan",
    vflux_variant: str = "product",
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Time derivative of nodal values u with shape (nx, nv, nodes)."""
    v = grid.v_centers
    half = grid.nv // 2
    il = grid.barrier_edge - 1
    ir = grid.barrier_edge
    force = barrier.force(z_nodes)

    if order == 1:
        right_edge = left_edge = u
    else:
        offsets = limited_slopes(u, grid.dx, il, kind) * (grid.dx / 2.0)
        right_edge = u + offsets
        left_edge = u - offsets

    # rows moving right (upper half): upwind difference of right-edge states
    up = right_edge[:, half:]
    dpos = np.empty_like(up)
    dpos[1:] = up[1:] - up[:-1]
    dpos[0] = up[0] - u[0, half:]
    ghost = stencil.right_side.gather(right_edge[il], left_edge[ir])
    dpos[ir] = up[ir] - ghost

    # rows moving left (lower half): upwind difference of left-edge states
    dn = left_edge[:, :half]
    dneg = np.empty_like(dn)
    dneg[:-1] = dn[1:] - dn[:-1]
    dneg[-1] = u[-1, :half] - dn[-1]
    ghost_l = stencil.left_side.gather(left_edge[ir], right_edge[il])
    dneg[il] = ghost_l - dn[il]

    if diagnostics is not None:
        diagnostics["truncation_events"] = diagnostics.get("truncation_events", 0) + (
            stencil.right_side.live_truncations(right_edge[il, :])
            + stencil.left_side.live_truncations(left_edge[ir, :])
        )

    out = np.empty_like(u)
    out[:, half:] = (-1.0 / grid.dx) * v[half:, None] * dpos
    out[:, :half] = (-1.0 / grid.dx) * v[:half, None] * dneg

    if order == 1:
        if vflux_variant == "product":
            out += _vflux_product(u, force, alpha, grid.dv)
        else:
            out += _vflux_ratio(u, force, alpha, grid.dv)
    else:
        out += _vflux_second(u, force, grid.dt, grid.dv)
    return out


def advance(u: np.ndarray, dt: float, rhs: Callable[[np.ndarray], np.ndarray], integrator: str) -> np.ndarray:
    """One explicit time step; rk2 averages the two Heun stage slopes."""
    if integrator == "euler":
        return u + dt * rhs(u)
    k1 = rhs(u)
    k2 = rhs(u + dt * k1)
    return u + (0.5 * dt) * (k1 + k2)


def _quarter_disks(x, v):
    r2 = x * x + v * v
    hit = (r2 < 1.0) & (((x >= 0.0) & (v < 0.0)) | ((x <= 0.0) & (v > 0.0)))
    return np.where(hit, 1.0, 0.0)


def _sine_disk(x, v):
    r2 = x * x + v * v
    return np.where(r2 < 0.25, np.sin(2.0 * np.pi * (0.25 - r2)), 0.0)


PHASE_PROFILES = {
    "quarter_disks": _quarter_disks,
    "sine_disk": _sine_disk,
}


@dataclass(frozen=True)
class LiouvilleRun:
    """Final field (nodal values or gPC coefficients) plus diagnostics."""

    field: np.ndarray
    moments: MomentField | None
    diagnostics: dict


def check_cfl(grid: PhaseSpaceGrid, alpha: float) -> None:
    """Require dt*(max|v|/dx + alpha/dv) <= 1 for the split transport fluxes."""
    vmax = float(grid.v_centers[-1])
    cfl = grid.dt * (vmax / grid.dx + alpha / grid.dv)
    if cfl > 1.0 + 1e-12:
        raise ConfigurationError(
            ["CFL number dt*(max|v|/dx + alpha/dv) = %.6g exceeds 1" % cfl]
        )


def _set_up_solve(
    grid: PhaseSpaceGrid,
    barrier: PotentialBarrier,
    t_final: float,
    order: int,
    integrator: str,
    alpha: float | None,
    profile: str,
    kind: str,
    vflux_variant: str,
) -> tuple[int, float, BarrierStencil, np.ndarray]:
    """Validate a solve; return steps, alpha (default max |DV|), stencil, initial values."""
    if alpha is None:
        alpha = barrier.max_force
    problems = []
    if order not in (1, 2):
        problems.append("order must be 1 or 2")
    if integrator not in ("euler", "rk2"):
        problems.append("integrator must be euler or rk2")
    if order == 2 and integrator == "rk2":
        problems.append("the second-order fluxes carry dt and require euler stepping")
    if not callable(profile) and profile not in PHASE_PROFILES:
        problems.append("unknown initial profile %r" % (profile,))
    if kind not in BAP_KINDS:
        problems.append("unknown limiter map %r" % (kind,))
    if vflux_variant not in VFLUX_VARIANTS:
        problems.append("vflux_variant must be one of %s" % (VFLUX_VARIANTS,))
    if alpha < barrier.max_force:
        problems.append("LF viscosity alpha must be >= the largest |DV|")
    try:
        check_cfl(grid, alpha)
    except ConfigurationError as err:
        problems.extend(err.violations)
    if t_final < 0.0:
        problems.append("final time must be >= 0")
    steps = int(round(t_final / grid.dt))
    if abs(steps * grid.dt - t_final) > 1e-9 * max(1.0, t_final):
        problems.append("final time must be an integer number of time steps")
    if problems:
        raise ConfigurationError(problems)
    init = profile if callable(profile) else PHASE_PROFILES[profile]
    values = init(grid.x_centers[:, None], grid.v_centers[None, :])
    return steps, alpha, BarrierStencil.build(grid, barrier), values


def liouville_solve_nodal(
    grid: PhaseSpaceGrid,
    barrier: PotentialBarrier,
    z_nodes: np.ndarray,
    t_final: float,
    order: int = 1,
    integrator: str = "euler",
    alpha: float | None = None,
    profile: str = "quarter_disks",
    kind: str = "arctan",
    vflux_variant: str = "product",
) -> LiouvilleRun:
    """March the nodal scheme at fixed z samples; field shape (nx, nv, nodes)."""
    z_nodes = np.atleast_1d(np.asarray(z_nodes, dtype=float))
    steps, alpha, stencil, values = _set_up_solve(
        grid, barrier, t_final, order, integrator, alpha, profile, kind, vflux_variant
    )

    diag = {"truncation_events": 0}
    rhs = lambda w: rhs_nodal(
        w, grid, barrier, stencil, z_nodes, alpha, order, kind, vflux_variant, diag
    )
    step = lambda w: advance(w, grid.dt, rhs, integrator)
    mass = lambda w: w.sum(axis=(0, 1)) * (grid.dx * grid.dv)
    u, diagnostics = march(
        np.repeat(values[:, :, None], z_nodes.size, axis=2), step, steps, mass,
        "cell (%d, %d), node %d", track_range=True,
    )
    diagnostics["stencil_truncations"] = stencil.static_truncations
    diagnostics["truncation_events"] = diag["truncation_events"]
    return LiouvilleRun(u, None, diagnostics)


def galerkin_rhs(
    field: np.ndarray,
    grid: PhaseSpaceGrid,
    barrier: PotentialBarrier,
    stencil: BarrierStencil,
    basis: OrthonormalBasis,
    rule: QuadratureRule,
    alpha: float,
    order: int = 1,
    kind: str = "arctan",
    vflux_variant: str = "product",
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Time derivative of the coefficient field: evaluate, step, project."""
    if rule.count < basis.size:
        raise ConfigurationError(
            ["quadrature rule must carry at least as many nodes as gPC modes"]
        )
    table = basis.values(rule.nodes)
    nodal = rhs_nodal(
        np.asarray(field, dtype=float) @ table,
        grid,
        barrier,
        stencil,
        rule.nodes,
        alpha,
        order,
        kind,
        vflux_variant,
        diagnostics,
    )
    return project(nodal, basis, rule)


def liouville_solve_gpc(
    grid: PhaseSpaceGrid,
    barrier: PotentialBarrier,
    k: int,
    t_final: float,
    order: int = 1,
    integrator: str = "euler",
    alpha: float | None = None,
    quad_count: int | None = None,
    profile: str = "quarter_disks",
    kind: str = "arctan",
    vflux_variant: str = "product",
) -> LiouvilleRun:
    """March the gPC coefficient field; field shape (nx, nv, k + 1)."""
    steps, alpha, stencil, values = _set_up_solve(
        grid, barrier, t_final, order, integrator, alpha, profile, kind, vflux_variant
    )
    if k < 0:
        raise ConfigurationError(["gPC order must be >= 0"])
    basis = OrthonormalBasis(k)
    rule = gauss_rule(quad_count if quad_count is not None else 2 * k + 2)

    diag = {"truncation_events": 0}
    rhs = lambda w: galerkin_rhs(
        w, grid, barrier, stencil, basis, rule, alpha, order, kind, vflux_variant, diag
    )
    step = lambda w: advance(w, grid.dt, rhs, integrator)
    mass = lambda w: float(w[:, :, 0].sum() * (grid.dx * grid.dv))
    field, diagnostics = march(
        deterministic_coeffs(values, k), step, steps, mass, "cell (%d, %d), mode %d"
    )
    diagnostics["stencil_truncations"] = stencil.static_truncations
    diagnostics["truncation_events"] = diag["truncation_events"]
    return LiouvilleRun(field, MomentField.from_coeffs(field), diagnostics)
