"""gPC stochastic Galerkin solver for phase-space transport over a potential step.

Solves u_t + v u_x - V_x(x, z) u_v = 0 on an (x, v) grid where the potential
V(x, z) = V0(x) + slope*x*z jumps at x = 0.  The x-flux at the barrier routes
density between velocity rows so kinetic plus potential energy is conserved
(transmission) or the velocity is reversed (reflection); v-fluxes are central
and characteristic-independent.  Order 1 is linear in u and in z, so gPC-SG
marches samples at the k + 1 Gauss nodes and projects them once.  Order 2
steps the coefficients: every layer but the limiter is linear, with
coefficients that are constant or polynomial in z, so it acts on the k + 1
coefficients directly, and only the limiter runs at the quadrature nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, reject
from .gpc import ChaosSpace, chaos_problems, deterministic_coeffs, galerkin_matrix, project
from .limiters import _limited_slopes, kind_problems
from .march import march, time_steps
from .workspace import Workspace

__all__ = [
    "PhaseSpaceGrid",
    "PotentialBarrier",
    "BarrierStencil",
    "PHASE_PROFILES",
    "LiouvilleRun",
    "VFLUX_VARIANTS",
    "scheme_problems",
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
        if not -np.inf < self.x_lo < 0.0 < self.x_hi < np.inf:
            problems.append("x range must be finite and straddle the barrier at x = 0")
        if not self.v_hi > 0.0:
            problems.append("v range must be symmetric with positive extent")
        if self.nx < 4 or self.nv < 4:
            problems.append("need at least 4 cells per direction")
        if self.nv % 2 != 0:
            problems.append("nv must be even so v = 0 is a cell edge")
        if not self.dt > 0.0:
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

    def mirror_row(self, j):
        """Row, or array of rows, whose velocity is -v[j]."""
        return self.nv - 1 - j


@dataclass(frozen=True)
class PotentialBarrier:
    """Potential V(x, z) = V0(x) + slope_amp*x*z with V0 jumping at x = 0."""

    v_left: float = 0.2
    v_right: float = 0.0
    slope_amp: float = 0.1

    def __post_init__(self) -> None:
        if not np.all(np.isfinite([self.v_left, self.v_right, self.slope_amp])):
            raise ConfigurationError(["v_left, v_right and slope_amp must be finite"])

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
    truncated_k: np.ndarray  # the partner rows that truncated entries read

    @classmethod
    def trace(
        cls, grid: PhaseSpaceGrid, rows: np.ndarray, v_minus: float, v_plus: float
    ) -> "_StencilSide":
        """Trace velocity rows through the potential step at x = 0.

        A particle at speed v crosses when its kinetic energy survives the
        potential jump ahead of it (v > 0 moves left-to-right against
        v_plus - v_minus, and mirrored for v < 0); it keeps |new speed| =
        sqrt(v^2 + 2*jump).  Otherwise it reflects onto the opposite row, which
        exists exactly on the symmetric v grid.  Transmitted rows carry true
        linear-interpolation weights: c1 on row k, c2 on row k1 = k + 1; a
        speed past the outer rows is truncated onto the nearest one.  k, k1,
        c1 and c2 of reflected rows are never read.
        """
        centers = grid.v_centers
        v = centers[rows]
        disc = v * v + 2.0 * np.where(v > 0.0, v_minus - v_plus, v_plus - v_minus)
        transmit = disc > 0.0
        # no jump keeps the row exactly, with no roundoff from the sqrt
        speed = np.abs(v) if v_minus == v_plus else np.sqrt(np.where(transmit, disc, 0.0))
        target = np.copysign(speed, v)
        truncated = transmit & ((target < centers[0]) | (target > centers[-1]))
        k = np.clip(np.searchsorted(centers, target, side="right") - 1, 0, grid.nv - 1)
        k1 = np.minimum(k + 1, grid.nv - 1)
        exact = truncated | (target == centers[k])
        c1 = np.where(exact, 1.0, (centers[k1] - target) / grid.dv)
        c2 = np.where(exact, 0.0, (target - centers[k]) / grid.dv)
        return cls(rows, transmit, k, k1, c1, c2, grid.mirror_row(rows), truncated, k[truncated])

    def gather(self, partner_vals: np.ndarray, own_vals: np.ndarray) -> np.ndarray:
        """Ghost values: interpolate the partner cell or reflect the own cell."""
        trans = self.c1[:, None] * partner_vals[self.k] + self.c2[:, None] * partner_vals[self.k1]
        refl = own_vals[self.mirror]
        return np.where(self.transmit[:, None], trans, refl)

    def live_truncations(self, partner_vals: np.ndarray) -> int:
        """Count truncated entries that are actually fed nonzero density."""
        if not self.truncated_k.size:
            return 0
        picked = partner_vals[self.truncated_k]
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
        half = grid.nv // 2
        # arrival rows are traced backwards: swap the two potentials
        right_side, left_side = (
            _StencilSide.trace(grid, rows, barrier.v_right, barrier.v_left)
            for rows in (np.arange(half, grid.nv), np.arange(half))
        )
        trunc = int(right_side.truncated.sum() + left_side.truncated.sum())
        return cls(right_side, left_side, trunc)


# The v-flux is the central flux of the paper, F_{j+1/2} = -f/2*(u_j + u_{j+1})
# - a/2*(u_{j+1} - u_j), for the v-advection term -f*u with a per-node
# transport coefficient f and viscosity a.  Three (f, a) pairs use it:
# (force, alpha), Lax-Friedrichs, at order 1; (-force, alpha) for the legacy
# `vflux = ratio` form, whose transport runs the other way; and (force,
# force^2*dt/dv) at order 2, the one-step Lax-Wendroff flux: its edge value
# (u_j + u_{j+1})/2 + f*dt/(2*dv)*(u_{j+1} - u_j), times -f, is the central
# flux above with a = f^2*dt/dv, so Lax-Wendroff is Lax-Friedrichs with that
# per-node viscosity, and with euler stepping it gives the classical
# second-order update.  Divided by -dv, edge j+1/2 is lower*u_j +
# upper*u_{j+1}, with lower = (a/2 - f/2)/(-dv) and upper = (-f/2 - a/2)/(-dv).
# On samples these are (nv, n) tables, built once per solve so that each
# multiplication runs over whole x-rows.  At order-2 SG, f and a are
# polynomials in z and the edge is linear in u, so the projection of the
# edge of the evaluated coefficients is the coefficients times the
# (k + 1, k + 1) Galerkin matrices of lower and upper.
#
# The kernel views each (nx, nv, n) array as nx*nv contiguous rows of n
# values, cell (i, j) in row i*nv + j, so every v-edge sum or difference is
# one contiguous operation between two views one row apart.  The edge
# buffer has the state's shape: slot (i, j) holds edge j+1/2 of x-row i.
# Slot (i, nv-1), where the shifted views pair the top of x-row i with the
# bottom of x-row i+1, holds x-row i's top boundary edge instead.  The flux
# difference of slot j then reads slots j and j-1, except at j = 0, which
# is recomputed from the bottom boundary edge.  The flux takes two table
# products, one shifted add and one shifted difference.


def _vflux_coefficients(grid, force, alpha=None, vflux_variant="product"):
    """The v-flux's (lower, upper) at each node of `force`.

    With an LF viscosity `alpha` the pair (f, a) is (force, alpha), or
    (-force, alpha) for the ratio form; without one it is order 2's (force,
    force^2*dt/dv).
    """
    if alpha is None:
        f, a = force, force * force * grid.dt / grid.dv
    else:
        f, a = (force if vflux_variant == "product" else -force), alpha
    return tuple(c / -grid.dv for c in (0.5 * a - 0.5 * f, -0.5 * f - 0.5 * a))


def _vflux_tables(grid, force, alpha=None, vflux_variant="product"):
    """The tables (lower, upper) of the v-flux, each of shape (nv, n)."""
    return tuple(
        np.tile(c, (grid.nv, 1))
        for c in _vflux_coefficients(grid, force, alpha, vflux_variant)
    )


def _vflux_matrices(grid, barrier, space):
    """Order 2's (lower, upper) as Galerkin matrices of `space`, each (k + 1, k + 1)."""
    return tuple(
        galerkin_matrix(
            lambda z, side=side: _vflux_coefficients(grid, barrier.force(z))[side], space
        )
        for side in (0, 1)
    )


# The scratch pair of a block (see `Workspace`): at the nodes, which the
# order-2 SG step uses for its limiter only, and on its coefficients.
_NODES_PAIR = ("scratch", "scratch_result")
_COEFFS_PAIR = ("coef_scratch", "coef_scratch_result")


def _vflux(
    u: np.ndarray, lower: np.ndarray, upper: np.ndarray, work: Workspace,
    product=np.multiply, pair=_NODES_PAIR,
) -> np.ndarray:
    # the flux difference of the edges lower*u_j + upper*u_{j+1}, in the
    # second buffer of `work`'s scratch `pair`, with the edges in the first.
    # `product` is np.multiply for the (nv, n) tables and np.matmul for the
    # Galerkin matrices.  The zero-gradient ghosts repeat the boundary state
    # in both products, so a state constant in v gives exact zeros.
    n = u.shape[-1]
    edges = work.buffer(pair[0], u.shape)
    out = work.buffer(pair[1], u.shape)
    bottom = work.buffer("vflux_bottom_edges", (len(u), n))
    ef, of = (a.reshape(-1, n) for a in (edges, out))
    product(u, lower, out=edges)
    product(u, upper, out=out)
    np.add(edges[:, 0], out[:, 0], out=bottom)
    edges[:, -1] += out[:, -1]
    out[:, 0] = 0.0  # so that the shifted add leaves the top boundary slots as they are
    ef[:-1] += of[1:]
    np.subtract(ef[1:], ef[:-1], out=of[1:])
    np.subtract(edges[:, 0], bottom, out=out[:, 0])
    return out


# Bytes of state, per block of consecutive x-rows, that set the block height:
# a block's arrays then stay in cache while the step works through them.
_BLOCK_BYTES = 384 * 1024


def _row_blocks(grid: PhaseSpaceGrid, n: int):
    """The x-row ranges [a, b) of a step's blocks, on n values per cell."""
    height = max(1, _BLOCK_BYTES // (grid.nv * n * 8))
    for a in range(0, grid.nx, height):
        yield a, min(a + height, grid.nx)


# One block of the right-hand side, x-rows [a, b).  It reads a slab of the
# state's rows [lo, hi) = [a-1, b+1), clipped to the grid, at either order:
# an upwind difference reaches one row.  Slab row r is grid row lo + r.
# At order 2 every slab row needs its limited slope, and each slope is
# limited once per step: the block limits the slopes of its new rows,
# a+1 to min(b, nx-2), from the limiter's cells [a, min(b+2, nx)), and
# takes those of rows a-1 and a from "slope_carry", two rows that the
# block before it filled.  The first block of a step reads no carry: row
# 0 is a flat end of its limiter.  The interface cells, when new rows of
# the block, find their one-sided differences among its limiter's cells.
# `upwind` holds the state each slab row carries across its downwind edge:
# the right edge state u + offset in the upper v-half (v > 0), the left
# edge state u - offset in the lower half, and u itself at order 1; at
# order 2 it is written over the limiter's offsets.  Row d of `diffs` is
# the jump across x-edge a + d - 1/2, one contiguous difference of whole
# rows; x-row i takes the upper half of its left edge, diffs[i - a], and
# the lower half of its right edge, diffs[i - a + 1].  The
# boundary edges -1/2 and nx - 1/2, whose ghosts hold the boundary rows' own
# states, and the barrier edge ir - 1/2 are rewritten first.  The x speed
# then scales whole rows, and each half is copied into place: numpy copies
# half rows about as fast as whole ones, but computes on them more slowly.
#
# Besides its slab and its rows of the result, a block holds the
# workspace's scratch pair, which its layers take in turn: the limiter's
# differences and then `diffs` are in "scratch", the limiter's slopes and
# then the order-2 `upwind` in "scratch_result"; once the halves of `diffs`
# are copied into the rates, the v-flux takes both, its edges in "scratch"
# and its result in "scratch_result".
#
# At order-2 SG the slab holds coefficients, and every layer but the
# limiter acts on them: the x speed, the edge-offset sign and the barrier's
# weights do not depend on z, and the v-flux takes the Galerkin matrices.
# The limiter alone runs at the nodes, in the nodal pair; the other layers
# take the coefficient pair in the same turns.  The coefficient differences
# go to "coef_scratch", then their values at the nodes over dx to the
# limiter's "scratch", and the projection of the new rows' slopes to
# "coef_scratch_result".


def _block_slopes(u, a, b, grid, kind, work, space):
    """The limited slopes of block [a, b)'s slab rows, in the second buffer of its pair.

    The rows before a + 1 come from the carry, and the carry then takes
    rows b - 1 and b for the next block.
    """
    nx = grid.nx
    lo, end = max(a - 1, 0), min(b + 2, nx)
    cells = u[a:end]  # the limiter's cells; its flat end rows are a and end - 1
    shape = u.shape[1:]
    pair = _NODES_PAIR if space is None else _COEFFS_PAIR
    il = grid.barrier_edge - 1 - a
    slopes = work.buffer(pair[1], (end - lo,) + shape)
    d = np.subtract(cells[1:], cells[:-1], out=work.buffer(pair[0], (len(cells) - 1,) + shape))
    if space is None:
        d /= grid.dx
        _limited_slopes(d, il, kind, work, out=slopes[a - lo :])
    else:
        d = np.matmul(
            d, work.derived("table_over_dx", lambda: space.table / grid.dx),
            out=work.buffer("scratch", d.shape[:-1] + (space.count,)),
        )
        nodal_slopes = _limited_slopes(d, il, kind, work)
        slopes[a - lo] = slopes[-1] = 0.0
        project(nodal_slopes[1:-1], space, out=slopes[a - lo + 1 : -1])
    carry = work.buffer("slope_carry", (2,) + shape)
    if a > 0:
        slopes[:2] = carry
    if b < nx:
        carry[...] = slopes[b - 1 - lo : b + 1 - lo]
    return slopes[: min(b + 1, nx) - lo]


def _rhs_block(u, a, b, out, grid, stencil, tables, order, kind, work, space=None) -> None:
    """Fill rows [a, b) of `out`; with a chaos `space`, u holds order-2 coefficients.

    `tables` are the x speed and the v-flux's (lower, upper), from
    `_step_tables`: (nv, n) tables, or with a `space` Galerkin matrices.
    At order 2 the blocks of one step must run in order, from a = 0.
    """
    nx, half = grid.nx, grid.nv // 2
    il, ir = grid.barrier_edge - 1, grid.barrier_edge
    lo, hi = max(a - 1, 0), min(b + 1, nx)
    slab = u[lo:hi]
    n = slab.shape[-1]
    speed, lower, upper = tables
    pair = _NODES_PAIR if space is None else _COEFFS_PAIR

    if order == 1:
        upwind = slab
    else:
        offsets = _block_slopes(u, a, b, grid, kind, work, space)
        # -dx/2 on rows moving right, so that u - offsets is each row's upwind
        # state; x - (-y) is x + y to the bit
        offsets *= work.derived(
            "edge_offset",
            lambda: np.repeat(np.where(grid.v_centers > 0.0, -0.5, 0.5)[:, None] * grid.dx, n, 1),
        )
        if a <= ir <= b:
            # the edge states that the barrier gather reads, formed before the
            # upwind states are written over the offsets
            barrier_edges = np.add(
                slab[il - lo : ir - lo + 1], offsets[il - lo : ir - lo + 1],
                out=work.buffer("barrier_edges", (2,) + slab.shape[1:]),
            )
        upwind = np.subtract(slab, offsets, out=offsets)

    diffs = work.buffer(pair[0], (b - a + 1,) + slab.shape[1:])
    first, last = max(a, 1), min(b + 1, nx)  # rows whose left edge is interior
    np.subtract(
        upwind[first - lo : last - lo], upwind[first - 1 - lo : last - 1 - lo],
        out=diffs[first - a : last - a],
    )
    if a == 0:  # v > 0 enters through edge -1/2; its ghost is row 0's state
        np.subtract(upwind[0], slab[0], out=diffs[0])
    if b == nx:  # v < 0 enters through edge nx - 1/2; its ghost is row nx - 1's state
        np.subtract(slab[-1], upwind[-1], out=diffs[-1])
    if a <= ir <= b:
        # the full edge states the barrier gather reads: the right edge of
        # row il and the left edge of row ir
        if order == 1:
            right_il, left_ir = slab[il - lo], slab[ir - lo]
        else:
            right_il, left_ir = barrier_edges
            right_il[half:] = upwind[il - lo, half:]
            left_ir[:half] = upwind[ir - lo, :half]
        events = 0
        if ir < b:  # rows moving right into row ir
            ghost = stencil.right_side.gather(right_il, left_ir)
            np.subtract(upwind[ir - lo, half:], ghost, out=diffs[ir - a, half:])
            events += stencil.right_side.live_truncations(right_il)
        if a <= il:  # rows moving left into row il
            ghost = stencil.left_side.gather(left_ir, right_il)
            np.subtract(ghost, upwind[il - lo, :half], out=diffs[ir - a, :half])
            events += stencil.left_side.live_truncations(left_ir)
        work.counts["truncation_events"] += events

    diffs *= speed
    rates = out[a:b]
    rates[:, half:] = diffs[:-1, half:]
    rates[:, :half] = diffs[1:, :half]
    product = np.multiply if space is None else np.matmul
    rates += _vflux(slab[a - lo : b - lo], lower, upper, work, product, pair)


def _step_tables(work, grid, n, vflux_tables, dt):
    """The x speed, (nv, n), and the v-flux's (lower, upper), built once per solve.

    `vflux_tables()` builds the v-flux's pair: (nv, n) tables, or Galerkin
    matrices.  With a `dt`, the tables come times dt, built once for each
    dt: an euler step's blocks then hold dt * rhs, and need only u added.
    """
    tables = work.derived(
        "step_tables",
        lambda: (np.repeat((-1.0 / grid.dx) * grid.v_centers[:, None], n, 1),) + vflux_tables(),
    )
    if dt is None:
        return tables
    return work.derived(("euler_step_tables", dt), lambda: tuple(dt * table for table in tables))


def _rhs(u, grid, stencil, tables, order, kind, work, space, dt):
    """The right-hand side in `work`'s "rhs" buffer, one block of x-rows at a time.

    With a `dt`, whose `tables` then carry it, each block's dt * rhs gets
    u added while it is in cache: the Euler step, in the state buffer of
    `work` that is not u.
    """
    out = work.buffer("rhs", u.shape) if dt is None else work.state_after(u)
    for a, b in _row_blocks(grid, u.shape[-1] if space is None else space.count):
        _rhs_block(u, a, b, out, grid, stencil, tables, order, kind, work, space)
        if dt is not None:
            out[a:b] += u[a:b]
    return out


def rhs_nodal(
    u: np.ndarray,
    grid: PhaseSpaceGrid,
    stencil: BarrierStencil,
    force: np.ndarray,
    alpha: float,
    order: int = 1,
    kind: str = "arctan",
    vflux_variant: str = "product",
    work: Workspace | None = None,
    dt: float | None = None,
) -> np.ndarray:
    """Time derivative of u, shape (nx, nv, n), in `work`'s "rhs" buffer.

    u holds samples at n nodes of z, and `force` the force at each of them,
    shape (n,).  Barrier events go to `work.counts`.  With a `dt`, the result
    is instead the Euler step u + dt * rhs, written block by block into the
    state buffer of `work` that is not u; no "rhs" buffer is made, and dt
    is folded into the x speed and v-flux tables, so the step's last digits
    may differ from u + dt * rhs_nodal(u).  The tables are built on the
    first call with `work`, which then serves these force, alpha, order and
    vflux_variant only.
    """
    work = Workspace() if work is None else work
    tables = _step_tables(
        work, grid, u.shape[-1],
        lambda: _vflux_tables(grid, force, alpha if order == 1 else None, vflux_variant), dt,
    )
    return _rhs(u, grid, stencil, tables, order, kind, work, None, dt)


def advance(
    u: np.ndarray,
    dt: float,
    rhs: Callable[..., np.ndarray],
    integrator: str,
    work: Workspace | None = None,
) -> np.ndarray:
    """One explicit time step; rk2 averages the two Heun stage slopes.

    `rhs(u)` is the time derivative at u, and `rhs(u, dt)` the Euler step
    u + dt * rhs(u): an euler step is that one call, which `rhs_nodal` and
    `galerkin_rhs` make block by block with dt folded into their tables, so
    it may differ from u + dt * rhs(u) in the last digits.  The rk2 step
    puts the new state into the one of `work`'s two state buffers that is
    not u, so u is left as it was.  Between its stages the "rhs" buffer,
    into which a rhs that shares `work` writes, is swapped out, so the
    first stage's slope survives the second.
    """
    if integrator == "euler":
        return rhs(u, dt)
    work = Workspace() if work is None else work
    out = work.state_after(u)
    k1 = rhs(u)
    np.multiply(dt, k1, out=out)
    np.add(u, out, out=out)
    work.swap("rhs", "first_slope")
    k2 = rhs(out)
    if k2 is k1:
        raise ValueError("rhs wrote both stage slopes into one array: give advance its workspace")
    np.add(k1, k2, out=out)
    np.multiply(0.5 * dt, out, out=out)
    return np.add(u, out, out=out)


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


class LiouvilleRun(NamedTuple):
    """Final field (nodal values or gPC coefficients) plus diagnostics."""

    field: np.ndarray
    diagnostics: dict


def scheme_problems(
    order, integrator, profile, kind, vflux_variant, z_nodes=(), grid=None, barrier=None, alpha=None
) -> list:
    """Problems with a phase-space solve's scheme settings.

    The LF viscosity alpha is checked when `barrier` and `alpha` are given,
    the CFL bound dt*(max|v|/dx + alpha/dv) <= 1 when `grid` and `alpha` are.
    """
    problems = kind_problems(kind)
    if order not in (1, 2):
        problems.append(("order", "order must be 1 or 2"))
    if integrator not in ("euler", "rk2"):
        problems.append(("integrator", "integrator must be euler or rk2"))
    if order == 2 and integrator == "rk2":
        problems.append(
            ("integrator", "the second-order fluxes carry dt and require euler stepping")
        )
    if not callable(profile) and profile not in PHASE_PROFILES:
        problems.append(("profile", "unknown initial profile %r" % (profile,)))
    if vflux_variant not in VFLUX_VARIANTS:
        problems.append(("vflux", "vflux must be one of %s" % (VFLUX_VARIANTS,)))
    if not np.all(np.abs(z_nodes) <= 1.0):
        problems.append(("z", "samples must lie in [-1, 1]"))
    if alpha is not None:
        if barrier is not None and not alpha >= barrier.max_force:
            problems.append(("alpha", "LF viscosity alpha must be >= the largest |DV|"))
        if grid is not None:
            cfl = grid.dt * (grid.v_centers[-1] / grid.dx + alpha / grid.dv)
            if cfl > 1.0 + 1e-12:
                problems.append((None, "CFL number dt*(max|v|/dx + alpha/dv) = %.6g exceeds 1" % cfl))
    return problems


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
    z_nodes=(),
    problems=(),
) -> tuple[int, float, BarrierStencil, np.ndarray, Workspace]:
    """Validate a solve with the caller's `problems`; return steps, alpha, stencil, values, work.

    Problems are listed in config's order: step count, the caller's, the scheme's.
    """
    alpha = barrier.max_force if alpha is None or order == 2 else alpha
    steps, found = time_steps(t_final, grid.dt)
    found += problems
    found += scheme_problems(
        order, integrator, profile, kind, vflux_variant, z_nodes, grid, barrier, alpha
    )
    reject(found)
    init = profile if callable(profile) else PHASE_PROFILES[profile]
    values = init(grid.x_centers[:, None], grid.v_centers[None, :])
    stencil, work = BarrierStencil.build(grid, barrier), Workspace()
    work.counts.update(stencil_truncations=stencil.static_truncations, truncation_events=0)
    return steps, alpha, stencil, values, work


def _node_sums(w: np.ndarray) -> np.ndarray:
    """Sums over the cells of an (nx, nv, n) field, one per node.

    numpy adds the rows in one fixed order; a BLAS product with a vector of
    ones splits the sum over its threads, so its last bits would depend on
    the thread count.
    """
    nx, nv, n = w.shape
    return w.reshape(nx, -1).sum(0).reshape(nv, n).sum(0)


def _nodal_step(grid, barrier, stencil, nodes, alpha, order, integrator, kind, vflux, work):
    """The scheme as a time step of (nx, nv, nodes) samples, the force per node."""
    force = barrier.force(nodes)
    rhs = lambda w, dt=None: rhs_nodal(
        w, grid, stencil, force, alpha, order, kind, vflux, work, dt
    )
    return lambda w: advance(w, grid.dt, rhs, integrator, work)


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
    """March the nodal scheme at fixed z samples; field shape (nx, nv, nodes).

    `alpha`, the order-1 LF viscosity, defaults to the largest |force|; order 2 ignores it.
    """
    z_nodes = np.atleast_1d(np.asarray(z_nodes, dtype=float))
    steps, alpha, stencil, values, work = _set_up_solve(
        grid, barrier, t_final, order, integrator, alpha, profile, kind, vflux_variant,
        z_nodes=z_nodes,
    )
    step = _nodal_step(
        grid, barrier, stencil, z_nodes, alpha, order, integrator, kind, vflux_variant, work
    )
    mass = lambda w: _node_sums(w) * (grid.dx * grid.dv)
    u, diagnostics = march(
        np.repeat(values[:, :, None], z_nodes.size, axis=2), step, steps, mass,
        "cell (%d, %d), node %d", track_range=True,
    )
    diagnostics.update(work.counts)
    return LiouvilleRun(u, diagnostics)


def galerkin_rhs(
    field: np.ndarray,
    grid: PhaseSpaceGrid,
    barrier: PotentialBarrier,
    stencil: BarrierStencil,
    kind: str,
    space: ChaosSpace,
    work: Workspace | None = None,
    dt: float | None = None,
) -> np.ndarray:
    """Order-2 time derivative of the coefficient field, the SG form of `rhs_nodal`'s.

    The result is in `work`'s "rhs" buffer, one block of x-rows at a time.
    Only the limiter runs at the space's nodes: it takes the coefficient
    differences evaluated there, and its slopes are projected.  The
    x-transport acts on the coefficients, and the v-flux takes the Galerkin
    matrices of its edge coefficients, which are quadratic in z.  With a
    `dt`, each block goes on to the Euler step, with dt folded into the x
    speed and the matrices, as in `rhs_nodal`.
    """
    work = Workspace() if work is None else work
    tables = _step_tables(
        work, grid, field.shape[-1], lambda: _vflux_matrices(grid, barrier, space), dt
    )
    return _rhs(field, grid, stencil, tables, 2, kind, work, space, dt)


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
    """Solve for the gPC coefficients, shape (nx, nv, k + 1); `alpha` as for the nodal solve.

    Order 1, linear in z, is SG exactly on the k + 1 Gauss nodes whatever
    `quad_count`: it marches samples there and projects once.
    """
    steps, alpha, stencil, values, work = _set_up_solve(
        grid, barrier, t_final, order, integrator, alpha, profile, kind, vflux_variant,
        problems=chaos_problems(k, quad_count),
    )
    space = ChaosSpace.build(k, k + 1 if order == 1 else quad_count)
    cell = grid.dx * grid.dv

    if order == 1:
        step = _nodal_step(
            grid, barrier, stencil, space.rule.nodes, alpha, 1, integrator, kind, vflux_variant,
            work,
        )
        mass = lambda w: float(_node_sums(w) @ space.rule.weights * cell)
        samples, diagnostics = march(
            np.repeat(values[:, :, None], k + 1, axis=2), step, steps, mass,
            "cell (%d, %d), node %d",
        )
        field = project(samples, space, out=work.state_after(samples))
    else:
        rhs = lambda w, dt=None: galerkin_rhs(w, grid, barrier, stencil, kind, space, work, dt)
        step = lambda w: advance(w, grid.dt, rhs, integrator, work)
        # mode 0 alone misses a non-finite higher mode, and the march scans a
        # state only when its mass is non-finite
        mass = lambda w: float(w[:, :, 0].sum() * cell) if np.isfinite(w).all() else np.nan
        field, diagnostics = march(
            deterministic_coeffs(values, k), step, steps, mass, "cell (%d, %d), mode %d"
        )
    diagnostics.update(work.counts)
    return LiouvilleRun(field, diagnostics)
