"""Phase-space solver: barrier stencil, fluxes, stepping, and conservation."""

import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from stochhyp import (
    BarrierStencil,
    ConfigurationError,
    PhaseSpaceGrid,
    PotentialBarrier,
    deterministic_liouville,
    liouville_solve_gpc,
    liouville_solve_nodal,
)
from stochhyp import limiters, liouville
from stochhyp.config import PRESETS
from stochhyp.liouville import PHASE_PROFILES, advance, rhs_nodal, scheme_problems
from stochhyp.workspace import Workspace
from stochhyp import ChaosSpace, galerkin_matrix, gauss_rule, project
from stochhyp.gpc import deterministic_coeffs
from stochhyp.limiters import BAP_KINDS, limited_slopes

STEP = PotentialBarrier(0.2, 0.0, 0.1)


def unit_grid(nx=100, nv=100, dt=0.002, span=2.0):
    return PhaseSpaceGrid(-span, span, span, nx, nv, dt)


def constant_in_x(values_v, grid, nodes=1):
    out = np.empty((grid.nx, grid.nv, nodes))
    out[:] = np.asarray(values_v)[None, :, None]
    return out


# --- grid and barrier ---


def test_grid_centers_and_edges():
    grid = unit_grid()
    assert grid.dx == pytest.approx(0.04)
    assert grid.dv == pytest.approx(0.04)
    assert grid.barrier_edge == 50
    assert grid.x_lo + grid.barrier_edge * grid.dx == pytest.approx(0.0, abs=1e-15)
    assert 0.0 not in grid.v_centers  # v = 0 must be an edge


def test_grid_velocity_mirror_is_exact():
    grid = unit_grid()
    v = grid.v_centers
    for j in range(grid.nv):
        assert v[grid.mirror_row(j)] == -v[j]


def test_grid_validation_collects_problems():
    with pytest.raises(ConfigurationError) as err:
        PhaseSpaceGrid(0.5, 2.0, 2.0, 10, 7, 0.0)
    text = "; ".join(err.value.violations)
    assert "straddle" in text
    assert "even" in text
    assert "dt" in text
    with pytest.raises(ConfigurationError, match="at least 4 cells per direction"):
        PhaseSpaceGrid(-1.0, 1.0, 1.0, 2, 10, 0.01)


def test_grid_rejects_misaligned_barrier():
    with pytest.raises(ConfigurationError):
        PhaseSpaceGrid(-1.0, 2.0, 2.0, 10, 10, 0.01)  # dx = 0.3, 0 not on an edge
    with pytest.raises(ConfigurationError, match="x = 0 must be an interior cell edge"):
        PhaseSpaceGrid(-2.0, 1e-12, 2.0, 10, 10, 0.01)  # 0 on the right end's edge


def test_barrier_evaluation():
    assert STEP.value(-1.0, 0.0) == pytest.approx(0.2)
    assert STEP.value(2.0, 0.0) == pytest.approx(0.0)
    assert STEP.value(2.0, 0.5) == pytest.approx(0.1)  # tilt 0.1*x*z
    assert STEP.force(1.0) == pytest.approx(0.1)
    assert STEP.max_force == pytest.approx(0.1)
    assert PotentialBarrier(0.2, 0.0, 0.0).max_force == 0.0


def test_cfl_guard():
    cfl = lambda grid: scheme_problems(
        1, "euler", "quarter_disks", "arctan", "product", grid=grid, alpha=0.1
    )
    assert cfl(unit_grid()) == []
    assert cfl(PhaseSpaceGrid(-2.0, 2.0, 2.0, 100, 100, 0.05)) == [
        (None, "CFL number dt*(max|v|/dx + alpha/dv) = 2.6 exceeds 1")
    ]


# --- interface resolution ---


def traced(grid, barrier, v):
    """Ghost side holding the velocity row v of the built stencil, and its index there."""
    stencil = BarrierStencil.build(grid, barrier)
    side = stencil.right_side if v > 0.0 else stencil.left_side
    (i,) = np.flatnonzero(grid.v_centers[side.rows] == v)
    return side, i


def partner_speed(grid, side, i):
    v = grid.v_centers
    return side.c1[i] * v[side.k[i]] + side.c2[i] * v[side.k1[i]]


def test_resolve_no_jump_keeps_the_row():
    grid = unit_grid()
    for v in (0.5, -0.74):
        side, i = traced(grid, PotentialBarrier(0.3, 0.3, 0.1), v)
        assert side.transmit[i]
        assert partner_speed(grid, side, i) == v
        assert side.c1[i] == 1.0 and side.c2[i] == 0.0
        assert grid.v_centers[side.k[i]] == v
        assert not side.truncated[i]


def test_resolve_downhill_crossing_speeds_up():
    # traced back from the high side, a row arriving rightward goes down the step
    grid = unit_grid()
    side, i = traced(grid, PotentialBarrier(0.0, 0.2, 0.1), 0.5)
    assert side.transmit[i]
    assert partner_speed(grid, side, i) == pytest.approx(np.sqrt(0.65), abs=1e-15)
    # true linear interpolation between the bracketing rows
    lo, hi = grid.v_centers[side.k[i]], grid.v_centers[side.k1[i]]
    assert lo <= np.sqrt(0.65) < hi
    assert side.c1[i] + side.c2[i] == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= side.c1[i] <= 1.0


def test_resolve_uphill_without_energy_reflects():
    grid = unit_grid()
    side, i = traced(grid, STEP, 0.5)
    assert not side.transmit[i]
    assert grid.v_centers[side.mirror[i]] == -0.5


def test_resolve_mirrored_for_leftward_rows():
    grid = unit_grid()
    side, i = traced(grid, STEP, -0.5)  # arrives on the high side leftward
    assert side.transmit[i]
    assert partner_speed(grid, side, i) == pytest.approx(-np.sqrt(0.65), abs=1e-15)
    blocked, j = traced(grid, PotentialBarrier(0.0, 0.2, 0.1), -0.5)  # cannot climb leftward
    assert not blocked.transmit[j]
    assert grid.v_centers[blocked.mirror[j]] == 0.5


def test_resolve_truncates_outside_the_grid():
    grid = PhaseSpaceGrid(-1.0, 1.0, 1.0, 10, 10, 0.01)
    side, i = traced(grid, PotentialBarrier(0.0, 3.0, 0.1), 0.9)  # sped up past v_hi
    assert side.transmit[i]
    assert side.truncated[i]
    assert side.k[i] == grid.nv - 1


@pytest.mark.parametrize(
    "v_left, v_right",
    [(0.2, 0.0), (0.0, 0.2), (0.3, 0.3), (5.0, 0.0)],
    ids=["step_down", "step_up", "no_jump", "rigid_wall"],
)
def test_every_row_conserves_energy_or_reflects(v_left, v_right):
    grid = unit_grid()
    v = grid.v_centers
    stencil = BarrierStencil.build(grid, PotentialBarrier(v_left, v_right, 0.1))
    # jump = the ghost side's potential minus the partner side's;
    # right ghosts draw from the left cell, left ghosts from the right one
    sides = ((stencil.right_side, v_right - v_left), (stencil.left_side, v_left - v_right))
    for side, jump in sides:
        vr = v[side.rows]
        disc = vr * vr + 2.0 * jump
        np.testing.assert_array_equal(side.transmit, disc > 0.0)
        t = side.transmit
        target = np.sign(vr[t]) * np.sqrt(disc[t])
        outside = (target < v[0]) | (target > v[-1])
        np.testing.assert_array_equal(side.truncated[t], outside)
        assert not side.truncated[~t].any()
        kept = ~outside
        speed = partner_speed(grid, side, t)
        np.testing.assert_allclose(speed[kept], target[kept], rtol=0.0, atol=1e-14)
        # truncated rows read the outer row they overshoot
        outer = np.where(target[outside] > 0.0, grid.nv - 1, 0)
        np.testing.assert_array_equal(side.k[t][outside], outer)
        np.testing.assert_array_equal(v[side.mirror[~t]], -vr[~t])


def test_stencil_counts_static_truncations():
    grid = unit_grid()
    stencil = BarrierStencil.build(grid, STEP)
    assert stencil.static_truncations > 0
    none = BarrierStencil.build(grid, PotentialBarrier(0.0, 0.0, 0.1))
    assert none.static_truncations == 0


# --- nodal right-hand side ---


def test_zero_field_has_zero_rhs():
    grid = unit_grid()
    stencil = BarrierStencil.build(grid, STEP)
    u = np.zeros((grid.nx, grid.nv, 2))
    out = rhs_nodal(u, grid, stencil, STEP.force([0.0, 0.5]), 0.1)
    np.testing.assert_array_equal(out, 0.0)


def test_free_stream_constant_state():
    # no potential jump, no tilt: a uniform field is an exact steady state
    grid = unit_grid()
    barrier = PotentialBarrier(0.0, 0.0, 0.0)
    stencil = BarrierStencil.build(grid, barrier)
    u = np.ones((grid.nx, grid.nv, 1))
    out = rhs_nodal(u, grid, stencil, barrier.force([0.4]), 0.0)
    np.testing.assert_allclose(out, 0.0, atol=1e-13)


def test_tilted_potential_preserves_constants():
    # constant-in-v data sees zero net v-flux even with a nonzero force
    grid = unit_grid()
    barrier = PotentialBarrier(0.0, 0.0, 0.1)
    stencil = BarrierStencil.build(grid, barrier)
    u = np.ones((grid.nx, grid.nv, 1))
    out = rhs_nodal(u, grid, stencil, barrier.force([0.8]), 0.1)
    np.testing.assert_allclose(out, 0.0, atol=1e-13)


def test_lf_flux_reduces_to_upwind_at_matched_viscosity():
    grid = unit_grid()
    barrier = PotentialBarrier(0.0, 0.0, 0.1)
    stencil = BarrierStencil.build(grid, barrier)
    z = np.array([0.7])
    force = 0.1 * 0.7
    rng = np.random.default_rng(0)
    u = constant_in_x(rng.standard_normal(grid.nv), grid)
    out = rhs_nodal(u, grid, stencil, barrier.force(z), alpha=force)
    # positive force transports downward in v: upwind uses the row above
    hand = force * (u[:, 2:, 0] - u[:, 1:-1, 0]) / grid.dv
    np.testing.assert_allclose(out[:, 1:-1, 0], hand, atol=1e-14)


def test_ratio_variant_reverses_the_transport_sign():
    grid = unit_grid()
    barrier = PotentialBarrier(0.0, 0.0, 0.1)
    stencil = BarrierStencil.build(grid, barrier)
    z = np.array([1.0])
    u = constant_in_x(grid.v_centers, grid)  # linear in v
    product = rhs_nodal(u, grid, stencil, barrier.force(z), 0.0, vflux_variant="product")
    ratio = rhs_nodal(u, grid, stencil, barrier.force(z), 0.0, vflux_variant="ratio")
    np.testing.assert_allclose(product[:, 1:-1], 0.1 * 1.0, atol=1e-13)
    np.testing.assert_allclose(ratio[:, 1:-1], -product[:, 1:-1], atol=1e-13)


def test_first_order_rhs_is_linear_in_the_field():
    grid = unit_grid(nx=40, nv=40)
    stencil = BarrierStencil.build(grid, STEP)
    z = np.array([-0.3, 0.6])
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 40, 2))
    b = rng.standard_normal((40, 40, 2))
    lhs = rhs_nodal(1.7 * a + b, grid, stencil, STEP.force(z), 0.1)
    rhs = 1.7 * rhs_nodal(a, grid, stencil, STEP.force(z), 0.1) + rhs_nodal(
        b, grid, stencil, STEP.force(z), 0.1
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_second_order_vflux_transports_quadratics_exactly():
    # one Euler step of the dt-aware flux equals the shifted parabola
    grid = unit_grid()
    barrier = PotentialBarrier(0.0, 0.0, 0.1)
    stencil = BarrierStencil.build(grid, barrier)
    z = np.array([0.7])
    u = constant_in_x(grid.v_centers**2, grid)
    stepped = u + grid.dt * rhs_nodal(u, grid, stencil, barrier.force(z), 0.0, order=2)
    exact = (grid.v_centers + 0.1 * 0.7 * grid.dt) ** 2
    np.testing.assert_allclose(stepped[:, 1:-1, 0] - exact[None, 1:-1], 0.0, atol=1e-13)


def times(values, op, out=None):
    # an operator on the chaos axis: a Galerkin matrix on coefficients, a
    # per-node vector on samples
    return np.matmul(values, op, out=out) if op.ndim == 2 else np.multiply(values, op, out=out)


def strided_vflux_product(u, force, alpha, dv):
    # reference: the order-1 v-flux in product form, -force/2*(u_j + u_{j+1})
    # - alpha/2*(u_{j+1} - u_j), over (nx, nv + 1, n) edges with strided views;
    # with a Galerkin matrix as `force` it is the v-flux of the paper's SG system
    flux = np.empty((u.shape[0], u.shape[1] + 1, u.shape[2]))
    out = np.empty(u.shape)
    inner = flux[:, 1:-1]
    scratch = out[:, 1:]
    times(np.add(u[:, :-1], u[:, 1:], out=scratch), -0.5 * force, out=inner)
    np.subtract(u[:, 1:], u[:, :-1], out=scratch)
    scratch *= 0.5 * alpha
    inner -= scratch
    flux[:, 0] = times(u[:, 0], -force)
    flux[:, -1] = times(u[:, -1], -force)
    np.subtract(flux[:, 1:], flux[:, :-1], out=out)
    np.negative(out, out=out)
    out /= dv
    return out


def strided_vflux_tables(u, f, a, dv):
    # reference: the v-flux of the pair (f, a) from its two per-node
    # coefficients, over (nx, nv + 1, n) edges with strided views; edge j+1/2
    # is lower*u_j + upper*u_{j+1}, and each ghost repeats its boundary state
    lower = (0.5 * a - 0.5 * f) / -dv
    upper = (-0.5 * f - 0.5 * a) / -dv
    flux = np.empty((u.shape[0], u.shape[1] + 1, u.shape[2]))
    np.add(lower * u[:, :-1], upper * u[:, 1:], out=flux[:, 1:-1])
    flux[:, 0] = lower * u[:, 0] + upper * u[:, 0]
    flux[:, -1] = lower * u[:, -1] + upper * u[:, -1]
    return np.subtract(flux[:, 1:], flux[:, :-1])


def strided_vflux_ratio(u, force, alpha, dv):
    # reference: the legacy central v-flux, multiplied through
    out = np.zeros_like(u)
    out[:, 1:-1] = (
        (0.5 * alpha) * (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2])
        - times(u[:, 2:] - u[:, :-2], 0.5 * force)
    ) / dv
    diff = u[:, 1] - u[:, 0]
    out[:, 0] = ((0.5 * alpha) * diff - times(diff, 0.5 * force)) / dv
    out[:, -1] = (
        (0.5 * alpha) * (u[:, -2] - u[:, -1]) - times(u[:, -1] - u[:, -2], 0.5 * force)
    ) / dv
    return out


def strided_vflux_second(u, force, dt, dv):
    # reference: the order-2 v-flux in its one-step Lax-Wendroff form, with
    # per-node factors broadcast over rows
    edge = np.empty((u.shape[0], u.shape[1] + 1, u.shape[2]))
    out = np.empty(u.shape)
    inner = edge[:, 1:-1]
    diff = np.subtract(u[:, 1:], u[:, :-1], out=out[:, 1:])
    np.add(u[:, :-1], u[:, 1:], out=inner)
    inner *= 0.5
    diff *= force * dt / (2.0 * dv)
    inner += diff
    edge[:, 0] = u[:, 0]
    edge[:, -1] = u[:, -1]
    np.subtract(edge[:, 1:], edge[:, :-1], out=out)
    np.multiply(force, out, out=out)
    out /= dv
    return out


def same_bits(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


# an euler step with dt folded into its tables groups dt * rhs otherwise
# than u + dt * rhs(u) does: a value may move by a few ulp of the largest
EULER_ULPS = 2


def vflux_fields(shape, seed):
    # nonzero everywhere, the boundary v-rows included, except a zero block
    # whose equal neighbours give zero differences of either sign
    rng = np.random.default_rng(seed)
    fields = rng.standard_normal((2,) + shape)
    fields[:, : shape[0] // 2, : shape[1] // 2] = 0.0
    return rng, fields


VFLUX_SHAPES = [(4, 4, 1), (7, 10, 5), (20, 6, 22)]
ALPHA, DT, DV = 0.3, 0.1, 0.05


def vflux_cases(*force_kinds):
    """(form, shape[, force_kind]) cases for the three v-flux forms.

    The forms are order 1, the legacy ratio form and order 2.  Order 1's ids
    carry no form, as when it was the only one: "gauss-shape0", then
    "ratio-gauss-shape0" and "order2-gauss-shape0".
    """
    cases = []
    for form in ("order1", "ratio", "order2"):
        for kind in force_kinds or (None,):
            for i, shape in enumerate(VFLUX_SHAPES):
                parts = ([] if form == "order1" else [form]) + ([kind] if kind else [])
                values = (form, shape) if kind is None else (form, shape, kind)
                cases.append(pytest.param(*values, id="-".join(parts + ["shape%d" % i])))
    return cases


def vflux_pair(form, force):
    # (f, a) of each form: LF at order 1, its transport reversed in the ratio
    # form, and order 2's Lax-Wendroff viscosity force^2*dt/dv
    if form == "order2":
        return force, force * force * DT / DV
    return (force if form == "order1" else -force), ALPHA


def kernel_vflux(form, u, force, work):
    # the solver's tables for the form, through its one kernel
    grid = SimpleNamespace(dt=DT, dv=DV, nv=u.shape[1])
    alpha = None if form == "order2" else ALPHA
    variant = "ratio" if form == "ratio" else "product"
    return liouville._vflux(u, *liouville._vflux_tables(grid, force, alpha, variant), work)


def old_vflux(form, u, force):
    # each form in the arithmetic the solver used before its tables
    if form == "order2":
        return strided_vflux_second(u, force, DT, DV)
    old = strided_vflux_product if form == "order1" else strided_vflux_ratio
    return old(u, force, ALPHA, DV)


def vflux_force(rng, n, force_kind):
    # "gauss" is the force at the nodes of an n-node Gauss rule; an odd rule,
    # such as the k + 1 nodes of an order-1 SG solve at even k, holds z = 0,
    # whose force is exactly zero and whose products are signed zeros
    return rng.uniform(-0.2, 0.2, n) if force_kind == "nodal" else STEP.force(gauss_rule(n).nodes)


@pytest.mark.parametrize("form, shape, force_kind", vflux_cases("gauss", "nodal"))
def test_contiguous_vflux_product_matches_the_strided_one_bitwise(form, shape, force_kind):
    # the kernel's two table products against a strided reference of the
    # same arithmetic, for each form's pair (f, a)
    rng, fields = vflux_fields(shape, 11)
    force = vflux_force(rng, shape[-1], force_kind)
    work = Workspace()
    work.buffer("scratch", shape).fill(np.nan)
    work.buffer("scratch_result", shape).fill(np.nan)
    work.buffer("vflux_bottom_edges", (shape[0], shape[-1])).fill(np.nan)
    for u in fields:  # the second call sees the first call's buffers
        reference = strided_vflux_tables(u, *vflux_pair(form, force), DV)
        same_bits(kernel_vflux(form, u, force, work), reference)


@pytest.mark.parametrize("shape", VFLUX_SHAPES)
def test_contiguous_vflux_second_matches_the_strided_one_bitwise(shape):
    # the order-2 v-flux from the solver's own tables, at a step of its own,
    # against a strided reference of Lax-Wendroff's pair (force, force^2*dt/dv)
    dt, dv = 0.002, 0.05
    rng, fields = vflux_fields(shape, 12)
    force = rng.uniform(-0.2, 0.2, shape[-1])
    grid = SimpleNamespace(dt=dt, dv=dv, nv=shape[1])
    work = Workspace()
    work.buffer("scratch", shape).fill(np.nan)
    work.buffer("scratch_result", shape).fill(np.nan)
    work.buffer("vflux_bottom_edges", (shape[0], shape[-1])).fill(np.nan)
    for u in fields:
        same_bits(
            liouville._vflux(u, *liouville._vflux_tables(grid, force), work),
            strided_vflux_tables(u, force, force * force * dt / dv, dv),
        )


@pytest.mark.parametrize("form, shape, force_kind", vflux_cases("gauss", "nodal"))
def test_vflux_tables_agree_with_the_product_form_to_a_few_ulp(form, shape, force_kind):
    # the tables regroup each form's earlier arithmetic: each rate may move
    # by a few units in the last place of the flux scale (|f| + a)*|u|/dv
    rng, fields = vflux_fields(shape, 13)
    force = vflux_force(rng, shape[-1], force_kind)
    f, a = vflux_pair(form, force)
    work = Workspace()
    for u in fields:
        scale = np.max(np.abs(f) + a) * np.abs(u).max() / DV
        np.testing.assert_allclose(
            kernel_vflux(form, u, force, work), old_vflux(form, u, force),
            rtol=0.0, atol=8.0 * np.spacing(scale),
        )


@pytest.mark.parametrize("form, shape", vflux_cases())
def test_vflux_of_a_state_constant_in_v_is_exactly_zero(form, shape):
    # both ghosts go through the same two products as the interior edges,
    # so every edge flux of an x-row has the same bits, at the boundary rows too
    rng = np.random.default_rng(14)
    u = np.repeat(rng.standard_normal((shape[0], 1, shape[2])), shape[1], axis=1)
    force = rng.uniform(0.05, 0.2, shape[2]) * rng.choice([-1.0, 1.0], shape[2])
    np.testing.assert_array_equal(kernel_vflux(form, u, force, Workspace()), 0.0)


def whole_grid_x_transport(
    u, grid, stencil, order=1, kind="arctan", diagnostics=None, work=None, dt=None, slopes=None
):
    # reference: the x-transport term computed on whole-grid arrays, with the
    # differences on half rows, in `work`'s "rhs" buffer; with a dt, the
    # x speed is scaled by it, as an euler step scales its table.  Order 2
    # limits the slopes of u unless it is given them, which it overwrites
    work = Workspace() if work is None else work
    speed = work.derived(
        "x_speed", lambda: np.repeat((-1.0 / grid.dx) * grid.v_centers[:, None], u.shape[-1], 1)
    )
    if dt is not None:
        speed = dt * speed
    half = grid.nv // 2
    il = grid.barrier_edge - 1
    ir = grid.barrier_edge

    if order == 1:
        right_edge = left_edge = u
    else:
        offsets = limited_slopes(u, grid.dx, il, kind, work) if slopes is None else slopes
        offsets *= grid.dx / 2.0
        right_edge = np.add(u, offsets, out=work.buffer("right_edge", u.shape))
        left_edge = np.subtract(u, offsets, out=work.buffer("left_edge", u.shape))

    out = work.buffer("rhs", u.shape)
    up = right_edge[:, half:]
    dpos = out[:, half:]
    np.subtract(up[1:], up[:-1], out=dpos[1:])
    dpos[0] = up[0] - u[0, half:]
    ghost = stencil.right_side.gather(right_edge[il], left_edge[ir])
    dpos[ir] = up[ir] - ghost

    dn = left_edge[:, :half]
    dneg = out[:, :half]
    np.subtract(dn[1:], dn[:-1], out=dneg[:-1])
    dneg[-1] = u[-1, :half] - dn[-1]
    ghost_l = stencil.left_side.gather(left_edge[ir], right_edge[il])
    dneg[il] = ghost_l - dn[il]

    if diagnostics is not None:
        diagnostics["truncation_events"] = diagnostics.get("truncation_events", 0) + (
            stencil.right_side.live_truncations(right_edge[il, :])
            + stencil.left_side.live_truncations(left_edge[ir, :])
        )

    out *= speed
    return out


def whole_grid_rates(
    u, grid, stencil, force, alpha, order=1, kind="arctan", vflux_variant="product",
    diagnostics=None, work=None, dt=None,
):
    # reference: the right-hand side computed on whole-grid arrays; with a
    # dt, dt times it, from the x speed and v-flux tables times dt
    work = Workspace() if work is None else work
    out = whole_grid_x_transport(u, grid, stencil, order, kind, diagnostics, work, dt)
    tables = liouville._vflux_tables(grid, force, alpha if order == 1 else None, vflux_variant)
    if dt is not None:
        tables = tuple(dt * table for table in tables)
    out += liouville._vflux(u, *tables, work)
    return out


def whole_grid_rhs_nodal(u, *args, dt=None, **kwargs):
    # reference: the right-hand side, or with a dt the Euler step u + dt * rhs
    # with dt folded into the tables
    rates = whole_grid_rates(u, *args, dt=dt, **kwargs)
    return rates if dt is None else u + rates


def whole_grid_galerkin_rhs(field, grid, barrier, stencil, kind, space, diagnostics=None, dt=None):
    # reference: the order-2 SG arithmetic on the whole grid at once.  The
    # coefficient differences are evaluated at the nodes over dx and
    # limited there; the slopes of every row but the flat end rows are
    # projected; the x-transport and the v-flux's Galerkin matrices act on
    # the coefficients.  With a dt, the Euler step, with dt in the x speed
    # and the matrices
    work = Workspace()
    nodal_diffs = np.matmul(np.diff(field, axis=0), space.table / grid.dx)
    nodal_slopes = limiters._limited_slopes(nodal_diffs, grid.barrier_edge - 1, kind, work)
    slopes = np.zeros(field.shape)
    slopes[1:-1] = project(nodal_slopes[1:-1], space)
    rates = whole_grid_x_transport(field, grid, stencil, 2, kind, diagnostics, work, dt, slopes)
    matrices = liouville._vflux_matrices(grid, barrier, space)
    if dt is not None:
        matrices = tuple(dt * matrix for matrix in matrices)
    rates += liouville._vflux(field, *matrices, work, np.matmul)
    return rates if dt is None else field + rates


def stepping(rate):
    """A rhs for `advance`: the rate at w, or with a dt the Euler step w + dt * rate(w)."""
    return lambda w, dt=None: rate(w) if dt is None else w + dt * rate(w)


def edge_grid(edge, nx=12, nv=8):
    # barrier edge `edge` of nx cells 0.25 wide
    return PhaseSpaceGrid(-0.25 * edge, 0.25 * (nx - edge), 1.0, nx, nv, 0.01)


def block_rhs_pair(kind, order, grid, stencil, space, ref_diag, work):
    """The block right-hand side and its whole-grid reference, for one kind of field."""
    if kind == "gpc":
        return (
            lambda w, dt=None: liouville.galerkin_rhs(
                w, grid, STEP, stencil, "tanh", space, work, dt
            ),
            lambda w, dt=None: whole_grid_galerkin_rhs(
                w, grid, STEP, stencil, "tanh", space, ref_diag, dt
            ),
        )
    args = (grid, stencil, STEP.force([-0.8, 0.1, 0.9]), 0.3, order, "tanh")
    return (
        lambda w, dt=None: rhs_nodal(w, *args, work=work, dt=dt),
        lambda w, dt=None: whole_grid_rhs_nodal(w, *args, diagnostics=ref_diag, dt=dt),
    )


# the first interior edge, inside a block of 2 or 3 rows, on a block
# boundary for every height, and the last interior edge
@pytest.mark.parametrize("edge", [1, 5, 6, 11], ids=["first", "inside", "boundary", "last"])
@pytest.mark.parametrize("kind", ["nodal", "gpc"])
def test_block_rhs_matches_the_whole_grid_rhs_bitwise(monkeypatch, kind, edge):
    # blocks of 1, 2 and 3 rows and the whole grid, with euler and rk2
    # stepping: 3 nodes at orders 1 and 2, or 3 chaos modes at order 2, the
    # one order that steps coefficients; a random field feeds every row of
    # the barrier gather, the truncated ones included.  An euler step, which
    # the block rhs takes with a dt folded into its tables and writes block
    # by block, equals the whole-grid step with the same tables, and the
    # step of a fresh workspace, so no block data crosses steps; it stays
    # within a few ulp of u + dt * rhs(u)
    grid = edge_grid(edge)
    stencil = BarrierStencil.build(grid, STEP)
    space = ChaosSpace.build(2)
    start = np.random.default_rng(edge).uniform(0.0, 1.0, (grid.nx, grid.nv, 3))
    for order in (1, 2) if kind == "nodal" else (2,):
        nodes = space.count if kind == "gpc" else 3
        for height in (1, 2, 3, grid.nx):
            monkeypatch.setattr(liouville, "_BLOCK_BYTES", height * grid.nv * nodes * 8)
            assert next(liouville._row_blocks(grid, nodes)) == (0, height)
            for integrator in ("euler", "rk2"):
                ref_diag = {}
                work = Workspace()
                rhs, reference = block_rhs_pair(kind, order, grid, stencil, space, ref_diag, work)
                fresh_counts = Counter()
                field = ref = start
                for _ in range(3):
                    if integrator == "euler":
                        fresh = Workspace()
                        fresh_rhs, _ = block_rhs_pair(kind, order, grid, stencil, space, {}, fresh)
                        fresh_step = fresh_rhs(field, grid.dt)
                        fresh_counts.update(fresh.counts)
                        rate, _ = block_rhs_pair(kind, order, grid, stencil, space, {}, Workspace())
                        unfused = field + grid.dt * rate(field)
                    field = advance(field, grid.dt, rhs, integrator, work)
                    ref = advance(ref, grid.dt, reference, integrator)
                    same_bits(field, ref)
                    if integrator == "euler":
                        same_bits(field, fresh_step)
                        ulp = np.spacing(np.abs(unfused).max())
                        np.testing.assert_allclose(field, unfused, rtol=0.0, atol=EULER_ULPS * ulp)
                assert work.counts["truncation_events"] == ref_diag["truncation_events"] > 0
                if integrator == "euler":
                    assert fresh_counts["truncation_events"] == ref_diag["truncation_events"]


@pytest.mark.parametrize("edge", [1, 5, 6, 11], ids=["first", "inside", "boundary", "last"])
@pytest.mark.parametrize("kind", ["nodal", "gpc"])
def test_an_order2_step_limits_each_slope_once(monkeypatch, kind, edge):
    # each block limits only the slopes of its new rows and takes the two
    # before them from the block before it, so one rhs call maps the means
    # of the nx - 2 interior rows back once, and each block maps at most one
    # difference more than it has rows; a workspace looks the pair up once
    fed = Counter()
    forward, inverse = limiters._MAPS["tanh"]

    def counted(name, apply):
        def count(values, out):
            fed[name] += np.size(values)
            return apply(values, out)

        return count

    monkeypatch.setitem(
        limiters._MAPS, "tanh", (counted("forward", forward), counted("inverse", inverse))
    )
    lookups = []
    lookup = limiters.limiter_maps
    monkeypatch.setattr(limiters, "limiter_maps", lambda kind: lookups.append(kind) or lookup(kind))
    grid = edge_grid(edge)
    stencil = BarrierStencil.build(grid, STEP)
    space = ChaosSpace.build(2)
    nodes = space.count if kind == "gpc" else 3
    field = np.random.default_rng(edge).uniform(0.0, 1.0, (grid.nx, grid.nv, 3))
    for height in (1, 2, 3, grid.nx):
        monkeypatch.setattr(liouville, "_BLOCK_BYTES", height * grid.nv * nodes * 8)
        blocks = len(list(liouville._row_blocks(grid, nodes)))
        lookups.clear()
        rhs, _ = block_rhs_pair(kind, 2, grid, stencil, space, {}, Workspace())
        for dt in (None, grid.dt, None):
            fed.clear()
            rhs(field, dt)
            assert fed["inverse"] == (grid.nx - 2) * grid.nv * nodes
            assert fed["forward"] <= (grid.nx - 1 + blocks - 1) * grid.nv * nodes
        assert lookups == ["tanh"]


@pytest.mark.parametrize("kind, order", [("nodal", 1), ("nodal", 2), ("gpc", 2)])
def test_an_euler_step_uses_the_dt_it_is_given(kind, order):
    # a workspace that already served one dt gives the euler step of another
    # dt bit for bit as a fresh workspace does, and the unscaled rhs between
    grid = edge_grid(5)
    stencil = BarrierStencil.build(grid, STEP)
    space = ChaosSpace.build(2)
    field = np.random.default_rng(3).uniform(0.0, 1.0, (grid.nx, grid.nv, 3))
    rhs, _ = block_rhs_pair(kind, order, grid, stencil, space, {}, Workspace())
    rhs(field, grid.dt)
    rate = rhs(field).copy()
    step = rhs(field, 0.5 * grid.dt).copy()
    fresh_rhs, _ = block_rhs_pair(kind, order, grid, stencil, space, {}, Workspace())
    same_bits(step, fresh_rhs(field, 0.5 * grid.dt))
    fresh_rhs, _ = block_rhs_pair(kind, order, grid, stencil, space, {}, Workspace())
    same_bits(rate, fresh_rhs(field))


@pytest.mark.parametrize("kind", BAP_KINDS)
@pytest.mark.parametrize("k, m", [(2, 6), (4, 5), (10, 22)], ids=["2k+2", "k+1", "preset"])
@pytest.mark.parametrize(
    "barrier",
    [STEP, PotentialBarrier(5.0, 0.0, 0.1), PotentialBarrier(0.0, 0.2, 0.1)],
    ids=["step", "rigid", "reversed"],
)
def test_order2_galerkin_rhs_is_the_projection_of_the_nodal_rhs(barrier, k, m, kind):
    # the SG step runs its linear layers on the coefficients and only the
    # limiter at the nodes; that is the projection of the nodal step of the
    # evaluated field, up to roundoff, with the same barrier events.  The
    # euler form, with dt in the x speed and the Galerkin matrices, is the
    # projection of the nodal euler step.  The cells are wider in v than
    # in x, so that a step that confuses dx and dv shows
    space = ChaosSpace.build(k, m)
    force = barrier.force(space.rule.nodes)
    for edge in (1, 5, 6, 11):
        grid = PhaseSpaceGrid(-0.25 * edge, 0.25 * (12 - edge), 1.5, 12, 8, 0.01)
        stencil = BarrierStencil.build(grid, barrier)
        field = np.random.default_rng(edge).uniform(0.0, 1.0, (grid.nx, grid.nv, k + 1))
        for dt in (None, grid.dt):
            work, nodal_work = Workspace(), Workspace()
            got = liouville.galerkin_rhs(field, grid, barrier, stencil, kind, space, work, dt)
            nodal = rhs_nodal(
                field @ space.table, grid, stencil, force, 0.0, 2, kind, work=nodal_work, dt=dt
            )
            want = project(nodal, space)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())
            assert work.counts["truncation_events"] == nodal_work.counts["truncation_events"] > 0


def test_rigid_step_stencil_reflects_one_way():
    # jump too high for any grid row to climb: rows arriving rightward all
    # reflect, while leftward arrivals trace back to off-grid speeds
    grid = unit_grid()
    stencil = BarrierStencil.build(grid, PotentialBarrier(5.0, 0.0, 0.0))
    assert not stencil.right_side.transmit.any()
    assert stencil.left_side.transmit.all()
    assert stencil.left_side.truncated.all()
    mirrored = grid.v_centers[stencil.right_side.mirror]
    np.testing.assert_array_equal(mirrored, -grid.v_centers[stencil.right_side.rows])
    rng = np.random.default_rng(0)
    own = rng.standard_normal((grid.nv, 3))
    partner = rng.standard_normal((grid.nv, 3))
    ghost = stencil.right_side.gather(partner, own)
    np.testing.assert_array_equal(ghost, own[stencil.right_side.mirror])


# --- time stepping ---


def test_advance_euler_identity():
    u = np.arange(12.0).reshape(3, 4)
    out = advance(u, 0.1, stepping(lambda w: np.zeros_like(w)), "euler")
    np.testing.assert_array_equal(out, u)


def test_advance_rk2_is_heun():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((5, 4))
    mat = rng.standard_normal((4, 4)) * 0.3
    rhs = lambda w: w @ mat
    got = advance(u, 0.05, rhs, "rk2")
    k1 = rhs(u)
    k2 = rhs(u + 0.05 * k1)
    np.testing.assert_array_equal(got, u + 0.025 * (k1 + k2))


def test_rk2_one_step_beats_euler_on_smooth_decay():
    # scalar surrogate du/dt = -u: compare one-step errors against exp(-dt)
    u = np.array([[1.0]])
    rhs = stepping(lambda w: -w)
    dt = 0.1
    euler = advance(u, dt, rhs, "euler")[0, 0]
    heun = advance(u, dt, rhs, "rk2")[0, 0]
    exact = np.exp(-dt)
    assert abs(heun - exact) < 0.1 * abs(euler - exact)


@pytest.mark.parametrize("solver", ["gpc", "nodal"])
def test_rk2_solve_matches_a_hand_loop_of_advance_bitwise(solver):
    # the solve shares one workspace between the rhs and advance; the hand
    # loop allocates every array, so a stage slope overwritten in place shows
    grid = unit_grid(nx=40, nv=40)
    stencil = BarrierStencil.build(grid, STEP)
    values = PHASE_PROFILES["quarter_disks"](grid.x_centers[:, None], grid.v_centers[None, :])
    if solver == "gpc":
        # order 1 marches the k + 1 Gauss nodes and projects once
        space = ChaosSpace.build(4, 5)
        z = space.rule.nodes
        run = liouville_solve_gpc(grid, STEP, 4, 0.02, integrator="rk2")
    else:
        z = np.array([-0.6, 0.1, 0.9])
        run = liouville_solve_nodal(grid, STEP, z, 0.02, integrator="rk2")
    force = STEP.force(z)
    field = np.repeat(values[:, :, None], z.size, axis=2)
    counts = Counter()

    def rhs(w):
        # a fresh workspace per call, whose ledger is summed
        work = Workspace()
        out = rhs_nodal(w, grid, stencil, force, STEP.max_force, work=work)
        counts.update(work.counts)
        return out

    for _ in range(run.diagnostics["steps"]):
        field = advance(field, grid.dt, rhs, "rk2")
    if solver == "gpc":
        field = project(field, space)
    assert run.diagnostics["steps"] == 10
    np.testing.assert_array_equal(run.field, field)
    assert run.diagnostics["truncation_events"] == counts["truncation_events"] > 0


def test_rk2_refuses_a_rhs_whose_workspace_it_was_not_given():
    grid = unit_grid(nx=20, nv=20)
    stencil = BarrierStencil.build(grid, STEP)
    work = Workspace()
    rhs = lambda w: rhs_nodal(w, grid, stencil, STEP.force([0.5]), 0.1, work=work)
    u = np.ones((20, 20, 1))
    advance(u, grid.dt, rhs, "rk2", work)
    with pytest.raises(ValueError, match="workspace"):
        advance(u, grid.dt, rhs, "rk2")


@pytest.mark.parametrize(
    "solve",
    [
        lambda grid: liouville_solve_gpc(grid, STEP, 4, 0.04),
        lambda grid: liouville_solve_gpc(grid, STEP, 4, 0.04, order=2),
        lambda grid: liouville_solve_nodal(grid, STEP, gauss_rule(5).nodes, 0.04, integrator="rk2"),
        lambda grid: liouville_solve_nodal(
            grid, STEP, gauss_rule(5).nodes, 0.04, vflux_variant="ratio"
        ),
    ],
    ids=["gpc_order1", "gpc_order2", "nodal_rk2", "nodal_ratio"],
)
def test_a_steady_state_step_allocates_almost_nothing(monkeypatch, solve):
    # after one warm-up step the solve's workspace holds every full-size
    # array, so three more steps allocate only small temporaries.  numpy's
    # ufunc iterator allocates a buffer of at most np.getbufsize() values
    # (64 kB) per strided or broadcast operand on each call, whatever the
    # grid; on this grid one state array outweighs the three of one call
    import stochhyp.liouville as liouville

    growth = []

    def measured_march(state, step, steps, mass, where, track_range=False):
        state = step(state)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(3):
                state = step(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        growth.append((peak - before, state.nbytes))
        return state, {}

    monkeypatch.setattr(liouville, "march", measured_march)
    solve(unit_grid())
    [(grown, state_bytes)] = growth
    assert grown < state_bytes


def test_a_workspace_serves_fewer_rows_from_the_array_it_holds():
    work = Workspace()
    held = work.buffer("rows", (4, 3))
    assert work.buffer("rows", (4, 3)) is held
    short = work.buffer("rows", (2, 3))
    assert short.shape == (2, 3) and short.base is held
    assert not np.shares_memory(work.buffer("rows", (5, 3)), held)
    assert work.buffer("rows", (2, 2)).shape == (2, 2)


def test_an_order2_gpc_step_holds_no_array_of_the_whole_nodal_field(monkeypatch):
    # the step evaluates, steps and projects one block of x-rows at a time,
    # so no buffer of the solve's workspace spans every row at the nodes
    preset = PRESETS["example2_order2"]
    grid = PhaseSpaceGrid(*(preset[key] for key in ("x_lo", "x_hi", "v_hi", "nx", "nv", "dt")))
    barrier = PotentialBarrier(preset["v_left"], preset["v_right"], preset["slope_amp"])
    workspaces = []

    class Recorded(Workspace):
        def __init__(self):
            super().__init__()
            workspaces.append(self)

    monkeypatch.setattr(liouville, "Workspace", Recorded)
    run = liouville_solve_gpc(grid, barrier, preset["k"], 2 * grid.dt, order=2)
    assert run.diagnostics["steps"] == 2
    count = ChaosSpace.build(preset["k"]).count
    [work] = workspaces
    shapes = [buf.shape for buf in work._buffers.values() if buf is not None]
    assert (grid.nx, grid.nv, count) not in shapes
    assert max(shape[0] for shape in shapes if shape[-1] == count) < grid.nx // 4


@pytest.mark.parametrize(
    "order, nodal, integrator",
    [(1, False, "euler"), (2, False, "euler"), (2, True, "euler"), (1, False, "rk2")],
    ids=["gpc_order1", "gpc_order2", "nodal_order2", "gpc_order1_rk2"],
)
def test_an_euler_step_holds_two_states_and_no_full_size_rhs(monkeypatch, order, nodal, integrator):
    # an euler step writes u + dt * rhs block by block into the state buffer
    # that u is not, so the solve's workspace holds two arrays of the state's
    # shape and no "rhs"; the limiter's means and the order-2 upwind states
    # are written over arrays that the block already holds.  An rk2 step
    # still keeps its first stage's slope
    preset = PRESETS["example2_order2"]
    grid = PhaseSpaceGrid(*(preset[key] for key in ("x_lo", "x_hi", "v_hi", "nx", "nv", "dt")))
    barrier = PotentialBarrier(preset["v_left"], preset["v_right"], preset["slope_amp"])
    workspaces = []

    class Recorded(Workspace):
        def __init__(self):
            super().__init__()
            workspaces.append(self)

    monkeypatch.setattr(liouville, "Workspace", Recorded)
    t_final = 2 * grid.dt
    if nodal:
        z = gauss_rule(5).nodes
        run = liouville_solve_nodal(grid, barrier, z, t_final, order, integrator)
    else:
        run = liouville_solve_gpc(grid, barrier, preset["k"], t_final, order, integrator)
    assert run.diagnostics["steps"] == 2
    [work] = workspaces
    held = {name: buf.shape for name, buf in work._buffers.items() if buf is not None}
    full = sorted(name for name, shape in held.items() if shape == run.field.shape)
    assert not {"limiter_mean", "upwind_states"} & held.keys()
    if integrator == "euler":
        assert full == ["next_state", "state"]
    else:
        assert full == ["first_slope", "next_state", "rhs", "state"]


@pytest.mark.parametrize("order, slabs", [(1, 2), (2, 4)], ids=["gpc_order1", "gpc_order2"])
def test_an_euler_step_holds_a_few_slabs_besides_its_states(monkeypatch, order, slabs):
    # besides the state pair, an euler step holds the scratch pair that the
    # layers of a block take in turn, and at order 2 the block's slab at the
    # nodes and its nodal rates; the limiter's interface differences, the
    # barrier edge states and the v-flux's bottom edges are small.  All of
    # them together fit in that many slabs of the block's rows and halo
    grid = unit_grid()
    workspaces = []

    class Recorded(Workspace):
        def __init__(self):
            super().__init__()
            workspaces.append(self)

    monkeypatch.setattr(liouville, "Workspace", Recorded)
    run = liouville_solve_gpc(grid, STEP, 10, 3 * grid.dt, order)
    assert run.diagnostics["steps"] == 3
    [work] = workspaces
    n = 11 if order == 1 else ChaosSpace.build(10).count
    height = next(liouville._row_blocks(grid, n))[1]
    assert height < grid.nx // 2
    slab_bytes = (height + 2 * order) * grid.nv * n * 8
    held = [
        buf for name, buf in work._buffers.items()
        if buf is not None and name not in ("state", "next_state")
    ]
    assert sum(buf.ndim == 3 and len(buf) > 2 for buf in held) <= slabs
    assert sum(buf.nbytes for buf in held) <= slabs * slab_bytes


# --- coefficient-space right-hand side ---


def test_galerkin_rhs_rejects_small_rule():
    # the rule is checked where the space that galerkin_rhs takes is built
    with pytest.raises(ConfigurationError):
        ChaosSpace.build(3, 2)


def galerkin_system_rhs(field, grid, stencil, force_matrix, alpha, vflux, diagnostics):
    # the paper's order-1 SG system on coefficients: the x-transport acts on
    # every mode alone, and the force couples the modes through its Galerkin
    # matrix
    out = whole_grid_x_transport(field, grid, stencil, diagnostics=diagnostics)
    vflux_of = strided_vflux_product if vflux == "product" else strided_vflux_ratio
    out += vflux_of(field, force_matrix, alpha, grid.dv)
    return out


@pytest.mark.parametrize("vflux", ["product", "ratio"])
@pytest.mark.parametrize("m", [3, 6, 64])  # k + 1, 2k + 2 and a dense rule at k = 2
@pytest.mark.parametrize("integrator", ["euler", "rk2"])
def test_order1_solve_matches_a_march_of_the_galerkin_system(integrator, m, vflux):
    # the solve marches the k + 1 Gauss nodes, whatever m, and projects once;
    # the force is linear in z, so its Galerkin matrix, exact on any rule of
    # m >= k + 1 nodes, makes the hand march of the coefficients the same
    # scheme.  A solve that marched the 2k + 2 nodes would miss by about 3e-10
    grid = unit_grid(nx=24, nv=24)
    stencil = BarrierStencil.build(grid, STEP)
    assert stencil.static_truncations > 0
    run = liouville_solve_gpc(
        grid, STEP, 2, 0.04, integrator=integrator, quad_count=m, vflux_variant=vflux
    )
    force = galerkin_matrix(STEP.force, ChaosSpace.build(2, m))
    counts = {}
    rhs = stepping(
        lambda w: galerkin_system_rhs(w, grid, stencil, force, STEP.max_force, vflux, counts)
    )
    values = PHASE_PROFILES["quarter_disks"](grid.x_centers[:, None], grid.v_centers[None, :])
    field = deterministic_coeffs(values, 2)
    for _ in range(run.diagnostics["steps"]):
        field = advance(field, grid.dt, rhs, integrator)
    assert run.diagnostics["steps"] == 20
    assert np.max(np.abs(run.field - field)) <= 1e-13 * np.max(np.abs(field))
    assert run.diagnostics["truncation_events"] == counts["truncation_events"] > 0


# --- full solves ---


def test_deterministic_max_principle_short_run():
    run = liouville_solve_nodal(unit_grid(), STEP, np.array([0.3]), 0.1)
    assert run.diagnostics["min_value"] >= -1e-12
    assert run.diagnostics["max_value"] <= 1.0 + 1e-12


def test_truncation_events_are_counted():
    run = liouville_solve_nodal(unit_grid(), STEP, np.array([0.3]), 0.1)
    assert run.diagnostics["stencil_truncations"] > 0
    assert run.diagnostics["truncation_events"] > 0


def test_reflection_band_conserves_mass_without_truncation():
    # rigid step (no tilt): the band reflects before reaching the truncated
    # rows, so mass is conserved to rounding at every node
    grid = PhaseSpaceGrid(-2.01, 2.01, 2.01, 134, 134, 0.002)
    rigid = PotentialBarrier(0.2, 0.0, slope_amp=0.0)
    band = lambda x, v: np.where((x > 0.1) & (x < 0.4) & (v > -0.5) & (v < -0.2), 1.0, 0.0)
    run = liouville_solve_nodal(grid, rigid, np.array([-0.5, 0.0, 1.0]), 1.0, profile=band)
    assert run.diagnostics["truncation_events"] == 0
    assert np.max(run.diagnostics["mass_drift_rel_max"]) < 1e-12


def test_gpc_reduction_to_deterministic_is_bitwise():
    grid = unit_grid()
    run = liouville_solve_gpc(grid, STEP, 0, 0.1, quad_count=1)
    det, _ = deterministic_liouville(grid, STEP, 0.0, 0.1)
    np.testing.assert_array_equal(run.field[:, :, 0], det)


def test_gpc_moments_match_collocation_on_short_runs():
    from stochhyp import moments_from_samples

    grid = unit_grid(nx=60, nv=60)
    gpc = liouville_solve_gpc(grid, STEP, 4, 0.05)
    rule = gauss_rule(12)
    col = moments_from_samples(liouville_solve_nodal(grid, STEP, rule.nodes, 0.05).field, rule)
    scale = np.max(np.abs(col.expectation))
    dev = np.max(np.abs(gpc.field[:, :, 0] - col.expectation))  # mode 0 is E
    assert dev / scale < 1e-8


@pytest.mark.parametrize("order, integrator", [(1, "euler"), (1, "rk2"), (2, "euler")])
@pytest.mark.parametrize("k", [2, 4])
def test_galerkin_equals_projected_gauss_collocation(order, integrator, k):
    # the force is linear in z: order-1 SG is (k + 1)-node Gauss collocation in
    # another basis, and so is order 2 on a rule of m = k + 1 nodes
    grid = unit_grid(nx=20, nv=20, dt=0.01)
    space = ChaosSpace.build(k, k + 1)
    m = None if order == 1 else k + 1  # order 1 keeps its default Galerkin rule
    sg = liouville_solve_gpc(grid, STEP, k, 0.1, order, integrator, quad_count=m)
    col = liouville_solve_nodal(grid, STEP, space.rule.nodes, 0.1, order, integrator)
    np.testing.assert_allclose(sg.field, project(col.field, space), rtol=0, atol=1e-12)


def test_sine_profile_and_callable_profile():
    grid = unit_grid(nx=40, nv=40)
    run = liouville_solve_nodal(grid, STEP, np.array([0.0]), 0.02, profile="sine_disk")
    assert run.diagnostics["max_value"] <= 1.0 + 1e-12
    custom = liouville_solve_nodal(
        grid, STEP, np.array([0.0]), 0.02, profile=lambda x, v: 0.0 * x + 0.0 * v + 1.0
    )
    assert custom.diagnostics["steps"] == 10


def test_solver_validation_messages():
    grid = unit_grid()
    with pytest.raises(ConfigurationError, match="euler stepping"):
        liouville_solve_nodal(grid, STEP, np.array([0.0]), 0.1, order=2, integrator="rk2")
    with pytest.raises(ConfigurationError, match="initial profile"):
        liouville_solve_nodal(grid, STEP, np.array([0.0]), 0.1, profile="ring")
    with pytest.raises(ConfigurationError, match="alpha"):
        liouville_solve_nodal(grid, STEP, np.array([0.0]), 0.1, alpha=0.01)
    with pytest.raises(ConfigurationError, match="integer number"):
        liouville_solve_nodal(grid, STEP, np.array([0.0]), 0.0013)
    with pytest.raises(ConfigurationError, match=r"\[-1, 1\]"):
        liouville_solve_nodal(grid, STEP, np.array([5.0]), 0.1)
    with pytest.raises(ConfigurationError):
        liouville_solve_gpc(grid, STEP, -2, 0.1)


@pytest.mark.parametrize(
    "solve",
    [
        lambda grid, alpha: liouville_solve_nodal(grid, STEP, [0.5], 0.05, order=2, alpha=alpha),
        lambda grid, alpha: liouville_solve_gpc(grid, STEP, 3, 0.05, order=2, alpha=alpha),
    ],
    ids=["nodal", "gpc"],
)
def test_order2_ignores_the_lf_viscosity(solve):
    # the order-2 v-flux has no LF viscosity: an alpha below the largest
    # |force|, or one past the CFL bound at order 1, changes nothing
    grid = PhaseSpaceGrid(-2.0, 2.0, 2.0, 20, 20, 0.025)
    with pytest.raises(ConfigurationError, match="CFL"):
        liouville_solve_nodal(grid, STEP, [0.5], 0.05, alpha=10.0)
    reference = solve(grid, None)
    for alpha in (0.01, 10.0):
        run = solve(grid, alpha)
        np.testing.assert_array_equal(run.field, reference.field)


def test_small_chaos_rule_is_rejected_before_the_first_step(monkeypatch):
    import stochhyp.liouville as liouville

    def no_step(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(liouville, "advance", no_step)
    with pytest.raises(ConfigurationError, match=r"m must be >= k \+ 1"):
        liouville_solve_gpc(unit_grid(nx=20, nv=20), STEP, 6, 0.1, quad_count=3)


def test_rk2_run_stays_close_to_euler():
    grid = unit_grid(nx=40, nv=40)
    a = liouville_solve_nodal(grid, STEP, np.array([0.2]), 0.1, integrator="euler")
    b = liouville_solve_nodal(grid, STEP, np.array([0.2]), 0.1, integrator="rk2")
    dev = np.max(np.abs(a.field - b.field))
    assert 0.0 < dev < 0.05
