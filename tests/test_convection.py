"""Interface advection solver: grids, matrices, steps, and the exact solution."""

import tracemalloc

import numpy as np
import pytest

from stochhyp import (
    AnalyticConvectionSolution,
    ChaosSpace,
    ConfigurationError,
    ConvectionGrid,
    InterfaceCoefficient,
    PROFILES,
    convection_errors,
    convection_solve_nodal,
    galerkin_matrix,
    gauss_rule,
    project,
    run_convection,
)
from stochhyp.convection import (
    scheme_problems,
    step_first_order,
    step_second_order_nodal,
)
from stochhyp.gpc import deterministic_coeffs
from test_gpc import tridiagonal_coupling

COS = PROFILES["cos_bump"]


def small_grid(dx=0.05, dt=0.01, a=-1.0, b=1.0):
    return ConvectionGrid.from_spacing(a, b, dx, dt)


def build_lambda_matrices(coef, grid, space):
    """Galerkin matrices of (dt/dx)*c(x, z) on each side of the jump: the paper's SG system."""
    lam_minus = grid.ratio * galerkin_matrix(coef.left, space)
    lam_plus = grid.ratio * galerkin_matrix(coef.right, space)
    return lam_minus, lam_plus


def node_speeds(coef, grid, space):
    """Per-node (dt/dx)*c on each side of the jump, as the solves build them."""
    nodes = space.rule.nodes
    return grid.ratio * coef.left(nodes), grid.ratio * coef.right(nodes)


def galerkin_step(field, lam_minus, lam_plus, interface_index):
    """One step of the paper's SG system on coefficients, with the speeds' Galerkin matrices.

    The flux through the right edge of cell j is g_j = U_j L, L = L- up to the
    jump and L+ after it; the update is U - g plus g shifted by one cell.
    """
    i = interface_index
    g = np.concatenate([field[: i + 1] @ lam_minus, field[i + 1 :] @ lam_plus])
    out = field - g
    out[1:] += g[:-1]
    return out


def sg_second_order_step(field, coef, grid, space, kind="arctan"):
    """One order-2 SG step: evaluate at the space's nodes, step per node, project."""
    lam_m, lam_p = node_speeds(coef, grid, space)
    stepped = step_second_order_nodal(
        field @ space.table, lam_m, lam_p, grid.dx, grid.interface_index, kind
    )
    return project(stepped, space)


def errors(coef, grid, run, t_final, profile="cos_bump"):
    """errors.csv columns of a chaos run against the exact solution."""
    return convection_errors(coef, grid, profile, t_final, run.coeffs)


# --- coefficient and grid validation ---


def test_coefficient_requires_positive_speeds():
    with pytest.raises(ValueError):
        InterfaceCoefficient(0.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        InterfaceCoefficient(1.0, -2.0, 0.1)


def test_coefficient_perturbation_must_keep_speed_positive():
    with pytest.raises(ValueError):
        InterfaceCoefficient(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        InterfaceCoefficient(1.0, 2.0, -1.5)
    InterfaceCoefficient(1.0, 2.0, 0.999)  # strictly inside is fine
    InterfaceCoefficient(1.0, 1.0, 0.0)


def test_coefficient_sides_and_jump_factor():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    assert coef.left(0.0) == 1.0
    assert coef.right(0.0) == 2.0
    assert coef.left(1.0) == pytest.approx(1.3)
    assert coef.jump_factor(0.0) == pytest.approx(0.5)


def test_grid_requires_interior_interface():
    with pytest.raises(ConfigurationError):
        ConvectionGrid.from_spacing(0.5, 2.0, 0.1, 0.01)
    with pytest.raises(ConfigurationError):
        ConvectionGrid.from_spacing(-2.0, -1.0, 0.1, 0.01)
    # sliding [-0.04, 0.96] onto the edge x = 0 makes that edge its left end
    with pytest.raises(ConfigurationError, match="x = 0 must be an interior cell edge"):
        ConvectionGrid.from_spacing(-0.04, 0.96, 0.1, 0.01)


def test_grid_requires_integer_cell_count():
    with pytest.raises(ConfigurationError):
        ConvectionGrid.from_spacing(-1.0, 1.003, 0.01, 0.001)
    with pytest.raises(ConfigurationError, match="at least 4 cells"):
        ConvectionGrid.from_spacing(-0.1, 0.2, 0.1, 0.01)


def test_grid_aligns_interface_to_edge_and_records_shift():
    grid = ConvectionGrid.from_spacing(-2.002, 5.998, 0.005, 0.001)
    assert grid.a == pytest.approx(-2.0, abs=1e-12)
    assert grid.shift == pytest.approx(0.002, abs=1e-12)
    assert grid.a + (grid.interface_index + 1) * grid.dx == pytest.approx(0.0, abs=1e-12)


def test_aligned_grid_has_zero_shift():
    grid = small_grid()
    assert grid.shift == 0.0
    assert grid.centers[grid.interface_index] < 0 < grid.centers[grid.interface_index + 1]


def test_cfl_check_at_extreme_perturbation():
    # speed reaches 2.3 at the perturbation extreme: dt/dx = 0.5 puts the
    # fast side at 1.15 while the nominal speed 2 alone would still fit
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    cfl = lambda dt: scheme_problems(1, "cos_bump", "arctan", coef=coef, grid=small_grid(dt=dt))
    assert cfl(0.025) == [(None, "CFL violated on the right side: (dt/dx)*c reaches 1.15 > 1")]
    assert cfl(0.02) == []  # 2.3 * 0.4 fits


# --- Galerkin matrices of the scheme ---


def test_lambda_matrices_two_modes():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid(dx=0.05, dt=0.01)  # dt/dx = 1/5
    lam_m, lam_p = build_lambda_matrices(coef, grid, ChaosSpace.build(1))
    off = 0.3 / np.sqrt(3.0)
    np.testing.assert_allclose(lam_m, 0.2 * np.array([[1.0, off], [off, 1.0]]), atol=1e-14)
    np.testing.assert_allclose(lam_p, 0.2 * np.array([[2.0, off], [off, 2.0]]), atol=1e-14)


def test_lambda_matrices_deterministic_limit():
    coef = InterfaceCoefficient(1.0, 2.0, 0.0)
    grid = small_grid(dx=0.05, dt=0.01)
    lam_m, lam_p = build_lambda_matrices(coef, grid, ChaosSpace.build(3))
    np.testing.assert_allclose(lam_m, 0.2 * np.eye(4), atol=1e-14)
    np.testing.assert_allclose(lam_p, 0.4 * np.eye(4), atol=1e-14)


def test_lambda_matrices_affine_structure():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid(dx=0.05, dt=0.01)
    lam_m, lam_p = build_lambda_matrices(coef, grid, ChaosSpace.build(6))
    want_m = 0.2 * (np.eye(7) + 0.3 * tridiagonal_coupling(7))
    want_p = 0.2 * (2.0 * np.eye(7) + 0.3 * tridiagonal_coupling(7))
    np.testing.assert_allclose(lam_m, want_m, atol=1e-13)
    np.testing.assert_allclose(lam_p, want_p, atol=1e-13)


def test_lambda_spectral_radius_bound():
    # speeds bounded by c_plus + |sigma|, so eigenvalues stay below 0.46
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid(dx=0.05, dt=0.01)
    lam_m, lam_p = build_lambda_matrices(coef, grid, ChaosSpace.build(8))
    assert np.max(np.abs(np.linalg.eigvalsh(lam_p))) <= 0.46 + 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(lam_m))) <= 0.26 + 1e-12


# --- first-order step ---


def test_constant_state_fixed_by_uniform_speed():
    coef = InterfaceCoefficient(1.0, 1.0, 0.0)
    grid = small_grid()
    lam_m, lam_p = node_speeds(coef, grid, ChaosSpace.build(0))
    field = np.ones((grid.cells, 2))
    stepped = step_first_order(field, lam_m, lam_p, grid.interface_index)
    np.testing.assert_array_equal(stepped[1:], field[1:])  # inflow cell drains


def test_single_pulse_mass_split():
    coef = InterfaceCoefficient(1.0, 2.0, 0.0)
    grid = small_grid(dx=0.05, dt=0.01)
    lam_m, lam_p = node_speeds(coef, grid, ChaosSpace.build(0, 1))
    field = np.zeros((grid.cells, 1))
    field[5, 0] = 1.0  # interior, left of the jump
    stepped = step_first_order(field, lam_m, lam_p, grid.interface_index)
    lam = 0.2
    assert stepped[5, 0] == pytest.approx(1.0 - lam, abs=1e-15)
    assert stepped[6, 0] == pytest.approx(lam, abs=1e-15)
    assert np.sum(np.abs(stepped[:, 0])) == pytest.approx(1.0, abs=1e-14)


def test_speed_ratio_profile_is_stationary():
    # 1 on the left and c_minus/c_plus on the right balances the edge flux;
    # the jump sits at an inner, the first and the last interior edge
    coef = InterfaceCoefficient(1.0, 2.0, 0.0)
    for a, b, edge in ((-1.0, 1.0, 9), (-0.1, 1.0, 0), (-1.0, 0.1, 9)):
        grid = small_grid(dx=0.1, dt=0.02, a=a, b=b)
        assert grid.interface_index == edge
        u = np.where(grid.centers[:, None] < 0.0, 1.0, 0.5)
        lam_m = grid.ratio * coef.left(np.array([0.0]))
        lam_p = grid.ratio * coef.right(np.array([0.0]))
        stepped = step_first_order(u, lam_m, lam_p, grid.interface_index)
        # only cell 0, whose inflow ghost is zero, moves
        np.testing.assert_array_equal(stepped[1:], u[1:])


def test_step_is_linear_in_the_field():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    lam_m, lam_p = node_speeds(coef, grid, ChaosSpace.build(3, 4))
    rng = np.random.default_rng(21)
    a = rng.standard_normal((grid.cells, 4))
    b = rng.standard_normal((grid.cells, 4))
    lhs = step_first_order(2.5 * a + b, lam_m, lam_p, grid.interface_index)
    rhs = 2.5 * step_first_order(a, lam_m, lam_p, grid.interface_index) + step_first_order(
        b, lam_m, lam_p, grid.interface_index
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_step_rejects_shape_mismatch():
    # the step takes speeds per node only: three speeds fit no five-column
    # field, and no Galerkin matrix fits the field of its modes, a (1, 1)
    # matrix on one mode included
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    i = grid.interface_index
    lam_m, lam_p = node_speeds(coef, grid, ChaosSpace.build(2, 3))
    with pytest.raises(ValueError):
        step_first_order(np.zeros((grid.cells, 5)), lam_m, lam_p, i)
    for k in (2, 0):
        lam_m, lam_p = build_lambda_matrices(coef, grid, ChaosSpace.build(k))
        with pytest.raises(ValueError):
            step_first_order(np.zeros((grid.cells, k + 1)), lam_m, lam_p, i)
    # one speed per side broadcasts over three nodes unless the steps refuse
    # it, and a field of one node must still be 2-D
    one = np.array([grid.ratio])
    for field, speed in ((np.zeros((grid.cells, 3)), one), (np.zeros(grid.cells), one)):
        with pytest.raises(ValueError, match="per-node speeds"):
            step_first_order(field, speed, speed, i)
        with pytest.raises(ValueError, match="per-node speeds"):
            step_second_order_nodal(field, speed, speed, grid.dx, i)


# --- second-order step ---


def test_second_order_fixes_linear_data():
    # equal one-sided slopes reproduce the slope, so edge values are the exact
    # midpoints and a step of linear data is exact away from special cells
    grid = small_grid(a=-2.0, b=2.0)
    x = grid.centers
    u = (0.7 + 0.3 * x)[:, None]
    lam = np.full(1, grid.ratio)
    stepped = step_second_order_nodal(u, lam, lam, grid.dx, grid.interface_index)
    exact = (0.7 + 0.3 * (x - grid.dt))[:, None]
    keep = np.ones(grid.cells, bool)
    keep[[0, 1, -2, -1, grid.interface_index, grid.interface_index + 1]] = False
    np.testing.assert_allclose(stepped[keep], exact[keep], atol=1e-14)


def test_second_order_matches_first_order_on_flat_data():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    space = ChaosSpace.build(2)
    lam_m, lam_p = node_speeds(coef, grid, space)
    field = np.zeros((grid.cells, 3))
    field[:, 0] = 2.0
    stepped = step_first_order(field @ space.table, lam_m, lam_p, grid.interface_index)
    first = project(stepped, space)
    second = sg_second_order_step(field, coef, grid, space)
    np.testing.assert_allclose(second, first, atol=1e-14)


def test_second_order_projection_insensitive_to_rule_size():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    bump = np.exp(-2.0 * (grid.centers + 0.8) ** 2)
    field = bump[:, None] * np.array([1.0, 0.3, 0.1, 0.03])
    default, dense = ChaosSpace.build(3), ChaosSpace.build(3, 40)
    a = sg_second_order_step(field, coef, grid, default)
    b = sg_second_order_step(field, coef, grid, dense)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_second_order_rejects_unknown_map():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    space = ChaosSpace.build(1)
    with pytest.raises(ConfigurationError):
        sg_second_order_step(np.zeros((grid.cells, 2)), coef, grid, space, kind="superbee")


# --- exact solution ---


def test_exact_solution_at_time_zero():
    sol = AnalyticConvectionSolution(InterfaceCoefficient(1.0, 2.0, 0.3), COS)
    xs = np.array([-0.5, 0.3, 2.0])
    np.testing.assert_allclose(sol.value(xs, 0.0, 0.0), np.cos(0.25 * np.pi * xs), atol=1e-15)


def test_exact_solution_left_of_interface():
    sol = AnalyticConvectionSolution(InterfaceCoefficient(1.0, 2.0, 0.3), COS)
    assert sol.value(-0.5, 0.4, 0.0) == pytest.approx(np.cos(0.225 * np.pi), abs=1e-14)
    # the foot of the characteristic leaves the support by t = 1
    assert sol.value(-0.5, 1.0, 0.0) == 0.0


def test_exact_solution_transmitted_region():
    sol = AnalyticConvectionSolution(InterfaceCoefficient(1.0, 2.0, 0.3), COS)
    # x=0.5 < 0.8 = c_plus t: compressed and scaled by the flux factor 1/2
    assert sol.value(0.5, 0.4, 0.0) == pytest.approx(0.5 * np.cos(0.0375 * np.pi), abs=1e-14)


def test_exact_solution_untouched_region():
    sol = AnalyticConvectionSolution(InterfaceCoefficient(1.0, 2.0, 0.3), COS)
    # x=1.5 > 0.8 = c_plus t: plain translation at the right speed
    assert sol.value(1.5, 0.4, 0.0) == pytest.approx(np.cos(0.175 * np.pi), abs=1e-14)


def test_exact_solution_jumps_in_z_at_branch_boundary():
    # at (x, t) = (2, 1) the characteristic speed boundary sits at z = 0
    sol = AnalyticConvectionSolution(InterfaceCoefficient(1.0, 2.0, 0.3), COS)
    below = float(sol.value(2.0, 1.0, -1e-9))
    above = float(sol.value(2.0, 1.0, 1e-9))
    assert below == pytest.approx(1.0, abs=1e-8)
    assert above == pytest.approx(0.5, abs=1e-8)


def test_exact_moments_match_dense_midpoint_oracle():
    sol = AnalyticConvectionSolution(InterfaceCoefficient(1.0, 2.0, 0.3), COS)
    xs = np.array([-0.5, 0.3, 1.2, 2.5])
    mf = sol.moments(xs, 1.0)
    n = 200000
    zs = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    vals = sol.value(xs[:, None], 1.0, zs[None, :])
    e_ref = vals.mean(axis=1)
    v_ref = (vals**2).mean(axis=1) - e_ref**2
    np.testing.assert_allclose(mf.expectation, e_ref, atol=1e-6)
    np.testing.assert_allclose(mf.variance, v_ref, atol=1e-6)


def test_exact_moments_deterministic_limit():
    sol = AnalyticConvectionSolution(InterfaceCoefficient(1.0, 2.0, 0.0), COS)
    xs = np.linspace(-1.5, 2.5, 9)
    mf = sol.moments(xs, 0.7)
    np.testing.assert_allclose(mf.expectation, sol.value(xs, 0.7, 0.0), atol=1e-13)
    np.testing.assert_allclose(mf.variance, 0.0, atol=1e-13)


# --- full solver runs ---


def test_run_at_time_zero_reports_projection_only():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.05, 0.01)
    run = run_convection(coef, grid, 3, 0.0)
    assert run.diagnostics["steps"] == 0
    # deterministic initial data lives in mode 0 alone, up to the roundoff of
    # projecting node-constant samples
    assert np.max(np.abs(run.coeffs[:, 1:])) <= 1e-15 * np.max(np.abs(COS.func(grid.centers)))
    np.testing.assert_allclose(run.coeffs[:, 0], COS.func(grid.centers), atol=1e-14)
    assert errors(coef, grid, run, 0.0)["l1_total"] == pytest.approx(0.0, abs=1e-12)


def test_run_conserves_mass_while_support_is_interior():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.02, 0.004)
    run = run_convection(coef, grid, 4, 0.5)
    assert run.diagnostics["mass_drift_rel_max"] < 1e-13


def test_run_moments_follow_the_exact_solution():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.02, 0.004)
    run = run_convection(coef, grid, 8, 1.0)
    sol = AnalyticConvectionSolution(coef, COS)
    exact = sol.moments(grid.centers, 1.0)
    err = np.sum(np.abs(run.coeffs[:, 0] - exact.expectation)) * grid.dx  # mode 0 is E
    assert err < 0.15
    assert errors(coef, grid, run, 1.0)["l1_expectation"] == pytest.approx(err, rel=1e-12)


def test_run_second_order_beats_first_order_on_smooth_data():
    coef = InterfaceCoefficient(1.0, 1.0, 0.0)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.02, 0.004)
    run1 = run_convection(coef, grid, 0, 1.0, order=1, profile="gaussian")
    run2 = run_convection(coef, grid, 0, 1.0, order=2, profile="gaussian")
    e1 = errors(coef, grid, run1, 1.0, "gaussian")["l1_total"]
    e2 = errors(coef, grid, run2, 1.0, "gaussian")["l1_total"]
    assert e2 < 0.5 * e1


def test_run_second_order_interface_stays_conservative():
    # the slope-corrected fluxes still telescope; dispersive tails travel at
    # the grid speed dx/dt, so the domain must be wide enough to hold them
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-4.0, 10.0, 0.02, 0.004)
    run = run_convection(coef, grid, 4, 1.0, order=2)
    assert np.all(np.isfinite(run.coeffs))
    assert run.diagnostics["mass_drift_rel_max"] < 1e-12


def test_capped_map_keeps_steep_interface_run_accurate():
    # arctan slopes are uncapped and the stochastic interface run degrades on
    # fine grids; the saturating tanh map stays close to the exact solution
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.005, 0.001)
    run = run_convection(coef, grid, 4, 1.0, order=2, kind="tanh")
    assert errors(coef, grid, run, 1.0)["l1_total"] < 0.2


def test_run_rejects_bad_configs():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, 0.03)  # CFL breaks at z=1
    with pytest.raises(ConfigurationError):
        run_convection(coef, grid, 2, 1.0)
    good = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, 0.01)
    with pytest.raises(ConfigurationError):
        run_convection(coef, good, 2, 1.0, order=3)
    with pytest.raises(ConfigurationError):
        run_convection(coef, good, -1, 1.0)
    with pytest.raises(ConfigurationError):
        run_convection(coef, good, 2, 0.25 + 1e-3 * grid.dt)  # not a step multiple
    with pytest.raises(ConfigurationError):
        run_convection(coef, good, 2, 1.0, profile="square_wave")


def test_run_rejects_a_chaos_rule_smaller_than_the_basis():
    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, 0.01)
    with pytest.raises(ConfigurationError, match=r"m must be >= k \+ 1"):
        run_convection(InterfaceCoefficient(1.0, 2.0, 0.3), grid, 6, 0.1, quad_count=3)


def test_deterministic_reduction_is_bitwise():
    # no perturbation: every mode-0 column of the K=0 solve equals the
    # deterministic nodal march exactly
    coef = InterfaceCoefficient(1.0, 2.0, 0.0)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.05, 0.01)
    run = run_convection(coef, grid, 0, 0.5, quad_count=1)
    nodal, _ = convection_solve_nodal(coef, grid, np.array([0.0]), 0.5)
    np.testing.assert_array_equal(run.coeffs[:, 0], nodal[:, 0])


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_galerkin_equals_projected_gauss_collocation(order, k):
    # c is linear in z, so on the (k + 1)-node Gauss rule the Galerkin matrix of
    # c is V diag(c(z_q)) V^T with V orthogonal: order-1 SG is (k + 1)-node
    # collocation in another basis.  At order 2 with m = k + 1, evaluate then
    # project is the identity on node values, so the same holds.
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    space = ChaosSpace.build(k, k + 1)
    m = None if order == 1 else k + 1  # order 1 runs on k + 1 nodes whatever m
    sg = run_convection(coef, grid, k, 0.4, order=order, quad_count=m)
    nodal, _ = convection_solve_nodal(coef, grid, space.rule.nodes, 0.4, order=order)
    np.testing.assert_allclose(sg.coeffs, project(nodal, space), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [0, 3, 8])
def test_order1_run_matches_a_march_of_the_galerkin_system(k):
    # the solve marches Gauss samples; the paper's SG system steps coefficients
    # through the Galerkin matrices of the speed.  On the (k + 1)-node rule the
    # two agree to roundoff, on any larger rule they do not
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.01, 0.002)
    assert grid.cells == 200
    lam_m, lam_p = build_lambda_matrices(coef, grid, ChaosSpace.build(k))
    field = deterministic_coeffs(COS.func(grid.centers), k)
    for _ in range(100):
        field = galerkin_step(field, lam_m, lam_p, grid.interface_index)
    run = run_convection(coef, grid, k, 100 * grid.dt)
    assert run.diagnostics["steps"] == 100
    scale = np.max(np.abs(field))
    assert np.max(np.abs(run.coeffs - field)) <= 1e-13 * scale


# --- workspace ---


@pytest.mark.parametrize(
    "step",
    [
        lambda field, lam_m, lam_p, grid: step_first_order(
            field, lam_m, lam_p, grid.interface_index
        ),
        lambda field, lam_m, lam_p, grid: step_second_order_nodal(
            field, lam_m, lam_p, grid.dx, grid.interface_index
        ),
    ],
    ids=["nodal", "nodal_order2"],
)
def test_a_direct_step_returns_a_new_array_and_keeps_its_input(step):
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    lam_m, lam_p = node_speeds(coef, grid, ChaosSpace.build(3, 4))
    field = np.random.default_rng(5).standard_normal((grid.cells, 4))
    kept = field.copy()
    stepped = step(field, lam_m, lam_p, grid)
    again = step(field, lam_m, lam_p, grid)
    assert not np.shares_memory(stepped, field) and not np.shares_memory(stepped, again)
    np.testing.assert_array_equal(field, kept)
    np.testing.assert_array_equal(stepped, again)


@pytest.mark.parametrize(
    "solve",
    [
        lambda coef, grid: run_convection(coef, grid, 8, 0.1),
        lambda coef, grid: run_convection(coef, grid, 4, 0.1, order=2),
        lambda coef, grid: convection_solve_nodal(coef, grid, gauss_rule(9).nodes, 0.1),
        lambda coef, grid: convection_solve_nodal(coef, grid, gauss_rule(9).nodes, 0.1, order=2),
    ],
    ids=["sg_order1", "sg_order2", "nodal_order1", "nodal_order2"],
)
def test_a_steady_state_convection_step_allocates_almost_nothing(monkeypatch, solve):
    # after one warm-up step the solve's workspace holds the speed table and
    # every full-size array, so three more steps allocate only the small
    # temporaries of numpy's ufunc machinery; the march's own mass and scan
    # are left out
    import stochhyp.convection as convection

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

    monkeypatch.setattr(convection, "march", measured_march)
    solve(InterfaceCoefficient(1.0, 2.0, 0.3), ConvectionGrid.from_spacing(-2.0, 6.0, 0.005, 0.001))
    [(grown, state_bytes)] = growth
    assert grown < state_bytes / 8


@pytest.mark.parametrize("k", [2, 8])
def test_a_steady_order1_sg_march_allocates_almost_nothing_with_its_mass(monkeypatch, k):
    # the guard above leaves the march out; here three whole steps of the
    # march run, each with its mass, a gemv into a vector kept for the solve,
    # and its float bookkeeping.  At k = 2 a fresh (cells,) mass vector alone
    # would be a third of the state's bytes
    import stochhyp.convection as convection
    from stochhyp.march import march

    growth = []

    def measured_march(state, step, steps, mass, where, track_range=False):
        state, _ = march(state, step, 1, mass, where)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            state, diagnostics = march(state, step, 3, mass, where)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        growth.append((peak - before, state.nbytes))
        return state, diagnostics

    monkeypatch.setattr(convection, "march", measured_march)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.005, 0.001)
    run_convection(InterfaceCoefficient(1.0, 2.0, 0.3), grid, k, 0.1)
    [(grown, state_bytes)] = growth
    assert grown < state_bytes / 8


@pytest.mark.parametrize("k", [2, 10])
def test_sg_mass_drift_is_the_largest_gap_of_the_step_masses_bit_for_bit(monkeypatch, k):
    # the march bookkeeps a scalar mass in Python floats; its drift must be
    # the numpy reduction over the masses it saw, to the last bit.  The bump
    # leaves the small domain, so the masses fall by far more than roundoff
    import stochhyp.convection as convection
    from stochhyp.march import march

    masses = []

    def recording_march(state, step, steps, mass, where, track_range=False):
        def recorded(w):
            masses.append(mass(w))
            return masses[-1]

        return march(state, step, steps, recorded, where, track_range)

    monkeypatch.setattr(convection, "march", recording_march)
    run = run_convection(InterfaceCoefficient(1.0, 2.0, 0.3), small_grid(), k, 0.5)
    masses = np.array(masses)
    assert len(masses) == run.diagnostics["steps"] + 1 == 51
    expected = np.max(np.abs(masses - masses[0]))
    assert expected > 0.1
    assert run.diagnostics["mass_drift_abs_max"] == expected
    assert run.diagnostics["mass_drift_abs_max"].hex() == float(expected).hex()
