"""Interface advection solver: grids, matrices, steps, and the exact solution."""

import numpy as np
import pytest

from stochhyp import (
    AnalyticConvectionSolution,
    ConfigurationError,
    ConvectionGrid,
    InterfaceCoefficient,
    OrthonormalBasis,
    PROFILES,
    build_lambda_matrices,
    gauss_rule,
    run_convection,
)
from stochhyp.convection import (
    check_cfl,
    step_first_order,
    step_first_order_nodal,
    step_second_order,
    step_second_order_nodal,
)
from test_gpc import tridiagonal_coupling

COS = PROFILES["cos_bump"]


def small_grid(dx=0.05, dt=0.01, a=-1.0, b=1.0):
    return ConvectionGrid.from_spacing(a, b, dx, dt)


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


def test_grid_requires_integer_cell_count():
    with pytest.raises(ConfigurationError):
        ConvectionGrid.from_spacing(-1.0, 1.003, 0.01, 0.001)


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
    with pytest.raises(ConfigurationError):
        check_cfl(coef, small_grid(dx=0.05, dt=0.025))
    check_cfl(coef, small_grid(dx=0.05, dt=0.02))  # 2.3 * 0.4 fits


# --- Galerkin matrices of the scheme ---


def test_lambda_matrices_two_modes():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid(dx=0.05, dt=0.01)  # dt/dx = 1/5
    basis = OrthonormalBasis(1)
    lam_m, lam_p = build_lambda_matrices(coef, grid, basis)
    off = 0.3 / np.sqrt(3.0)
    np.testing.assert_allclose(lam_m, 0.2 * np.array([[1.0, off], [off, 1.0]]), atol=1e-14)
    np.testing.assert_allclose(lam_p, 0.2 * np.array([[2.0, off], [off, 2.0]]), atol=1e-14)


def test_lambda_matrices_deterministic_limit():
    coef = InterfaceCoefficient(1.0, 2.0, 0.0)
    grid = small_grid(dx=0.05, dt=0.01)
    basis = OrthonormalBasis(3)
    lam_m, lam_p = build_lambda_matrices(coef, grid, basis)
    np.testing.assert_allclose(lam_m, 0.2 * np.eye(4), atol=1e-14)
    np.testing.assert_allclose(lam_p, 0.4 * np.eye(4), atol=1e-14)


def test_lambda_matrices_affine_structure():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid(dx=0.05, dt=0.01)
    basis = OrthonormalBasis(6)
    lam_m, lam_p = build_lambda_matrices(coef, grid, basis)
    want_m = 0.2 * (np.eye(7) + 0.3 * tridiagonal_coupling(7))
    want_p = 0.2 * (2.0 * np.eye(7) + 0.3 * tridiagonal_coupling(7))
    np.testing.assert_allclose(lam_m, want_m, atol=1e-13)
    np.testing.assert_allclose(lam_p, want_p, atol=1e-13)


def test_lambda_spectral_radius_bound():
    # speeds bounded by c_plus + |sigma|, so eigenvalues stay below 0.46
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid(dx=0.05, dt=0.01)
    lam_m, lam_p = build_lambda_matrices(coef, grid, OrthonormalBasis(8))
    assert np.max(np.abs(np.linalg.eigvalsh(lam_p))) <= 0.46 + 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(lam_m))) <= 0.26 + 1e-12


# --- first-order step ---


def test_constant_state_fixed_by_uniform_speed():
    coef = InterfaceCoefficient(1.0, 1.0, 0.0)
    grid = small_grid()
    basis = OrthonormalBasis(0)
    lam_m, lam_p = build_lambda_matrices(coef, grid, basis)
    field = np.ones((grid.cells, 1))
    stepped = step_first_order(field, lam_m, lam_p, grid.interface_index)
    np.testing.assert_array_equal(stepped[1:], field[1:])  # inflow cell drains


def test_single_pulse_mass_split():
    coef = InterfaceCoefficient(1.0, 2.0, 0.0)
    grid = small_grid(dx=0.05, dt=0.01)
    basis = OrthonormalBasis(0)
    lam_m, lam_p = build_lambda_matrices(coef, grid, basis)
    field = np.zeros((grid.cells, 1))
    field[5, 0] = 1.0  # interior, left of the jump
    stepped = step_first_order(field, lam_m, lam_p, grid.interface_index)
    lam = 0.2
    assert stepped[5, 0] == pytest.approx(1.0 - lam, abs=1e-15)
    assert stepped[6, 0] == pytest.approx(lam, abs=1e-15)
    assert np.sum(np.abs(stepped[:, 0])) == pytest.approx(1.0, abs=1e-14)


def test_speed_ratio_profile_is_stationary():
    # 1 on the left and c_minus/c_plus on the right balances the edge flux
    coef = InterfaceCoefficient(1.0, 2.0, 0.0)
    grid = small_grid(dx=0.1, dt=0.02)
    u = np.where(grid.centers[:, None] < 0.0, 1.0, 0.5)
    lam_m = grid.ratio * coef.left(np.array([0.0]))
    lam_p = grid.ratio * coef.right(np.array([0.0]))
    stepped = step_first_order_nodal(u, lam_m, lam_p, grid.interface_index)
    np.testing.assert_array_equal(stepped[1:-1], u[1:-1])


def test_step_is_linear_in_the_field():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    basis = OrthonormalBasis(3)
    lam_m, lam_p = build_lambda_matrices(coef, grid, basis)
    rng = np.random.default_rng(21)
    a = rng.standard_normal((grid.cells, 4))
    b = rng.standard_normal((grid.cells, 4))
    lhs = step_first_order(2.5 * a + b, lam_m, lam_p, grid.interface_index)
    rhs = 2.5 * step_first_order(a, lam_m, lam_p, grid.interface_index) + step_first_order(
        b, lam_m, lam_p, grid.interface_index
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_step_rejects_shape_mismatch():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    lam_m, lam_p = build_lambda_matrices(coef, grid, OrthonormalBasis(2))
    with pytest.raises(ValueError):
        step_first_order(np.zeros((grid.cells, 5)), lam_m, lam_p, grid.interface_index)


def test_coefficient_step_commutes_with_evaluation_on_low_degree_fields():
    # speed linear in z and top mode empty: the matrix product is exact, so
    # stepping commutes with pointwise evaluation at any node
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    basis = OrthonormalBasis(3)
    lam_m, lam_p = build_lambda_matrices(coef, grid, basis)
    rng = np.random.default_rng(23)
    field = rng.standard_normal((grid.cells, 4))
    field[:, 3] = 0.0
    zs = gauss_rule(6).nodes
    table = basis.values(zs)
    matrix_path = step_first_order(field, lam_m, lam_p, grid.interface_index) @ table
    nodal_path = step_first_order_nodal(
        field @ table, grid.ratio * coef.left(zs), grid.ratio * coef.right(zs), grid.interface_index
    )
    np.testing.assert_allclose(matrix_path, nodal_path, atol=1e-13)


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
    basis = OrthonormalBasis(2)
    lam_m, lam_p = build_lambda_matrices(coef, grid, basis)
    field = np.zeros((grid.cells, 3))
    field[:, 0] = 2.0
    first = step_first_order(field, lam_m, lam_p, grid.interface_index)
    second = step_second_order(field, coef, grid, basis)
    np.testing.assert_allclose(second, first, atol=1e-14)


def test_second_order_projection_insensitive_to_rule_size():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    basis = OrthonormalBasis(3)
    bump = np.exp(-2.0 * (grid.centers + 0.8) ** 2)
    field = bump[:, None] * np.array([1.0, 0.3, 0.1, 0.03])
    a = step_second_order(field, coef, grid, basis)
    b = step_second_order(field, coef, grid, basis, rule=gauss_rule(40))
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_second_order_rejects_unknown_map():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = small_grid()
    with pytest.raises(ConfigurationError):
        step_second_order(np.zeros((grid.cells, 2)), coef, grid, OrthonormalBasis(1), kind="superbee")


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
    # deterministic initial data lives in mode 0 alone
    np.testing.assert_array_equal(run.coeffs[:, 1:], 0.0)
    np.testing.assert_allclose(run.coeffs[:, 0], COS.func(grid.centers), atol=1e-14)
    assert run.report.l1 == pytest.approx(0.0, abs=1e-12)


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
    err = np.sum(np.abs(run.moments.expectation - exact.expectation)) * grid.dx
    assert err < 0.15
    assert run.report.l1_expectation == pytest.approx(err, rel=1e-12)


def test_run_second_order_beats_first_order_on_smooth_data():
    coef = InterfaceCoefficient(1.0, 1.0, 0.0)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.02, 0.004)
    e1 = run_convection(coef, grid, 0, 1.0, order=1, profile="gaussian").report.l1
    e2 = run_convection(coef, grid, 0, 1.0, order=2, profile="gaussian").report.l1
    assert e2 < 0.5 * e1


def test_run_second_order_interface_stays_conservative():
    # the slope-corrected fluxes still telescope; dispersive tails travel at
    # the grid speed dx/dt, so the domain must be wide enough to hold them
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-4.0, 10.0, 0.02, 0.004)
    run = run_convection(coef, grid, 4, 1.0, order=2, compare_analytic=False)
    assert np.all(np.isfinite(run.coeffs))
    assert run.diagnostics["mass_drift_rel_max"] < 1e-12


def test_capped_map_keeps_steep_interface_run_accurate():
    # arctan slopes are uncapped and the stochastic interface run degrades on
    # fine grids; the saturating tanh map stays close to the exact solution
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.005, 0.001)
    run = run_convection(coef, grid, 4, 1.0, order=2, kind="tanh")
    assert run.report.l1 < 0.2


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


def test_deterministic_reduction_is_bitwise():
    # no perturbation: every mode-0 column of the K=0 solve equals the
    # deterministic nodal march exactly
    from stochhyp import convection_solve_nodal

    coef = InterfaceCoefficient(1.0, 2.0, 0.0)
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.05, 0.01)
    run = run_convection(coef, grid, 0, 0.5, quad_count=1, compare_analytic=False)
    nodal, _ = convection_solve_nodal(coef, grid, np.array([0.0]), 0.5)
    np.testing.assert_array_equal(run.coeffs[:, 0], nodal[:, 0])
