"""Convergence sweep mechanics: ordering, threading, and error accounting."""

import numpy as np
import pytest

from stochhyp import (
    ConfigurationError,
    ConvectionGrid,
    InterfaceCoefficient,
    convection_errors,
    gpc_error_sweep,
    mesh_error_sweep,
    run_convection,
)

COEF = InterfaceCoefficient(1.0, 2.0, 0.3)

# dyadic test spectrum: every truncation error below is exact in floats
FULL = np.array([[1.0, 0.5, 0.25, 0.125], [2.0, 1.0, 0.5, 0.25]])


def truncating_solve(k):
    return FULL[:, : k + 1]


def test_sweep_against_itself_is_exactly_zero():
    rows = gpc_error_sweep(truncating_solve, [3], 3, 0.1)
    assert rows[0].k == 3
    assert rows[0].l1_expectation == 0.0
    assert rows[0].l1_variance == 0.0
    assert rows[0].l1_coeff == 0.0
    assert rows[0].h_distance == 0.0


def test_sweep_errors_match_hand_computed_truncation():
    rows = gpc_error_sweep(truncating_solve, [1], 3, 0.1)
    row = rows[0]
    # mode 0 is kept at every order, so the expectation never moves
    assert row.l1_expectation == 0.0
    # dropped-coefficient mass: (0.25 + 0.125) + (0.5 + 0.25), times the cell
    assert row.l1_coeff == (0.375 + 0.75) * 0.1
    # variance shortfall: sum of squared dropped modes per cell
    assert row.l1_variance == (0.25**2 + 0.125**2 + 0.5**2 + 0.25**2) * 0.1
    assert row.h_distance > 0.0


def test_sweep_preserves_input_order():
    rows = gpc_error_sweep(truncating_solve, [2, 0, 1], 3, 0.1)
    assert [r.k for r in rows] == [2, 0, 1]


def test_sweep_validation():
    with pytest.raises(ConfigurationError, match="empty"):
        gpc_error_sweep(truncating_solve, [], 3, 0.1)
    with pytest.raises(ConfigurationError, match="reference order"):
        gpc_error_sweep(truncating_solve, [0, 3], 2, 0.1)
    with pytest.raises(ConfigurationError, match=">= 0"):
        gpc_error_sweep(truncating_solve, [-1], 3, 0.1)
    with pytest.raises(ConfigurationError, match="threads"):
        gpc_error_sweep(truncating_solve, [1], 3, 0.1, threads=0)


def test_threaded_sweep_reproduces_serial_results():
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.05, 0.01)

    def solve(k):
        return run_convection(COEF, grid, k, 0.5).coeffs

    serial = gpc_error_sweep(solve, [0, 2, 4], 6, grid.dx)
    pooled = gpc_error_sweep(solve, [0, 2, 4], 6, grid.dx, threads=2)
    for a, b in zip(serial, pooled):
        assert a.k == b.k
        assert a.l1_expectation == b.l1_expectation
        assert a.l1_variance == b.l1_variance
        assert a.l1_coeff == b.l1_coeff
        assert a.h_distance == b.h_distance


def test_chaos_refinement_decays_on_the_interface_problem():
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.05, 0.01)

    def solve(k):
        return run_convection(COEF, grid, k, 0.5).coeffs

    rows = gpc_error_sweep(solve, [0, 2, 4, 6], 8, grid.dx)
    dist = [r.h_distance for r in rows]
    assert all(a > b for a, b in zip(dist, dist[1:]))
    assert dist[-1] < 1e-4


def convection_errors_at(dx, dt):
    # k = 4 at t = 0.4 on [-2, 6], with the default order-1 scheme
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, dx, dt)
    run = run_convection(COEF, grid, 4, 0.4)
    return convection_errors(COEF, grid, "cos_bump", 0.4, run.coeffs)


def test_mesh_refinement_shrinks_the_error():
    rows = mesh_error_sweep(convection_errors_at, [0.04, 0.02], 0.2)
    assert [r.dx for r in rows] == [0.04, 0.02]
    assert rows[0].dt == pytest.approx(0.008)
    ratio = rows[0].l1_total / rows[1].l1_total
    assert 1.3 < ratio < 2.1
    assert rows[1].h_distance < rows[0].h_distance


def test_mesh_sweep_validation():
    with pytest.raises(ConfigurationError, match="empty"):
        mesh_error_sweep(convection_errors_at, [], 0.2)
    with pytest.raises(ConfigurationError, match="positive"):
        mesh_error_sweep(convection_errors_at, [0.04, -0.01], 0.2)
    with pytest.raises(ConfigurationError, match="ratio"):
        mesh_error_sweep(convection_errors_at, [0.04], 0.0)
    with pytest.raises(ConfigurationError, match="threads"):
        mesh_error_sweep(convection_errors_at, [0.04], 0.2, threads=-1)
