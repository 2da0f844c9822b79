"""Collocation baselines and the exact step-potential characteristic solution."""

import numpy as np
import pytest

from stochhyp import (
    ConfigurationError,
    ConvectionGrid,
    DivergenceError,
    InterfaceCoefficient,
    PhaseSpaceGrid,
    PotentialBarrier,
    barrier_step_characteristics,
    collocation_convection,
    collocation_liouville,
    convection_solve_nodal,
    deterministic_convection,
    deterministic_liouville,
    l1_norm,
    liouville_solve_gpc,
    run_convection,
)
from stochhyp.liouville import PHASE_PROFILES

COEF = InterfaceCoefficient(1.0, 2.0, 0.3)
STEP = PotentialBarrier(0.2, 0.0, 0.1)
DISKS = PHASE_PROFILES["quarter_disks"]


def convection_grid():
    return ConvectionGrid.from_spacing(-2.0, 6.0, 0.05, 0.01)


# --- collocation ---


def test_single_node_collocation_is_the_deterministic_run():
    grid = convection_grid()
    run = collocation_convection(COEF, grid, 1, 0.5)
    det = deterministic_convection(COEF, grid, 0.0, 0.5)
    np.testing.assert_array_equal(run.fields[:, 0], det)
    np.testing.assert_array_equal(run.moments.expectation, det)
    np.testing.assert_array_equal(run.moments.variance, 0.0)


def test_collocation_variance_is_nonnegative():
    run = collocation_convection(COEF, convection_grid(), 6, 0.5)
    assert run.moments.variance.min() >= -1e-12


def test_collocation_moments_saturate_in_node_count():
    # the nodal solutions depend smoothly on z here, so quadrature converges
    # fast: doubling past m = 8 moves the expectation below rounding scale
    grid = convection_grid()
    run8 = collocation_convection(COEF, grid, 8, 0.5)
    run16 = collocation_convection(COEF, grid, 16, 0.5)
    dev = np.max(np.abs(run8.moments.expectation - run16.moments.expectation))
    assert dev < 1e-10


def test_single_node_liouville_collocation_matches_deterministic():
    grid = PhaseSpaceGrid(-2.0, 2.0, 2.0, 100, 100, 0.002)
    run = collocation_liouville(grid, STEP, 1, 0.1)
    det, _ = deterministic_liouville(grid, STEP, 0.0, 0.1)
    np.testing.assert_array_equal(run.fields[:, :, 0], det)


def test_nodal_solver_validation():
    grid = convection_grid()
    with pytest.raises(ConfigurationError, match=r"\[-1, 1\]"):
        convection_solve_nodal(COEF, grid, np.array([0.0, 1.5]), 0.5)
    with pytest.raises(ConfigurationError, match="order"):
        convection_solve_nodal(COEF, grid, np.array([0.0]), 0.5, order=3)
    with pytest.raises(ConfigurationError, match="profile"):
        convection_solve_nodal(COEF, grid, np.array([0.0]), 0.5, profile="box")
    with pytest.raises(ConfigurationError, match="integer number"):
        convection_solve_nodal(COEF, grid, np.array([0.0]), 0.505)
    with pytest.raises(ConfigurationError, match=r"\[-1, 1\]"):
        deterministic_liouville(
            PhaseSpaceGrid(-2.0, 2.0, 2.0, 100, 100, 0.002), STEP, 1.5, 0.1
        )


# nan sigma slips past the magnitude check and poisons the first step
NAN_COEF = InterfaceCoefficient(1.0, 2.0, float("nan"))


def poisoned_disks(x, v):
    # the initial data is not scanned, so the nan cell surfaces after step 1
    values = DISKS(x, v)
    values[7, 5] = np.nan
    return values


def small_phase_grid():
    return PhaseSpaceGrid(-2.0, 2.0, 2.0, 20, 20, 0.01)


@pytest.mark.parametrize(
    "solve, tag",
    [
        (lambda: run_convection(NAN_COEF, convection_grid(), 2, 0.5), "mode"),
        (lambda: deterministic_convection(NAN_COEF, convection_grid(), 0.0, 0.5), "node"),
        (
            lambda: liouville_solve_gpc(
                small_phase_grid(), STEP, 2, 0.1, profile=poisoned_disks
            ),
            "mode",
        ),
        (
            lambda: deterministic_liouville(
                small_phase_grid(), STEP, 0.0, 0.1, profile=poisoned_disks
            ),
            "node",
        ),
    ],
    ids=["convection_gpc", "convection_nodal", "liouville_gpc", "liouville_nodal"],
)
def test_divergence_error_reports_step_and_cell(solve, tag):
    with pytest.raises(DivergenceError) as err:
        solve()
    assert err.value.step == 1
    assert "cell" in err.value.where and tag in err.value.where
    assert "step 1" in str(err.value)


def test_nodal_diagnostics_track_mass_per_node():
    run = collocation_convection(COEF, convection_grid(), 3, 0.5)
    diag = run.diagnostics
    assert diag["steps"] == 50
    assert diag["mass_initial"].shape == (3,)
    assert np.max(diag["mass_drift_rel_max"]) < 1e-13


# --- exact characteristics for the step potential ---


def test_characteristics_at_time_zero_are_the_profile():
    grid = PhaseSpaceGrid(-2.0, 2.0, 2.0, 100, 100, 0.002)
    x, v = np.meshgrid(grid.x_centers, grid.v_centers, indexing="ij")
    np.testing.assert_array_equal(
        barrier_step_characteristics(x, v, 0.0, DISKS), DISKS(x, v)
    )


def test_characteristics_free_streaming_away_from_the_barrier():
    # never touches x = 0: plain translation
    x0 = barrier_step_characteristics(1.5, 0.5, 1.0, lambda x, v: x)
    v0 = barrier_step_characteristics(1.5, 0.5, 1.0, lambda x, v: v)
    assert x0 == pytest.approx(1.0, abs=1e-15)
    assert v0 == pytest.approx(0.5, abs=1e-15)


def test_characteristics_transmission_conserves_energy():
    # lands at x = 0.5 with v = 1 after dropping 0.2: origin speed satisfies
    # w^2/2 + 0.2 = 1/2, crossed at t = 0.5, so x0 = -w/2
    w = np.sqrt(0.6)
    x0 = barrier_step_characteristics(0.5, 1.0, 1.0, lambda x, v: x)
    v0 = barrier_step_characteristics(0.5, 1.0, 1.0, lambda x, v: v)
    assert v0 == pytest.approx(w, abs=1e-15)
    assert x0 == pytest.approx(-w * 0.5, abs=1e-15)


def test_characteristics_reflection_when_energy_is_short():
    # v^2 = 0.25 < 2*jump height 0.4: bounced at t = 0.6, mirror position
    x0 = barrier_step_characteristics(0.2, 0.5, 1.0, lambda x, v: x)
    v0 = barrier_step_characteristics(0.2, 0.5, 1.0, lambda x, v: v)
    assert x0 == pytest.approx(0.3, abs=1e-15)
    assert v0 == pytest.approx(-0.5, abs=1e-15)


def test_characteristics_leftward_crossing_climbs_the_step():
    # arrives at x = -0.3 with v = -0.5 after climbing 0.2 leftward: the
    # origin on the right was faster, w^2 = v^2 + 0.4
    w = np.sqrt(0.65)
    x0 = barrier_step_characteristics(-0.3, -0.5, 1.0, lambda x, v: x)
    v0 = barrier_step_characteristics(-0.3, -0.5, 1.0, lambda x, v: v)
    assert v0 == pytest.approx(-w, abs=1e-15)
    assert x0 == pytest.approx(w * 0.4, abs=1e-15)


def test_characteristics_reject_a_rising_step():
    with pytest.raises(ValueError, match="drop"):
        barrier_step_characteristics(0.5, 0.5, 1.0, DISKS, v_left=0.0, v_right=0.2)


def test_solver_converges_to_characteristics_under_refinement():
    errors = []
    for n, dt in ((134, 0.002), (268, 0.001)):
        grid = PhaseSpaceGrid(-2.01, 2.01, 2.01, n, n, dt)
        field, _ = deterministic_liouville(grid, STEP, 0.0, 1.0)
        x, v = np.meshgrid(grid.x_centers, grid.v_centers, indexing="ij")
        exact = barrier_step_characteristics(x, v, 1.0, DISKS)
        errors.append(l1_norm(field - exact, grid.dx * grid.dv))
    assert errors[0] < 0.6
    assert errors[1] < errors[0]
