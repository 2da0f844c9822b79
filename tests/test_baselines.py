"""Nodal baselines, collocation, and the exact step-potential characteristic solution."""

import numpy as np
import pytest

from stochhyp import (
    ConfigurationError,
    ConvectionGrid,
    DivergenceError,
    InterfaceCoefficient,
    PhaseSpaceGrid,
    PotentialBarrier,
    convection_solve_nodal,
    deterministic_liouville,
    gauss_rule,
    l1_norm,
    liouville_solve_gpc,
    liouville_solve_nodal,
    moments_from_samples,
    run_convection,
)
from stochhyp import convection, liouville
from stochhyp.liouville import PHASE_PROFILES
from stochhyp.march import march

COEF = InterfaceCoefficient(1.0, 2.0, 0.3)
STEP = PotentialBarrier(0.2, 0.0, 0.1)
DISKS = PHASE_PROFILES["quarter_disks"]


def convection_grid():
    return ConvectionGrid.from_spacing(-2.0, 6.0, 0.05, 0.01)


def convection_collocation(m):
    """Nodal solve at the m Gauss nodes: fields, quadrature moments, diagnostics."""
    rule = gauss_rule(m)
    fields, diagnostics = convection_solve_nodal(COEF, convection_grid(), rule.nodes, 0.5)
    return fields, moments_from_samples(fields, rule), diagnostics


# --- collocation ---


def test_single_node_collocation_is_the_deterministic_run():
    fields, moments, _ = convection_collocation(1)
    det = convection_solve_nodal(COEF, convection_grid(), [0.0], 0.5)[0][:, 0]
    np.testing.assert_array_equal(fields[:, 0], det)
    np.testing.assert_array_equal(moments.expectation, det)
    np.testing.assert_array_equal(moments.variance, 0.0)


def test_collocation_variance_is_nonnegative():
    _, moments, _ = convection_collocation(6)
    assert moments.variance.min() >= -1e-12


def test_collocation_moments_saturate_in_node_count():
    # the nodal solutions depend smoothly on z here, so quadrature converges
    # fast: doubling past m = 8 moves the expectation below rounding scale
    _, moments8, _ = convection_collocation(8)
    _, moments16, _ = convection_collocation(16)
    dev = np.max(np.abs(moments8.expectation - moments16.expectation))
    assert dev < 1e-10


def test_single_node_liouville_collocation_matches_deterministic():
    grid = PhaseSpaceGrid(-2.0, 2.0, 2.0, 100, 100, 0.002)
    run = liouville_solve_nodal(grid, STEP, gauss_rule(1).nodes, 0.1)
    det, _ = deterministic_liouville(grid, STEP, 0.0, 0.1)
    np.testing.assert_array_equal(run.field[:, :, 0], det)


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
        (lambda: run_convection(NAN_COEF, convection_grid(), 2, 0.5), "node"),
        (lambda: convection_solve_nodal(NAN_COEF, convection_grid(), [0.0], 0.5), "node"),
        (
            lambda: liouville_solve_gpc(
                small_phase_grid(), STEP, 2, 0.1, profile=poisoned_disks
            ),
            "node",
        ),
        (
            lambda: deterministic_liouville(
                small_phase_grid(), STEP, 0.0, 0.1, profile=poisoned_disks
            ),
            "node",
        ),
        # the order-2 limiter leaves the scan to the march as well
        (
            lambda: liouville_solve_gpc(
                small_phase_grid(), STEP, 2, 0.1, order=2, profile=poisoned_disks
            ),
            "mode",
        ),
        (
            lambda: deterministic_liouville(
                small_phase_grid(), STEP, 0.0, 0.1, order=2, profile=poisoned_disks
            ),
            "node",
        ),
    ],
    ids=[
        "convection_gpc",
        "convection_nodal",
        "liouville_gpc",
        "liouville_nodal",
        "liouville_gpc_order2",
        "liouville_nodal_order2",
    ],
)
def test_divergence_error_reports_step_and_cell(solve, tag):
    with pytest.raises(DivergenceError) as err:
        solve()
    assert err.value.step == 1
    assert "cell" in err.value.where and tag in err.value.where
    assert "step 1" in str(err.value)


def test_nodal_diagnostics_track_mass_per_node():
    _, _, diag = convection_collocation(3)
    assert diag["steps"] == 50
    assert diag["mass_initial"].shape == (3,)
    assert np.max(diag["mass_drift_rel_max"]) < 1e-13


# --- exact characteristics for the step potential ---


# The test oracle until an exact solution of the tilted problem lands in the
# package; it covers only the untilted step at z = 0.
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


# --- the march's scan, triggered by a non-finite mass ---


def poison_after_step(monkeypatch, module, at_step, index, value):
    """Make `module`'s solves write `value` at `index` of the state that step `at_step` returns."""
    real_march = module.march

    def poisoned_march(state, step, *args, **kwargs):
        taken = [0]

        def poisoned(w):
            out = step(w)
            taken[0] += 1
            if taken[0] == at_step:
                out[index] = value
            return out

        return real_march(state, poisoned, *args, **kwargs)

    monkeypatch.setattr(module, "march", poisoned_march)


@pytest.mark.parametrize(
    "module, solve, index, value, where",
    [
        # order 2 marches coefficients: with mode 2 alone non-finite the mode-0
        # sum stays finite, so the mass must scan the rest
        (
            liouville,
            lambda: liouville_solve_gpc(small_phase_grid(), STEP, 2, 0.1, order=2),
            (4, 6, 2),
            np.nan,
            "cell (4, 6), mode 2",
        ),
        # order 1 marches samples, and its weighted mass reads every node
        (
            liouville,
            lambda: liouville_solve_gpc(small_phase_grid(), STEP, 2, 0.1),
            (4, 6, 2),
            np.nan,
            "cell (4, 6), node 2",
        ),
        (
            convection,
            lambda: run_convection(COEF, convection_grid(), 3, 0.5),
            (30, 1),
            np.inf,
            "cell 30, node 1",
        ),
        (
            convection,
            lambda: convection_solve_nodal(COEF, convection_grid(), [-0.5, 0.5], 0.5),
            (12, 1),
            -np.inf,
            "cell 12, node 1",
        ),
    ],
    ids=[
        "liouville_gpc_mode2_nan",
        "liouville_gpc_node_nan",
        "convection_gpc_node_inf",
        "convection_nodal_node_inf",
    ],
)
def test_one_non_finite_entry_stops_the_march_where_it_appears(
    monkeypatch, module, solve, index, value, where
):
    poison_after_step(monkeypatch, module, 3, index, value)
    with pytest.raises(DivergenceError) as err:
        solve()
    assert err.value.step == 3
    assert err.value.where == where


def test_a_finite_state_whose_mass_overflows_marches_on():
    # node 0 sums to 2e308 after the first step: past the largest float, but
    # every entry is finite, so the scan finds nothing and the drift is inf
    state = np.ones((2, 2))
    huge = np.array([[1e308, 1.0], [1e308, 1.0]])
    mass = lambda w: w.sum(axis=0)
    with np.errstate(over="ignore"):
        final, diagnostics = march(state, lambda w: huge.copy(), 3, mass, "%d, %d")
    np.testing.assert_array_equal(final, huge)
    assert diagnostics["steps"] == 3
    assert np.isposinf(diagnostics["mass_drift_abs_max"][0])
    assert diagnostics["mass_drift_abs_max"][1] == 0.0


@pytest.mark.parametrize(
    "entries, reported",
    [(1e308, np.isposinf), (np.array([1e308, -1e308]), np.isnan)],
    ids=["inf", "nan"],
)
def test_a_finite_state_whose_scalar_mass_overflows_marches_on(entries, reported):
    # the scalar twin of the test above: every SG solve's mass is one float,
    # which the march keeps in Python floats.  Column sums of 2e308 make the
    # mass inf, and of +-2e308 make it inf - inf = nan; either way the state
    # is finite, so the march goes on and reports what the one-element array
    # form of the same mass reports
    state = np.ones((2, 2))
    huge = np.broadcast_to(entries, (2, 2)).copy()
    scalar = lambda w: float(w.sum(axis=0).sum())
    one_element = lambda w: w.sum(axis=0).sum(keepdims=True)
    runs = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for form, mass in (("scalar", scalar), ("array", one_element)):
            final, runs[form] = march(state, lambda w: huge.copy(), 3, mass, "%d, %d")
            np.testing.assert_array_equal(final, huge)
    assert isinstance(runs["scalar"]["mass_drift_abs_max"], float)
    for key in ("mass_drift_abs_max", "mass_drift_rel_max"):
        assert reported(runs["scalar"][key])
        np.testing.assert_array_equal(runs["array"][key], [runs["scalar"][key]])


def test_a_nan_drift_stays_nan_in_the_scalar_march():
    # np.maximum keeps a NaN once it has met one; the float bookkeeping must
    # too, so finite masses after a nan step do not hide it
    masses = iter([1.0, float("nan"), 2.0, 0.5])
    _, diagnostics = march(np.ones((1, 1)), lambda w: w, 3, lambda w: next(masses), "%d, %d")
    assert np.isnan(diagnostics["mass_drift_abs_max"])
    assert np.isnan(diagnostics["mass_drift_rel_max"])
