"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` to get one result line per
criterion; the printed details carry the measured numbers behind each verdict.
"""

import numpy as np
import pytest

from stochhyp import (
    ChaosSpace,
    ConvectionGrid,
    InterfaceCoefficient,
    MomentField,
    PhaseSpaceGrid,
    PotentialBarrier,
    bap_slope,
    convection_errors,
    convection_solve_nodal,
    deterministic_liouville,
    galerkin_matrix,
    gauss_rule,
    gpc_error_sweep,
    l1_norm,
    liouville_solve_gpc,
    liouville_solve_nodal,
    moments_from_samples,
    run_convection,
)
from stochhyp.limiters import BAP_KINDS

COEF = InterfaceCoefficient(1.0, 2.0, 0.3)
BARRIER = PotentialBarrier(0.2, 0.0, 0.1)


def verdict(num, ok, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def l1_total(coef, grid, run, profile="cos_bump"):
    """Total l1 moment error of a t_final = 1 chaos run against the exact solution."""
    return convection_errors(coef, grid, profile, 1.0, run.coeffs)["l1_total"]


@pytest.fixture(scope="module")
def reference_grid():
    return ConvectionGrid.from_spacing(-2.0, 6.0, 0.005, 0.001)


@pytest.fixture(scope="module")
def interface_run_k4(reference_grid):
    return run_convection(COEF, reference_grid, 4, 1.0)


@pytest.fixture(scope="module")
def interface_run_k20(reference_grid):
    return run_convection(COEF, reference_grid, 20, 1.0)


@pytest.fixture(scope="module")
def phase_grid():
    # dx = dv = 0.03 with the barrier edge interior
    return PhaseSpaceGrid(-2.01, 2.01, 2.01, 134, 134, 0.002)


def test_criterion_01_low_order_reaches_the_mesh_floor(
    reference_grid, interface_run_k4, interface_run_k20
):
    # chaos truncation at K=4 already sits at the mesh error of the scheme
    e4 = l1_total(COEF, reference_grid, interface_run_k4)
    e20 = l1_total(COEF, reference_grid, interface_run_k20)
    ratio = e4 / e20
    verdict(1, abs(ratio - 1.0) <= 0.1, "e(4)/e(20) = %.4f" % ratio)


def test_criterion_02_spectral_decay_of_chaos_truncation(reference_grid):
    def solve(k):
        return run_convection(COEF, reference_grid, k, 1.0).coeffs

    rows = gpc_error_sweep(solve, range(2, 21, 2), 30, reference_grid.dx)
    err = {row.k: row.h_distance for row in rows}
    concave = (
        err[8] / err[4] < err[4] / err[2] and err[16] / err[8] < err[8] / err[4]
    )
    violations = [
        k
        for k in range(4, 21, 2)
        if not err[k] < err[k - 2]
        if max(err[k], err[k - 2]) >= 1e-12
    ]
    soft = sum(1 for k in range(4, 21, 2) if not err[k] < err[k - 2])
    ok = concave and not violations and soft <= 1
    verdict(
        2,
        ok,
        "concave %s, monotone violations %d hard / %d at roundoff"
        % (concave, len(violations), soft),
    )


def test_criterion_03_half_order_at_the_interface_first_order_smooth():
    errs = []
    for dx in (0.01, 0.005):
        grid = ConvectionGrid.from_spacing(-2.0, 6.0, dx, dx / 5.0)
        errs.append(l1_total(COEF, grid, run_convection(COEF, grid, 8, 1.0)))
    interface_ratio = errs[0] / errs[1]

    smooth = InterfaceCoefficient(1.0, 1.0, 0.0)
    errs = []
    for dx in (0.01, 0.005):
        grid = ConvectionGrid.from_spacing(-2.0, 6.0, dx, dx / 5.0)
        run = run_convection(smooth, grid, 0, 1.0, profile="gaussian")
        errs.append(l1_total(smooth, grid, run, "gaussian"))
    smooth_ratio = errs[0] / errs[1]

    ok = 1.3 <= interface_ratio <= 2.1 and 1.8 <= smooth_ratio <= 2.2
    verdict(
        3,
        ok,
        "interface ratio %.3f, smooth control ratio %.3f"
        % (interface_ratio, smooth_ratio),
    )


def test_criterion_04_mass_conservation(interface_run_k20, phase_grid):
    drift = interface_run_k20.diagnostics["mass_drift_rel_max"]

    # a band that reflects off the rigid step and never reaches the
    # truncated velocity rows, checked independently at every sample
    rigid = PotentialBarrier(0.2, 0.0, slope_amp=0.0)
    band = lambda x, v: np.where(
        (x > 0.1) & (x < 0.4) & (v > -0.5) & (v < -0.2), 1.0, 0.0
    )
    run = liouville_solve_nodal(
        phase_grid, rigid, np.array([-0.5, 0.0, 1.0]), 1.0, profile=band
    )
    node_drift = float(np.max(run.diagnostics["mass_drift_rel_max"]))
    events = run.diagnostics["truncation_events"]
    ok = drift < 1e-12 and node_drift < 1e-12 and events == 0
    verdict(
        4,
        ok,
        "mode-0 drift %.3g, per-node drift %.3g, truncation events %d"
        % (drift, node_drift, events),
    )


def test_criterion_05_galerkin_matrix_closed_form():
    matrix = galerkin_matrix(lambda z: z, ChaosSpace.build(10, 22))
    j = np.arange(10)
    off = (j + 1) / np.sqrt((2 * j + 1) * (2 * j + 3))
    expected = np.diag(off, 1) + np.diag(off, -1)
    dev = np.max(np.abs(matrix - expected))
    verdict(5, dev <= 1e-12, "max entry deviation %.3g" % dev)


def test_criterion_06_quadrature_moment_exactness():
    rule = gauss_rule(20)
    worst = 0.0
    for degree in range(40):
        moment = float(np.sum(rule.weights * rule.nodes**degree))
        exact = 1.0 / (degree + 1) if degree % 2 == 0 else 0.0
        worst = max(worst, abs(moment - exact))
    verdict(6, worst <= 1e-13, "worst moment deviation %.3g" % worst)


def test_criterion_07_deterministic_maximum_principle(phase_grid):
    _, diag = deterministic_liouville(phase_grid, BARRIER, 0.0, 1.0)
    lo, hi = diag["min_value"], diag["max_value"]
    ok = lo >= -1e-12 and hi <= 1.0 + 1e-12
    verdict(7, ok, "range [%.3g, %.17g] over all steps" % (lo, hi))


def test_criterion_08_galerkin_matches_collocation(phase_grid):
    gpc = liouville_solve_gpc(phase_grid, BARRIER, 10, 1.0)
    rule = gauss_rule(20)
    col = liouville_solve_nodal(phase_grid, BARRIER, rule.nodes, 1.0)
    col_moments = moments_from_samples(col.field, rule)
    cell = phase_grid.dx * phase_grid.dv
    dev = l1_norm(MomentField.from_coeffs(gpc.field).expectation - col_moments.expectation, cell)
    rel = dev / l1_norm(col_moments.expectation, cell)
    verdict(8, rel <= 0.05, "relative expectation difference %.3g" % rel)


def test_criterion_09_limiter_mean_properties():
    rng = np.random.default_rng(2026)
    s_l = rng.uniform(-3.0, 3.0, 100_000)
    s_r = rng.uniform(-3.0, 3.0, 100_000)
    worst = 0.0
    ok = True
    for kind in BAP_KINDS:
        out = bap_slope(s_l, s_r, kind=kind)
        lo = np.minimum(s_l, s_r)
        hi = np.maximum(s_l, s_r)
        ok &= bool(np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12))
        ident = np.max(np.abs(bap_slope(s_l, s_l, kind=kind) - s_l))
        odd = np.max(np.abs(bap_slope(-s_l, -s_r, kind=kind) + out))
        worst = max(worst, ident, odd)
    ok &= worst <= 1e-12
    verdict(9, ok, "bounds hold, worst identity/odd deviation %.3g" % worst)


def test_criterion_10_reduction_identities(phase_grid):
    grid = ConvectionGrid.from_spacing(-2.0, 6.0, 0.01, 0.002)
    run = run_convection(COEF, grid, 0, 1.0, quad_count=1)
    det, _ = convection_solve_nodal(COEF, grid, [0.0], 1.0)
    conv_ok = np.array_equal(run.coeffs[:, 0], det[:, 0])

    gpc = liouville_solve_gpc(phase_grid, BARRIER, 0, 0.1, quad_count=1)
    detl, _ = deterministic_liouville(phase_grid, BARRIER, 0.0, 0.1)
    liou_ok = np.array_equal(gpc.field[:, :, 0], detl)

    frozen = InterfaceCoefficient(1.0, 2.0, 0.0)
    froz_run = run_convection(frozen, grid, 0, 1.0, quad_count=1)
    froz_det, _ = convection_solve_nodal(frozen, grid, [0.3], 1.0)
    sigma_ok = np.array_equal(froz_run.coeffs[:, 0], froz_det[:, 0])

    ok = conv_ok and liou_ok and sigma_ok
    verdict(
        10,
        ok,
        "convection %s, phase space %s, frozen coefficient %s"
        % (conv_ok, liou_ok, sigma_ok),
    )
