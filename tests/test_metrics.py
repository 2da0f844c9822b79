"""Norms, moment fields, and errors against the exact convection solution."""

import numpy as np
import pytest

from stochhyp import (
    ConvectionGrid,
    InterfaceCoefficient,
    MomentField,
    convection_errors,
    gauss_rule,
    h_norm,
    l1_norm,
    moments_from_samples,
    run_convection,
)
from stochhyp.metrics import error_quadrature_size


# --- cell-weighted l1 norm ---


def test_l1_of_zeros():
    assert l1_norm(np.zeros(12), 0.1) == 0.0


def test_l1_single_cell():
    assert l1_norm(np.array([2.0]), 0.5) == 1.0


def test_l1_indicator_hand_sum():
    values = np.zeros(25)
    values[4:14] = 1.0
    assert l1_norm(values, 0.1) == pytest.approx(1.0, abs=1e-15)


def test_l1_accepts_multidimensional_cells():
    # 2D fields flatten; measure is the cell area
    values = np.ones((3, 4))
    assert l1_norm(values, 0.25) == pytest.approx(3.0, rel=1e-15)


def test_l1_rejects_bad_inputs():
    with pytest.raises(ValueError):
        l1_norm(np.array([1.0, np.nan]), 0.1)
    with pytest.raises(ValueError):
        l1_norm(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        l1_norm(np.ones(3), -0.5)


# --- mixed spatial/random norm ---


def test_h_norm_of_zero_field():
    assert h_norm(np.zeros((7, 3)), 0.1) == 0.0


def test_h_norm_of_deterministic_field_is_l1():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(30)
    field = np.zeros((30, 5))
    field[:, 0] = values
    got = h_norm(field, 0.037)
    assert got == pytest.approx(l1_norm(values, 0.037), rel=1e-15)


def test_h_norm_pure_first_mode_single_cell():
    # field sqrt(3)z on one unit cell: mean square over z is exactly 1
    assert h_norm(np.array([[0.0, 1.0]]), 1.0) == pytest.approx(1.0, rel=1e-14)


def test_h_norm_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.standard_normal((11, 4))
        b = rng.standard_normal((11, 4))
        lhs = h_norm(a + b, 0.2)
        rhs = h_norm(a, 0.2) + h_norm(b, 0.2)
        assert lhs <= rhs + 1e-12


def test_h_norm_absolute_homogeneity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.standard_normal((9, 3))
        c = float(rng.uniform(-3.0, 3.0))
        assert h_norm(c * a, 0.5) == pytest.approx(abs(c) * h_norm(a, 0.5), rel=1e-12, abs=1e-14)


def test_l1_triangle_and_homogeneity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.standard_normal(15)
        b = rng.standard_normal(15)
        c = float(rng.uniform(-2.0, 2.0))
        assert l1_norm(a + b, 0.1) <= l1_norm(a, 0.1) + l1_norm(b, 0.1) + 1e-12
        assert l1_norm(c * a, 0.1) == pytest.approx(abs(c) * l1_norm(a, 0.1), rel=1e-13)


def test_h_norm_quadrature_size_floor():
    assert error_quadrature_size(0) == 16
    assert error_quadrature_size(15) == 16
    assert error_quadrature_size(30) == 31


# --- moment fields ---


def test_moments_from_coeffs():
    field = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0, 2.0]])
    mf = MomentField.from_coeffs(field)
    np.testing.assert_array_equal(mf.expectation, [2.0, 0.0, 1.0])
    np.testing.assert_array_equal(mf.variance, [0.0, 1.0, 8.0])


def test_moments_from_samples_constant():
    rule = gauss_rule(5)
    samples = np.full((4, 5), 3.0)
    mf = moments_from_samples(samples, rule)
    np.testing.assert_allclose(mf.expectation, 3.0, atol=1e-14)
    np.testing.assert_allclose(mf.variance, 0.0, atol=1e-13)


def test_moments_from_samples_rejects_another_node_count():
    with pytest.raises(ValueError, match="sample count does not match"):
        moments_from_samples(np.ones((4, 3)), gauss_rule(5))


def test_moments_from_samples_linear_in_z():
    # u(z) = z per cell: mean 0, variance 1/3
    rule = gauss_rule(6)
    samples = np.tile(rule.nodes, (3, 1))
    mf = moments_from_samples(samples, rule)
    np.testing.assert_allclose(mf.expectation, 0.0, atol=1e-15)
    np.testing.assert_allclose(mf.variance, 1.0 / 3.0, rtol=1e-13)


def test_moments_from_samples_matches_coefficient_path():
    from stochhyp import ChaosSpace

    space = ChaosSpace.build(4, 10)
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal((6, 5))
    sampled = moments_from_samples(coeffs @ space.table, space.rule)
    direct = MomentField.from_coeffs(coeffs)
    np.testing.assert_allclose(sampled.expectation, direct.expectation, atol=1e-13)
    np.testing.assert_allclose(sampled.variance, direct.variance, atol=1e-12)


def test_sample_variance_floor():
    rule = gauss_rule(8)
    rng = np.random.default_rng(14)
    samples = rng.standard_normal((20, 8))
    mf = moments_from_samples(samples, rule)
    assert np.all(mf.variance >= -1e-12)


# --- errors against the exact convection solution ---


def test_make_error_report_zero_for_exact_field():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, 0.01)
    # at t = 0 the k = 0 field is the exact profile, cell by cell and node by node
    start = run_convection(coef, grid, 0, 0.0)
    errors = convection_errors(coef, grid, "cos_bump", 0.0, start.coeffs)
    assert errors == dict.fromkeys(["l1_expectation", "l1_variance", "l1_total", "h_distance"], 0.0)


def test_report_total_is_sum_of_moment_errors():
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, 0.01)
    run = run_convection(coef, grid, 2, 0.1)
    errors = convection_errors(coef, grid, "cos_bump", 0.1, run.coeffs)
    assert errors["l1_variance"] > 0.0
    assert errors["l1_total"] == errors["l1_expectation"] + errors["l1_variance"]
