"""Basis, quadrature, and projection oracles for the gPC core."""

import numpy as np
import pytest

from stochhyp import (
    ChaosSpace,
    MomentField,
    OrthonormalBasis,
    QuadratureRule,
    galerkin_matrix,
    gauss_rule,
    legendre_table,
    project,
)


def tridiagonal_coupling(size: int) -> np.ndarray:
    """Closed-form coupling matrix of coef(z) = z: entries (j+1)/sqrt((2j+1)(2j+3))."""
    mat = np.zeros((size, size))
    for j in range(size - 1):
        off = (j + 1) / np.sqrt((2 * j + 1) * (2 * j + 3))
        mat[j, j + 1] = off
        mat[j + 1, j] = off
    return mat


# --- basis values ---


def test_mode_zero_is_one_everywhere():
    basis = OrthonormalBasis(4)
    assert basis.values([0.7])[0, 0] == 1.0
    assert np.all(basis.values(np.linspace(-1, 1, 9))[0] == 1.0)


def test_first_mode_matches_hand_value():
    # sqrt(3) * z at z = 0.5
    basis = OrthonormalBasis(3)
    assert basis.values([0.5])[1, 0] == pytest.approx(np.sqrt(3) * 0.5, abs=1e-15)


def test_endpoint_value_is_sqrt_scale():
    # unnormalized Legendre polynomials are 1 at z = 1
    basis = OrthonormalBasis(5)
    for k in range(6):
        assert basis.values([1.0])[k, 0] == pytest.approx(np.sqrt(2 * k + 1), rel=1e-14)


def test_values_match_independent_recurrence():
    # numpy's Legendre implementation as an independent oracle
    basis = OrthonormalBasis(8)
    zs = np.linspace(-1.0, 1.0, 17)
    table = basis.values(zs)
    for k in range(9):
        ref = np.sqrt(2 * k + 1) * np.polynomial.legendre.Legendre.basis(k)(zs)
        np.testing.assert_allclose(table[k], ref, atol=1e-13)


def test_basis_domain_errors():
    basis = OrthonormalBasis(3)
    with pytest.raises(ValueError):
        basis.values([1.5])
    with pytest.raises(ValueError):
        basis.values(np.array([0.0, -1.0001]))
    with pytest.raises(ValueError, match="k_max must be nonnegative"):
        legendre_table(-1, [0.0])


def test_orthonormality_under_quadrature():
    basis = OrthonormalBasis(10)
    rule = gauss_rule(11)
    table = basis.values(rule.nodes)
    gram = (table * rule.weights) @ table.T
    np.testing.assert_allclose(gram, np.eye(11), atol=1e-12)


# --- quadrature rules ---


def test_single_node_rule_is_midpoint():
    rule = gauss_rule(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [1.0]


def test_two_node_rule_solves_exactness_by_hand():
    # symmetric nodes +-x with equal weights w: 2w = 1 and 2wx^2 = 1/3
    rule = gauss_rule(2)
    np.testing.assert_allclose(np.abs(rule.nodes), 1.0 / np.sqrt(3.0), atol=1e-15)
    assert rule.weights.tolist() == [0.5, 0.5]


def test_rules_match_independent_gauss_nodes():
    for m in (3, 7, 20):
        rule = gauss_rule(m)
        nodes, weights = np.polynomial.legendre.leggauss(m)
        np.testing.assert_allclose(rule.nodes, nodes, atol=1e-14)
        np.testing.assert_allclose(rule.weights, weights / 2.0, atol=1e-14)


def test_weights_sum_to_one_and_mirror():
    for m in (1, 2, 5, 12, 33):
        rule = gauss_rule(m)
        assert rule.weights.sum() == 1.0
        assert rule.count == m
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])


def test_monomial_moments_to_degree_39():
    # averages of z^d over [-1, 1]: 1/(d+1) for even d, 0 for odd d
    rule = gauss_rule(20)
    for d in range(40):
        want = 1.0 / (d + 1) if d % 2 == 0 else 0.0
        got = float(np.sum(rule.nodes**d * rule.weights))
        assert abs(got - want) <= 1e-13, (d, got, want)


def test_rule_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(-3)


# --- Galerkin matrices ---


def test_constant_coefficient_gives_identity():
    mat = galerkin_matrix(lambda z: np.ones_like(z), ChaosSpace.build(3, 8))
    np.testing.assert_allclose(mat, np.eye(4), atol=1e-14)


def test_linear_coefficient_two_modes():
    mat = galerkin_matrix(lambda z: z, ChaosSpace.build(1, 4))
    want = np.array([[0.0, 1.0 / np.sqrt(3.0)], [1.0 / np.sqrt(3.0), 0.0]])
    np.testing.assert_allclose(mat, want, atol=1e-15)


def test_linear_coefficient_closed_form_tridiagonal():
    mat = galerkin_matrix(lambda z: z, ChaosSpace.build(10, 22))
    np.testing.assert_allclose(mat, tridiagonal_coupling(11), atol=1e-12)


def test_affine_coefficient_is_identity_plus_scaled_coupling():
    mat = galerkin_matrix(lambda z: 1.0 + 0.3 * z, ChaosSpace.build(2, 64))
    want = np.eye(3) + 0.3 * tridiagonal_coupling(3)
    np.testing.assert_allclose(mat, want, atol=1e-13)


def test_matrix_against_dense_quadrature_oracle():
    # independent dense rule from numpy, general smooth coefficient
    space = ChaosSpace.build(5, 64)
    coef = lambda z: np.exp(0.4 * z) + z**2
    mat = galerkin_matrix(coef, space)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    table = space.basis.values(nodes)
    dense = (table * (coef(nodes) * weights / 2.0)) @ table.T
    np.testing.assert_allclose(mat, dense, atol=1e-12)


def test_matrix_is_exactly_symmetric():
    mat = galerkin_matrix(lambda z: np.sin(z) + 2.0, ChaosSpace.build(6, 16))
    np.testing.assert_array_equal(mat, mat.T)


def test_matrix_rejects_small_rule():
    with pytest.raises(ValueError):
        galerkin_matrix(lambda z: z, ChaosSpace.build(5, 3))


# --- projection and evaluation ---


def test_constant_projects_to_mode_zero():
    space = ChaosSpace.build(4, 6)
    coeffs = project(np.full(space.count, 3.0), space)
    np.testing.assert_allclose(coeffs, [3.0, 0, 0, 0, 0], atol=1e-14)


def test_linear_sample_projects_to_first_mode():
    space = ChaosSpace.build(3, 6)
    coeffs = project(space.rule.nodes.copy(), space)
    np.testing.assert_allclose(coeffs, [0.0, 1.0 / np.sqrt(3.0), 0.0, 0.0], atol=1e-15)


def test_basis_function_projects_to_unit_vector():
    space = ChaosSpace.build(4, 8)
    coeffs = project(space.table[2].copy(), space)
    np.testing.assert_allclose(coeffs, [0, 0, 1.0, 0, 0], atol=1e-13)


@pytest.mark.parametrize("k", [2, 10, 30])
def test_project_is_the_weighted_sum_through_a_contiguous_projector(k):
    # the projector is a C-contiguous copy, which numpy multiplies faster
    # than the transposed view; its products agree with the explicit
    # weighted sum to a few ulp of each coefficient's sum of |terms|
    space = ChaosSpace.build(k)
    assert space.projector.flags.c_contiguous
    samples = np.random.default_rng(k).uniform(-1.0, 1.0, (40, 7, space.count))
    weighted = (space.table * space.rule.weights).T
    want = samples @ weighted
    ulp = np.spacing(np.abs(samples) @ np.abs(weighted))
    assert np.all(np.abs(project(samples, space) - want) <= 8 * ulp)


def test_project_rejects_length_mismatch():
    space = ChaosSpace.build(2, 4)
    with pytest.raises(ValueError):
        project(np.zeros(3), space)


def test_evaluate_matches_basis_values():
    basis = OrthonormalBasis(2)
    assert (np.array([3.0, 0.0, 0.0]) @ basis.values(0.2))[0] == 3.0
    got = (np.array([0.0, 1.0, 0.0]) @ basis.values(0.5))[0]
    assert got == pytest.approx(np.sqrt(3) * 0.5, abs=1e-15)
    with pytest.raises(ValueError):
        np.array([1.0, 0.0, 0.0]) @ basis.values(-1.2)


def test_round_trip_on_polynomials_is_identity():
    space = ChaosSpace.build(6, 7)
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.standard_normal(7)
        back = project(coeffs @ space.table, space)
        np.testing.assert_allclose(back, coeffs, atol=1e-12)


def test_parseval_identity():
    basis = OrthonormalBasis(5)
    rule = gauss_rule(6)
    rng = np.random.default_rng(11)
    for _ in range(20):
        coeffs = rng.standard_normal(6)
        values = coeffs @ basis.values(rule.nodes)
        quad = float(np.sum(values**2 * rule.weights))
        assert quad == pytest.approx(float(np.sum(coeffs**2)), abs=1e-10)


# --- moments ---


def test_moments_of_deterministic_vector():
    mf = MomentField.from_coeffs(np.array([2.0, 0.0, 0.0]))
    assert (mf.expectation, mf.variance) == (2.0, 0.0)


def test_moments_of_unit_first_mode():
    mf = MomentField.from_coeffs(np.array([0.0, 1.0, 0.0]))
    assert mf.expectation == 0.0
    assert mf.variance == 1.0


def test_moments_of_projected_linear_sample():
    # var(z) over [-1, 1] is 1/3
    space = ChaosSpace.build(4, 8)
    coeffs = project(space.rule.nodes.copy(), space)
    mf = MomentField.from_coeffs(coeffs)
    assert mf.expectation == pytest.approx(0.0, abs=1e-15)
    assert mf.variance == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_variance_is_never_negative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert MomentField.from_coeffs(rng.standard_normal(6)).variance >= 0.0


# --- the chaos space of a solve ---


def test_space_defaults_to_2k_plus_2_nodes_and_tabulates_its_basis():
    space = ChaosSpace.build(3)
    assert space.count == 8
    np.testing.assert_array_equal(space.table, space.basis.values(gauss_rule(8).nodes))


def _liouville_solve(order):
    from stochhyp import PhaseSpaceGrid, PotentialBarrier, liouville_solve_gpc

    grid = PhaseSpaceGrid(-2.0, 2.0, 2.0, 20, 20, 0.002)
    return lambda steps: liouville_solve_gpc(
        grid, PotentialBarrier(), 3, steps * grid.dt, order=order
    )


def _convection_solve(order):
    from stochhyp import ConvectionGrid, InterfaceCoefficient, run_convection

    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, 0.01)
    return lambda steps: run_convection(
        InterfaceCoefficient(), grid, 3, steps * grid.dt, order=order
    )


@pytest.mark.parametrize(
    "solve",
    [_liouville_solve(1), _liouville_solve(2), _convection_solve(2)],
    ids=["liouville_order1", "liouville_order2", "convection_order2"],
)
def test_the_basis_table_is_built_once_per_solve(monkeypatch, solve):
    values = OrthonormalBasis.values
    calls = []

    def counted(self, z):
        calls.append(z)
        return values(self, z)

    monkeypatch.setattr(OrthonormalBasis, "values", counted)
    counts = []
    for steps in (2, 6):
        calls.clear()
        solve(steps)
        counts.append(len(calls))
    assert counts[0] == counts[1]
