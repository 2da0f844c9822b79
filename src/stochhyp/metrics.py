"""Norms, moment fields, and error reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gpc import OrthonormalBasis, QuadratureRule, gauss_rule

__all__ = [
    "MomentField",
    "ErrorReport",
    "l1_norm",
    "h_norm",
    "nodal_h_norm",
    "moments_from_samples",
    "make_error_report",
    "error_quadrature_size",
]


def l1_norm(values: np.ndarray, cell_measure: float) -> float:
    """Discrete l1 norm: sum of |values| times the cell measure."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("l1_norm requires finite values")
    if cell_measure <= 0.0:
        raise ValueError("cell measure must be positive")
    return float(np.sum(np.abs(values)) * cell_measure)


def error_quadrature_size(k: int) -> int:
    # enough nodes for degree-2k integrands, never fewer than 16
    return max(k + 1, 16)


def h_norm(field: np.ndarray, cell_measure: float, rule: QuadratureRule | None = None) -> float:
    """Mixed norm of a coefficient field: sqrt of E_z[ l1-in-space squared ].

    `field` has shape (..., K+1) with leading axes enumerating cells.  The
    expansion is evaluated at quadrature nodes, reduced with the l1 norm per
    node, and the squares are averaged with the probabilistic weights.
    """
    field = np.asarray(field, dtype=float)
    k = field.shape[-1] - 1
    if rule is None:
        rule = gauss_rule(error_quadrature_size(k))
    basis = OrthonormalBasis(k)
    nodal = field.reshape(-1, k + 1) @ basis.values(rule.nodes)
    return nodal_h_norm(nodal, cell_measure, rule)


def nodal_h_norm(samples: np.ndarray, cell_measure: float, rule: QuadratureRule) -> float:
    """Mixed norm of nodal samples with shape (cells, rule.count).

    Each node's samples are reduced with the l1 norm in space, and the
    squares are averaged with the quadrature weights:
    sqrt(sum_q w_q (sum_cells |s| * cell_measure)^2).
    """
    per_node = np.sum(np.abs(samples), axis=0) * cell_measure
    return float(np.sqrt(np.sum(rule.weights * per_node**2)))


@dataclass(frozen=True)
class MomentField:
    """Expectation and variance per cell."""

    expectation: np.ndarray
    variance: np.ndarray

    @classmethod
    def from_coeffs(cls, field: np.ndarray) -> "MomentField":
        """Moments of a coefficient field with modes on the last axis."""
        field = np.asarray(field, dtype=float)
        return cls(field[..., 0].copy(), np.sum(field[..., 1:] ** 2, axis=-1))


def moments_from_samples(samples: np.ndarray, rule: QuadratureRule) -> MomentField:
    """Quadrature moments of nodal samples with shape (..., rule.count).

    Expectation is exact for integrands of degree <= 2M-1; the variance uses
    E[u^2] - E[u]^2 and is exact only when u^2 stays within that degree.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1] != rule.count:
        raise ValueError("sample count does not match the quadrature rule")
    mean = samples @ rule.weights
    second = (samples * samples) @ rule.weights
    return MomentField(mean, second - mean * mean)


@dataclass(frozen=True)
class ErrorReport:
    """l1-type errors against a reference solution plus run metadata."""

    l1_expectation: float
    l1_variance: float
    h_norm: float
    k: int
    dx: float
    dt: float
    t_final: float
    order: int

    @property
    def l1(self) -> float:
        """Total l1 error: expectation plus variance contributions."""
        return self.l1_expectation + self.l1_variance


def make_error_report(
    field: np.ndarray,
    exact_at_nodes,
    exact_moments: MomentField,
    cell_measure: float,
    dt: float,
    t_final: float,
    order: int,
) -> ErrorReport:
    """Assemble the error report for a 1D coefficient field.

    `exact_at_nodes` maps an array of z nodes to exact values shaped
    (cells, nodes); the H-norm of the difference is formed by quadrature.
    """
    field = np.asarray(field, dtype=float)
    k = field.shape[-1] - 1
    rule = gauss_rule(error_quadrature_size(k))
    basis = OrthonormalBasis(k)
    nodal = field @ basis.values(rule.nodes)
    h_err = nodal_h_norm(nodal - exact_at_nodes(rule.nodes), cell_measure, rule)
    num = MomentField.from_coeffs(field)
    e_err = l1_norm(num.expectation - exact_moments.expectation, cell_measure)
    v_err = l1_norm(num.variance - exact_moments.variance, cell_measure)
    return ErrorReport(e_err, v_err, h_err, k, cell_measure, dt, t_final, order)
