"""Orthonormal Legendre basis, Gauss quadrature, and Galerkin projection tools.

Everything here works with the uniform density rho(z) = 1/2 on [-1, 1].
Quadrature weights absorb rho, so they sum to one and plain weighted sums
approximate probabilistic expectations directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import reject

__all__ = [
    "OrthonormalBasis",
    "QuadratureRule",
    "ChaosSpace",
    "gauss_rule",
    "chaos_problems",
    "legendre_table",
    "galerkin_matrix",
    "project",
    "deterministic_coeffs",
]


def legendre_table(k_max: int, z: np.ndarray) -> np.ndarray:
    """Unnormalized Legendre values L_0..L_k_max at points z, shape (k_max+1, n)."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty((k_max + 1, z.size))
    out[0] = 1.0
    if k_max >= 1:
        out[1] = z
    for k in range(2, k_max + 1):
        out[k] = ((2 * k - 1) * z * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


@dataclass(frozen=True)
class OrthonormalBasis:
    """Normalized Legendre polynomials P_k(z) = sqrt(2k+1) L_k(z), k = 0..max_order.

    Orthonormal with respect to the uniform density on [-1, 1]:
    integral of P_j P_k rho dz equals the Kronecker delta.
    """

    max_order: int

    def __post_init__(self) -> None:
        reject(chaos_problems(self.max_order))

    def values(self, z: np.ndarray) -> np.ndarray:
        """Table of P_k(z), shape (max_order+1, len(z))."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if np.any(np.abs(z) > 1.0):
            raise ValueError("basis points must lie in [-1, 1]")
        table = legendre_table(self.max_order, z)
        scale = np.sqrt(2.0 * np.arange(self.max_order + 1) + 1.0)
        return table * scale[:, None]


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and probabilistic weights (weights sum to one)."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.nodes.size


def _legendre_and_deriv(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # derivative via (x^2 - 1) L'_m = m (x L_m - L_{m-1})
    table = legendre_table(m, x)
    lm = table[m]
    lprev = table[m - 1]
    dlm = m * (x * lm - lprev) / (x * x - 1.0)
    return lm, dlm


def gauss_rule(m: int) -> QuadratureRule:
    """Gauss-Legendre rule with m nodes for the uniform density on [-1, 1].

    Nodes are the roots of L_m found by Newton iteration from Chebyshev-type
    initial guesses (tolerance 1e-15, at most 100 sweeps).  Exact for
    polynomials of degree <= 2m - 1.  Node sets are symmetric about zero by
    construction; m = 1 returns the single node 0 with weight 1.
    """
    if m < 1:
        raise ValueError("node count must be positive")
    if m == 1:
        return QuadratureRule(np.array([0.0]), np.array([1.0]))
    half = m // 2
    # k-th largest root starts near cos(pi (k + 3/4) / (m + 1/2))
    k = np.arange(half, dtype=float)
    x = np.cos(np.pi * (k + 0.75) / (m + 0.5))
    for _ in range(100):
        lm, dlm = _legendre_and_deriv(m, x)
        dx = lm / dlm
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    _, dlm = _legendre_and_deriv(m, x)
    w_half = 1.0 / ((1.0 - x * x) * dlm * dlm)
    if m % 2:
        l0 = legendre_table(m, np.array([0.0]))
        dl0 = m * (0.0 - l0[m - 1, 0]) / (0.0 - 1.0)
        nodes = np.concatenate([-x, [0.0], x[::-1]])
        weights = np.concatenate([w_half, [1.0 / (dl0 * dl0)], w_half[::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w_half, w_half[::-1]])
    # rescale so the weights sum to 1 exactly; mirrored pairs stay equal
    weights = weights / weights.sum()
    return QuadratureRule(nodes, weights)


def chaos_problems(k: int, quad_count: int | None = None) -> list[tuple[str, str]]:
    """Problems with chaos order k on a rule of quad_count nodes (None: the default)."""
    if k < 0:
        return [("k", "chaos order k must be >= 0")]
    if quad_count is not None and quad_count < k + 1:
        return [("m", "quadrature size m must be >= k + 1 = %d" % (k + 1))]
    return []


@dataclass(frozen=True)
class ChaosSpace:
    """The chaos space of one solve: basis, projecting rule and table P_j(z_q).

    `table` holds the basis at the rule's nodes, shape (max_order+1, count).
    `ChaosSpace.build` checks the rule against the basis, so every function
    that takes a space works on a rule of at least max_order + 1 nodes.
    """

    basis: OrthonormalBasis
    rule: QuadratureRule
    table: np.ndarray

    @classmethod
    def build(cls, k: int, quad_count: int | None = None) -> "ChaosSpace":
        """Order-k space on a Gauss rule of quad_count nodes, by default 2k + 2."""
        reject(chaos_problems(k, quad_count))
        basis = OrthonormalBasis(k)
        rule = gauss_rule(2 * k + 2 if quad_count is None else quad_count)
        return cls(basis, rule, basis.values(rule.nodes))

    @property
    def count(self) -> int:
        return self.rule.count

    @cached_property
    def projector(self) -> np.ndarray:
        """The map from node samples to coefficients, shape (count, max_order+1).

        A C-contiguous copy, not the transposed view of the weighted table:
        `np.matmul` of one order-2 Liouville block's slopes (16 x 134 x 22
        values onto 11 modes, one BLAS thread on an Intel Xeon) took 59-70
        us with the F-ordered view and 28-42 us with the copy.
        """
        return np.ascontiguousarray((self.table * self.rule.weights).T)


def galerkin_matrix(
    coef: Callable[[np.ndarray], np.ndarray | float], space: ChaosSpace
) -> np.ndarray:
    """Matrix of <coef(z) P_k P_m> assembled by quadrature, shape (K+1, K+1).

    Results are exact when the space's rule integrates deg(coef) + 2 max_order
    exactly.  The output is symmetrized so roundoff cannot break the analytic
    symmetry.
    """
    nodes = space.rule.nodes
    c = np.broadcast_to(np.asarray(coef(nodes), dtype=float), nodes.shape)
    weighted = space.table * (c * space.rule.weights)
    mat = weighted @ space.table.T
    return 0.5 * (mat + mat.T)


def project(samples: np.ndarray, space: ChaosSpace, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of the degree-max_order expansion from samples at the space's nodes."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1] != space.count:
        raise ValueError("sample count does not match the quadrature rule")
    return np.matmul(samples, space.projector, out=out)


def deterministic_coeffs(values: np.ndarray, k: int) -> np.ndarray:
    """Order-k coefficients of a field that does not depend on z: `values` in mode 0."""
    field = np.zeros(np.shape(values) + (k + 1,))
    field[..., 0] = values
    return field
