"""gPC stochastic Galerkin solvers for 1D convection with a random wave speed.

The wave speed is piecewise constant in x with a jump at x = 0 and a linear
perturbation in the random variable z.  The fully discrete immersed upwind
scheme is projected onto the orthonormal Legendre basis, so the unknowns are
per-cell coefficient vectors.  The module also carries the exact solution by
characteristics and quadrature oracles for its moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .gpc import (
    OrthonormalBasis,
    QuadratureRule,
    deterministic_coeffs,
    galerkin_matrix,
    gauss_rule,
    project,
)
from .limiters import BAP_KINDS, limited_slopes
from .march import march
from .metrics import MomentField, make_error_report

__all__ = [
    "InterfaceCoefficient",
    "ConvectionGrid",
    "InitialProfile",
    "PROFILES",
    "AnalyticConvectionSolution",
    "ConvectionRun",
    "build_lambda_matrices",
    "check_cfl",
    "step_first_order",
    "step_first_order_nodal",
    "step_second_order",
    "step_second_order_nodal",
    "run_convection",
]

@dataclass(frozen=True)
class InterfaceCoefficient:
    """Wave speed c(x, z) = base(x) + sigma*z with base jumping at x = 0."""

    c_minus: float = 1.0
    c_plus: float = 2.0
    sigma: float = 0.3

    def __post_init__(self) -> None:
        if self.c_minus <= 0.0 or self.c_plus <= 0.0:
            raise ConfigurationError(["base speeds must be positive"])
        if abs(self.sigma) >= min(self.c_minus, self.c_plus):
            raise ConfigurationError(
                ["speed perturbation must keep c(x, z) > 0 for all |z| <= 1"]
            )

    def left(self, z):
        """Speed left of the jump."""
        return self.c_minus + self.sigma * z

    def right(self, z):
        """Speed right of the jump."""
        return self.c_plus + self.sigma * z

    def jump_factor(self, z):
        """Scaling applied to the profile transmitted through x = 0."""
        return self.left(z) / self.right(z)


@dataclass(frozen=True)
class ConvectionGrid:
    """Cell-centered grid on [a, b] whose edge grid contains x = 0."""

    a: float
    b: float
    cells: int
    dx: float
    dt: float
    interface_index: int
    shift: float = 0.0

    @classmethod
    def from_spacing(cls, a: float, b: float, dx: float, dt: float) -> "ConvectionGrid":
        problems = []
        if not (a < 0.0 < b):
            problems.append("domain [a, b] must straddle x = 0")
        if dx <= 0.0:
            problems.append("dx must be positive")
        if dt <= 0.0:
            problems.append("dt must be positive")
        if problems:
            raise ConfigurationError(problems)
        cells = int(round((b - a) / dx))
        if cells < 4:
            raise ConfigurationError(["domain must span at least 4 cells"])
        if abs((b - a) - cells * dx) > 1e-9 * (b - a):
            raise ConfigurationError(["(b - a) must be an integer multiple of dx"])
        # slide the grid so the jump lands exactly on a cell edge
        edges_left = int(round(-a / dx))
        aligned_a = -edges_left * dx
        shift = aligned_a - a
        if edges_left < 1 or edges_left > cells - 1:
            raise ConfigurationError(["x = 0 must be an interior cell edge"])
        return cls(aligned_a, aligned_a + cells * dx, cells, dx, dt, edges_left - 1, shift)

    @property
    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.cells) + 0.5) * self.dx

    @property
    def ratio(self) -> float:
        """Time step over mesh size."""
        return self.dt / self.dx


def check_cfl(coef: InterfaceCoefficient, grid: ConvectionGrid) -> None:
    """Require (dt/dx)*c(x, z) in [0, 1]; c is linear in z so z = +-1 suffice."""
    problems = []
    for label, side in (("left", coef.left), ("right", coef.right)):
        worst = max(grid.ratio * side(-1.0), grid.ratio * side(1.0))
        if worst > 1.0:
            problems.append(
                "CFL violated on the %s side: (dt/dx)*c reaches %.6g > 1" % (label, worst)
            )
    if problems:
        raise ConfigurationError(problems)


def build_lambda_matrices(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    basis: OrthonormalBasis,
    rule: QuadratureRule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin matrices of (dt/dx)*c(x, z) on each side of the jump."""
    if rule is None:
        rule = gauss_rule(2 * basis.max_order + 2)
    check_cfl(coef, grid)
    lam_minus = grid.ratio * galerkin_matrix(coef.left, basis, rule)
    lam_plus = grid.ratio * galerkin_matrix(coef.right, basis, rule)
    return lam_minus, lam_plus


def _three_branch(field: np.ndarray, gm: np.ndarray, gp: np.ndarray, i: int) -> np.ndarray:
    # shared update skeleton; gm/gp are the lambda-weighted upwind states, and
    # the grouping (u - own) + neighbor is kept identical across solver paths
    out = np.empty_like(field)
    out[: i + 1] = field[: i + 1] - gm[: i + 1]
    out[1 : i + 1] += gm[:i]
    out[i + 1] = (field[i + 1] - gp[i + 1]) + gm[i]
    out[i + 2 :] = (field[i + 2 :] - gp[i + 2 :]) + gp[i + 1 : -1]
    return out


def step_first_order(
    field: np.ndarray,
    lam_minus: np.ndarray,
    lam_plus: np.ndarray,
    interface_index: int,
) -> np.ndarray:
    """One step of the coefficient-space immersed upwind scheme.

    Left of the jump the update is (I - L-)U_i + L-_ U_{i-1}; the first cell on
    the right couples to the left with the left-side matrix so the discrete
    flux is continuous across the interface; cells further right use the
    right-side matrix throughout.  Inflow ghosts are zero (compact support).
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2 or field.shape[1] != lam_minus.shape[0]:
        raise ValueError("field shape does not match the Galerkin matrices")
    return _three_branch(field, field @ lam_minus, field @ lam_plus, interface_index)


def step_first_order_nodal(
    field: np.ndarray,
    lam_minus: np.ndarray,
    lam_plus: np.ndarray,
    interface_index: int,
) -> np.ndarray:
    """First-order step for nodal samples; lam_* are per-node scalars."""
    field = np.asarray(field, dtype=float)
    return _three_branch(field, field * lam_minus, field * lam_plus, interface_index)


def step_second_order_nodal(
    field: np.ndarray,
    lam_minus: np.ndarray,
    lam_plus: np.ndarray,
    dx: float,
    interface_index: int,
    kind: str = "arctan",
) -> np.ndarray:
    """Second-order nodal step: the upwind update applied to edge states."""
    field = np.asarray(field, dtype=float)
    edges = field + limited_slopes(field, dx, interface_index, kind) * (dx / 2.0)
    return _three_branch(field, edges * lam_minus, edges * lam_plus, interface_index)


def step_second_order(
    field: np.ndarray,
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    basis: OrthonormalBasis,
    rule: QuadratureRule | None = None,
    kind: str = "arctan",
) -> np.ndarray:
    """Second-order coefficient step, realized through quadrature nodes.

    The field is evaluated at the nodes, the nodal scheme (limiter included)
    is applied per node, and the result is projected back onto the basis.
    """
    if rule is None:
        rule = gauss_rule(2 * basis.max_order + 2)
    if kind not in BAP_KINDS:
        raise ConfigurationError(["unknown limiter map %r" % (kind,)])
    table = basis.values(rule.nodes)
    nodal = np.asarray(field, dtype=float) @ table
    lam_m = grid.ratio * coef.left(rule.nodes)
    lam_p = grid.ratio * coef.right(rule.nodes)
    stepped = step_second_order_nodal(
        nodal, lam_m, lam_p, grid.dx, grid.interface_index, kind
    )
    return project(stepped, basis, rule)


def _cos_bump(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= -1.0) & (x <= 3.0), np.cos(0.25 * np.pi * x), 0.0)


def _gaussian(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-(((x - 1.0) / 0.5) ** 2))


@dataclass(frozen=True)
class InitialProfile:
    """Initial datum u0 with its support interval when it stops being smooth."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None


PROFILES = {
    "cos_bump": InitialProfile("cos_bump", _cos_bump, (-1.0, 3.0)),
    "gaussian": InitialProfile("gaussian", _gaussian, None),
}


@dataclass(frozen=True)
class AnalyticConvectionSolution:
    """Exact solution by characteristics for the jumping-speed problem."""

    coef: InterfaceCoefficient
    profile: InitialProfile

    def value(self, x, t: float, z) -> np.ndarray:
        """Pointwise solution; broadcasts over x and z."""
        x, z = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
        u0 = self.profile.func
        cp = self.coef.right(z)
        cm = self.coef.left(z)
        crossed = cm / cp
        upper = u0(x - cp * t)
        middle = crossed * u0(crossed * (x - cp * t))
        lower = u0(x - cm * t)
        return np.where(x > cp * t, upper, np.where(x > 0.0, middle, lower))

    def _z_breakpoints(self, x: float, t: float) -> np.ndarray:
        """Points in z where the solution at (x, t) loses smoothness."""
        coef = self.coef
        sigma = coef.sigma
        pts = [-1.0, 1.0]
        if sigma == 0.0 or t == 0.0:
            return np.array(sorted(pts))
        st = sigma * t
        pts.append((x / t - coef.c_plus) / sigma)
        if self.profile.support is not None:
            lo, hi = self.profile.support
            for c in (coef.c_plus, coef.c_minus):
                pts.append((x - lo - c * t) / st)
                pts.append((x - hi - c * t) / st)
            # transmitted-branch support edges: quadratic in w = sigma*z
            for edge in (lo, hi):
                qa = -t
                qb = x - edge - coef.c_minus * t - coef.c_plus * t
                qc = coef.c_minus * x - coef.c_minus * coef.c_plus * t - edge * coef.c_plus
                disc = qb * qb - 4.0 * qa * qc
                if disc > 0.0:
                    root = np.sqrt(disc)
                    pts.append((-qb + root) / (2.0 * qa) / sigma)
                    pts.append((-qb - root) / (2.0 * qa) / sigma)
        pts = [p for p in pts if -1.0 < p < 1.0]
        pts = np.array(sorted(set([-1.0, 1.0] + pts)))
        keep = np.concatenate([[True], np.diff(pts) > 1e-13])
        return pts[keep]

    def moments(self, x: np.ndarray, t: float, quad_count: int = 32) -> MomentField:
        """Expectation and variance over z, exact per smooth z-piece."""
        x = np.asarray(x, dtype=float)
        if t == 0.0 or self.coef.sigma == 0.0:
            mean = self.value(x, t, 0.0)
            return MomentField(mean, np.zeros_like(mean))
        rule = gauss_rule(quad_count)
        mean = np.empty_like(x)
        second = np.empty_like(x)
        for n, xn in enumerate(x):
            pts = self._z_breakpoints(float(xn), t)
            acc1 = 0.0
            acc2 = 0.0
            for lo, hi in zip(pts[:-1], pts[1:]):
                nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * rule.nodes
                vals = self.value(xn, t, nodes)
                acc1 += (hi - lo) / 2.0 * float(np.sum(rule.weights * vals))
                acc2 += (hi - lo) / 2.0 * float(np.sum(rule.weights * vals * vals))
            mean[n] = acc1
            second[n] = acc2 - acc1 * acc1
        return MomentField(mean, second)


@dataclass(frozen=True)
class ConvectionRun:
    """Final coefficients, their moments, errors, and run diagnostics."""

    coeffs: np.ndarray
    moments: MomentField
    report: object
    diagnostics: dict


def run_convection(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    k: int,
    t_final: float,
    order: int = 1,
    profile: str = "cos_bump",
    quad_count: int | None = None,
    kind: str = "arctan",
    compare_analytic: bool = True,
) -> ConvectionRun:
    """March the gPC-SG scheme to t_final and report moments and errors."""
    problems = []
    if order not in (1, 2):
        problems.append("order must be 1 or 2")
    if k < 0:
        problems.append("gPC order must be >= 0")
    if t_final < 0.0:
        problems.append("final time must be >= 0")
    if profile not in PROFILES:
        problems.append("unknown initial profile %r" % (profile,))
    steps = int(round(t_final / grid.dt))
    if abs(steps * grid.dt - t_final) > 1e-9 * max(1.0, t_final):
        problems.append("final time must be an integer number of time steps")
    if problems:
        raise ConfigurationError(problems)

    basis = OrthonormalBasis(k)
    rule = gauss_rule(quad_count if quad_count is not None else 2 * k + 2)
    lam_minus, lam_plus = build_lambda_matrices(coef, grid, basis, rule)
    prof = PROFILES[profile]

    if order == 1:
        step = lambda f: step_first_order(f, lam_minus, lam_plus, grid.interface_index)
    else:
        step = lambda f: step_second_order(f, coef, grid, basis, rule, kind)
    mass = lambda f: float(np.sum(f[:, 0]) * grid.dx)
    field, diagnostics = march(
        deterministic_coeffs(prof.func(grid.centers), k), step, steps, mass, "cell %d, mode %d"
    )

    moments = MomentField.from_coeffs(field)
    report = None
    if compare_analytic:
        exact = AnalyticConvectionSolution(coef, prof)
        report = make_error_report(
            field, lambda zs: exact.value(grid.centers[:, None], t_final, zs[None, :]),
            exact.moments(grid.centers, t_final), grid.dx, grid.dt, t_final, order
        )
    diagnostics["interface_shift"] = grid.shift
    return ConvectionRun(field, moments, report, diagnostics)
