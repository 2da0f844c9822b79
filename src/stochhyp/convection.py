"""gPC stochastic Galerkin solvers for 1D convection with a random wave speed.

The wave speed is piecewise constant in x with a jump at x = 0 and a linear
perturbation in the random variable z.  The fully discrete immersed upwind
scheme is projected onto the orthonormal Legendre basis: the SG solve marches
samples at its Gauss rule and projects them once, and its nodal twin marches
the same scheme at any fixed samples of z.  The module also carries the exact
solution by characteristics and quadrature oracles for its moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, reject
from .gpc import ChaosSpace, QuadratureRule, chaos_problems, gauss_rule, project
from .limiters import kind_problems, limited_slopes
from .march import march, time_steps
from .metrics import (
    MomentField,
    error_quadrature_size,
    l1_norm,
    moments_from_samples,
    nodal_h_norm,
)
from .workspace import Workspace

__all__ = [
    "InterfaceCoefficient",
    "ConvectionGrid",
    "InitialProfile",
    "PROFILES",
    "AnalyticConvectionSolution",
    "ConvectionRun",
    "scheme_problems",
    "step_first_order",
    "step_second_order_nodal",
    "run_convection",
    "convection_solve_nodal",
    "convection_errors",
]

@dataclass(frozen=True)
class InterfaceCoefficient:
    """Wave speed c(x, z) = base(x) + sigma*z with base jumping at x = 0."""

    c_minus: float = 1.0
    c_plus: float = 2.0
    sigma: float = 0.3

    def __post_init__(self) -> None:
        if not (self.c_minus > 0.0 and self.c_plus > 0.0):
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
        if not -np.inf < a < 0.0 < b < np.inf:
            problems.append("domain [a, b] must be finite and straddle x = 0")
        if not dx > 0.0:
            problems.append("dx must be positive")
        if not dt > 0.0:
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


class _Upwind:
    """The immersed upwind update of one solve's (cells, nodes) samples.

    It holds, once per solve, the (cells, nodes) speed table, lam- in cells
    left of the jump (j <= interface_index) and lam+ to its right, and the
    "flux" and "state" buffers of `workspace`, the solve's workspace (a
    throwaway one if none), where the order-2 step's other layers keep
    theirs.  A steady step then looks nothing up.
    """

    def __init__(self, lam_minus, lam_plus, interface_index, workspace=None):
        self.lam_minus, self.lam_plus = lam_minus, lam_plus
        self.interface_index = interface_index
        self.workspace = Workspace() if workspace is None else workspace
        self.speeds = None

    def __call__(self, field: np.ndarray, states: np.ndarray) -> np.ndarray:
        if self.speeds is None:
            # made at the first step, after the solve's initial state: made
            # before it, the same arrays left the heap laid out so that a
            # convection_ksweep benchmark run peaked 3 MB higher
            left = (np.arange(len(states)) <= self.interface_index)[:, None]
            self.speeds = np.where(left, self.lam_minus, self.lam_plus)
            self.flux = self.workspace.buffer("flux", states.shape)
            self.state = self.workspace.buffer("state", states.shape)
        # g[j] is the flux through the right edge of cell j: the upwind cell's
        # state times the speed on that cell's side of the jump.  Keep the
        # grouping (u_j - g_j) + g_{j-1}: the bitwise reduction identities
        # between solver paths (acceptance criterion 10) rely on it
        g = np.multiply(states, self.speeds, out=self.flux)
        # from the second step of a solve on, `field` is the state buffer: the
        # update runs in place, which is safe because g holds every flux already
        out = np.subtract(field, g, out=self.state)
        out[1:] += g[:-1]
        return out


_FLOAT = np.dtype(float)


def _speed_shape(lam) -> tuple:
    # np.shape costs more than the rest of the check; a solve's speeds are ndarrays
    return lam.shape if type(lam) is np.ndarray else np.shape(lam)


def _checked_field(field, lam_minus, lam_plus) -> np.ndarray:
    """`field` as floats, if it is (cells, nodes) with one speed per node on each side."""
    # a float64 ndarray, what every solve passes, skips the conversion
    if type(field) is not np.ndarray or field.dtype is not _FLOAT:
        field = np.asarray(field, dtype=float)
    nodes = field.shape[1:]
    if field.ndim != 2 or not _speed_shape(lam_minus) == _speed_shape(lam_plus) == nodes:
        raise ValueError("field shape does not match the per-node speeds")
    return field


def step_first_order(
    field: np.ndarray,
    lam_minus: np.ndarray,
    lam_plus: np.ndarray,
    interface_index: int,
    work: _Upwind | None = None,
) -> np.ndarray:
    """One step of the immersed upwind scheme on (cells, nodes) samples of z.

    lam_* hold the per-node speeds (dt/dx)*c(x, z_q), shape (nodes,).  The
    update is a flux difference, u_j - g_j + g_{j-1}, where the flux through the
    right edge of cell j is g_j = lam u_j with lam = lam- for cells left of the
    jump (j <= interface_index) and lam+ to its right.  The flux through the
    jump is the left cell's, so the update conserves mass.  Inflow ghosts are
    zero (compact support).

    `work` is the solve's upwind update, which `_nodal_step` builds once on
    the solve's workspace.  The new state is that workspace's "state" buffer,
    which may be `field` itself.  Without `work` the step runs on a throwaway
    workspace and returns a new array.
    """
    field = _checked_field(field, lam_minus, lam_plus)
    if work is None:
        work = _Upwind(lam_minus, lam_plus, interface_index)
    return work(field, field)


def step_second_order_nodal(
    field: np.ndarray,
    lam_minus: np.ndarray,
    lam_plus: np.ndarray,
    dx: float,
    interface_index: int,
    kind: str = "arctan",
    work: _Upwind | None = None,
) -> np.ndarray:
    """Second-order nodal step: the upwind update applied to edge states.

    Shapes, `work`, buffers and result are as for `step_first_order`.
    """
    field = _checked_field(field, lam_minus, lam_plus)
    if work is None:
        work = _Upwind(lam_minus, lam_plus, interface_index)
    offsets = limited_slopes(field, dx, interface_index, kind, work.workspace)
    offsets *= dx / 2.0
    # ROADMAP item 1 rewrites this edge state; its step (d) shares one helper with Liouville
    edges = np.add(field, offsets, out=work.workspace.buffer("edges", field.shape))
    return work(field, edges)


def _nodal_step(coef, grid, nodes, order, kind, work) -> Callable[[np.ndarray], np.ndarray]:
    """The scheme of `order` as a step of (cells, nodes) samples, speeds (dt/dx)*c(x, z_q).

    The order-2 SG step is this step at the rule's nodes followed by a filter
    to degree k (project, then evaluate), so the limiter acts per node.  Each
    step returns `work`'s "state" buffer.  The upwind update is made here,
    once per solve, and each step still calls the public step function.
    """
    lam_m, lam_p = grid.ratio * coef.left(nodes), grid.ratio * coef.right(nodes)
    i = grid.interface_index
    upwind = _Upwind(lam_m, lam_p, i, work)
    if order == 1:
        return lambda w: step_first_order(w, lam_m, lam_p, i, upwind)
    return lambda w: step_second_order_nodal(w, lam_m, lam_p, grid.dx, i, kind, upwind)


def _cos_bump(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= -1.0) & (x <= 3.0), np.cos(0.25 * np.pi * x), 0.0)


def _gaussian(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-(((x - 1.0) / 0.5) ** 2))


@dataclass(frozen=True)
class InitialProfile:
    """Initial datum u0 with its support interval when it stops being smooth."""

    func: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None


PROFILES = {
    "cos_bump": InitialProfile(_cos_bump, (-1.0, 3.0)),
    "gaussian": InitialProfile(_gaussian, None),
}


def scheme_problems(order, profile, kind, z_nodes=(), coef=None, grid=None) -> list:
    """Problems with a convection solve's scheme settings.

    With `coef` and `grid` given, the CFL rule (dt/dx)*c(x, z) <= 1 is checked;
    c is linear in z, so z = +-1 suffice.
    """
    problems = kind_problems(kind)
    if order not in (1, 2):
        problems.append(("order", "order must be 1 or 2"))
    if profile not in PROFILES:
        problems.append(("profile", "unknown initial profile %r" % (profile,)))
    if not np.all(np.abs(z_nodes) <= 1.0):
        problems.append(("z", "samples must lie in [-1, 1]"))
    if coef is not None and grid is not None:
        for label, side in (("left", coef.left), ("right", coef.right)):
            worst = max(grid.ratio * side(-1.0), grid.ratio * side(1.0))
            if worst > 1.0:
                message = "CFL violated on the %s side: (dt/dx)*c reaches %.6g > 1" % (label, worst)
                problems.append((None, message))
    return problems


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
        crossed = self.coef.jump_factor(z)
        upper = u0(x - cp * t)
        middle = crossed * u0(crossed * (x - cp * t))
        lower = u0(x - cm * t)
        return np.where(x > cp * t, upper, np.where(x > 0.0, middle, lower))

    def _z_breakpoints(self, x: float, t: float) -> np.ndarray:
        """Points in z where the solution at (x, t) loses smoothness; t and sigma nonzero."""
        coef = self.coef
        sigma = coef.sigma
        st = sigma * t
        pts = [(x / t - coef.c_plus) / sigma]
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


class ConvectionRun(NamedTuple):
    """Final chaos coefficients plus run diagnostics."""

    coeffs: np.ndarray
    diagnostics: dict


def _set_up_solve(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    t_final: float,
    order: int,
    profile: str,
    kind: str,
    z_nodes=(),
    problems=(),
) -> tuple[int, np.ndarray]:
    """Validate a solve with the caller's `problems`; return steps and initial values.

    Problems are listed in config's order: step count, the caller's, the scheme's.
    """
    steps, found = time_steps(t_final, grid.dt)
    found += problems
    found += scheme_problems(order, profile, kind, z_nodes, coef, grid)
    reject(found)
    return steps, PROFILES[profile].func(grid.centers)


def run_convection(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    k: int,
    t_final: float,
    order: int = 1,
    profile: str = "cos_bump",
    quad_count: int | None = None,
    kind: str = "arctan",
) -> ConvectionRun:
    """March the gPC-SG scheme to t_final; coefficients shape (cells, k + 1).

    Samples at Gauss nodes are marched and projected once: order 1, linear in z,
    is SG exactly on k + 1 nodes whatever `quad_count`; order 2 filters to degree k.
    """
    steps, values = _set_up_solve(
        coef, grid, t_final, order, profile, kind, problems=chaos_problems(k, quad_count)
    )
    space = ChaosSpace.build(k, k + 1 if order == 1 else quad_count)
    work = Workspace()
    step = _nodal_step(coef, grid, space.rule.nodes, order, kind, work)
    if order == 2:
        nodal, coeffs = step, work.buffer("coeffs", (grid.cells, len(space.table)))

        def step(w):
            # the degree-k filter of the nodal step's samples is written over them
            samples = nodal(w)
            return np.matmul(project(samples, space, out=coeffs), space.table, out=samples)

    # each cell's Gauss-weighted sum, a gemv into one vector kept for the solve
    weights, dx, cell_masses = space.rule.weights, grid.dx, np.empty(grid.cells)
    mass = lambda w: float(np.matmul(w, weights, out=cell_masses).sum() * dx)
    samples, diagnostics = march(
        np.repeat(values[:, None], space.count, axis=1), step, steps, mass, "cell %d, node %d"
    )
    return ConvectionRun(project(samples, space), diagnostics)


def convection_solve_nodal(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    z_nodes: np.ndarray,
    t_final: float,
    order: int = 1,
    profile: str = "cos_bump",
    kind: str = "arctan",
) -> tuple[np.ndarray, dict]:
    """March the deterministic scheme at fixed z samples; shape (cells, nodes)."""
    z_nodes = np.atleast_1d(np.asarray(z_nodes, dtype=float))
    steps, values = _set_up_solve(coef, grid, t_final, order, profile, kind, z_nodes)
    step = _nodal_step(coef, grid, z_nodes, order, kind, Workspace())
    # numpy's column sums run in one order; a BLAS `ones @ w` splits long
    # columns over its threads, and its last bits then follow the thread count
    mass = lambda w: w.sum(0) * grid.dx
    return march(
        np.repeat(values[:, None], z_nodes.size, axis=1), step, steps, mass, "cell %d, node %d"
    )


def convection_errors(
    coef: InterfaceCoefficient,
    grid: ConvectionGrid,
    profile: str,
    t_final: float,
    values: np.ndarray,
    rule: QuadratureRule | None = None,
    deterministic: bool = False,
) -> dict:
    """l1 errors of the moments and the mixed distance against the exact solution.

    `values` are the samples of a nodal run at `rule`, whose moments are their
    quadrature moments; with no rule they are chaos coefficients, whose moments
    are read off the modes and which are sampled through a space of
    `error_quadrature_size` nodes for the mixed distance.  A deterministic run,
    one sample of weight one, is compared with the exact solution at its z;
    every other run with the exact moments over z.
    """
    exact = AnalyticConvectionSolution(coef, PROFILES[profile])
    x = grid.centers
    if rule is None:
        moments = MomentField.from_coeffs(values)
        k = values.shape[-1] - 1
        space = ChaosSpace.build(k, error_quadrature_size(k))
        rule = space.rule
        values = values @ space.table
    else:
        moments = moments_from_samples(values, rule)
    exact_nodal = exact.value(x[:, None], t_final, rule.nodes[None, :])
    if deterministic:
        exact_moments = moments_from_samples(exact_nodal, rule)
    else:
        exact_moments = exact.moments(x, t_final)
    l1_e = l1_norm(moments.expectation - exact_moments.expectation, grid.dx)
    l1_v = l1_norm(moments.variance - exact_moments.variance, grid.dx)
    return {
        "l1_expectation": l1_e,
        "l1_variance": l1_v,
        "l1_total": l1_e + l1_v,
        "h_distance": nodal_h_norm(values - exact_nodal, grid.dx, rule),
    }
