"""Convergence studies: chaos-order refinement and mesh refinement.

Sweep points are independent solves, so they may be dispatched to a thread
pool; results are always collected in input order to keep output files
deterministic regardless of scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import reject
from .gpc import ChaosSpace
from .metrics import MomentField, error_quadrature_size, h_norm, l1_norm

__all__ = [
    "GpcSweepRow",
    "MeshSweepRow",
    "gpc_error_sweep",
    "mesh_error_sweep",
    "thread_problems",
]


@dataclass(frozen=True)
class GpcSweepRow:
    """Errors of one chaos order against the high-order reference."""

    k: int
    l1_expectation: float
    l1_variance: float
    l1_coeff: float
    h_distance: float


@dataclass(frozen=True)
class MeshSweepRow:
    """Errors of one mesh width against the analytic solution."""

    dx: float
    dt: float
    l1_expectation: float
    l1_variance: float
    l1_total: float
    h_distance: float


def thread_problems(threads: int) -> list[tuple[str, str]]:
    """The rule on the sweep worker count."""
    return [("threads", "threads must be >= 1")] if threads < 1 else []


def _map_ordered(func, items, threads: int):
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(func, items))
    return [func(item) for item in items]


def gpc_error_sweep(
    solve,
    k_list,
    k_ref: int,
    cell_measure: float,
    threads: int = 1,
) -> list[GpcSweepRow]:
    """Error of solve(k) against solve(k_ref) for each k in k_list.

    `solve` returns a coefficient array with modes on the last axis; any
    leading cell layout works.  Lower-order fields are zero-padded to the
    reference mode count, and errors are reported on the expectation, the
    variance, the padded coefficients, and the mixed norm.
    """
    k_list = [int(k) for k in k_list]
    problems = thread_problems(threads)
    if not k_list:
        problems.append((None, "the chaos-order list must not be empty"))
    elif min(k_list) < 0:
        problems.append((None, "chaos orders must be >= 0"))
    elif k_ref < max(k_list):
        problems.append((None, "the reference order must be >= every swept order"))
    reject(problems)

    reference = np.asarray(solve(k_ref), dtype=float)
    ref_moments = MomentField.from_coeffs(reference)
    space = ChaosSpace.build(k_ref, error_quadrature_size(k_ref))

    def one(k: int) -> GpcSweepRow:
        field = np.asarray(solve(k), dtype=float)
        padded = np.zeros_like(reference)
        padded[..., : k + 1] = field
        diff = padded - reference
        moments = MomentField.from_coeffs(field)
        return GpcSweepRow(
            k=k,
            l1_expectation=l1_norm(
                moments.expectation - ref_moments.expectation, cell_measure
            ),
            l1_variance=l1_norm(moments.variance - ref_moments.variance, cell_measure),
            l1_coeff=l1_norm(diff, cell_measure),
            h_distance=h_norm(diff, cell_measure, space),
        )

    return _map_ordered(one, k_list, threads)


def mesh_error_sweep(
    errors_at,
    dx_list,
    dt_ratio: float,
    threads: int = 1,
) -> list[MeshSweepRow]:
    """Errors of errors_at(dx, dt) on a family of meshes, dt = dt_ratio*dx.

    `errors_at` solves on one mesh and returns the errors.csv columns, named
    as MeshSweepRow's error fields.
    """
    dx_list = [float(dx) for dx in dx_list]
    problems = thread_problems(threads)
    if not dx_list:
        problems.append((None, "the mesh-width list must not be empty"))
    elif min(dx_list) <= 0.0:
        problems.append((None, "mesh widths must be positive"))
    if dt_ratio <= 0.0:
        problems.append((None, "the time-step ratio must be positive"))
    reject(problems)

    def one(dx: float) -> MeshSweepRow:
        dt = dt_ratio * dx
        return MeshSweepRow(dx, dt, **errors_at(dx, dt))

    return _map_ordered(one, dx_list, threads)
