"""The explicit time-march loop shared by every solver.

Each solver supplies its initial state, a one-step update and the mass it
conserves (per node for samples, Gauss-weighted for SG samples, mode 0 for
chaos coefficients).  The loop owns the bookkeeping around the steps:
the mass drift, the non-finite scan that a non-finite mass triggers, the
optional value range and the timer.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from .errors import DivergenceError

__all__ = ["march", "time_steps"]


def time_steps(t_final: float, dt: float) -> tuple[int, list[tuple[str, str]]]:
    """Steps of size dt that reach t_final >= 0, and the problems if they do not."""
    if not np.isfinite(t_final):
        return 0, [("t_final", "final time must be finite")]
    problems = []
    if t_final < 0.0:
        problems.append(("t_final", "final time must be >= 0"))
    steps = int(round(t_final / dt))
    if abs(steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        problems.append(("dt", "final time must be an integer number of time steps"))
    return steps, problems


def march(
    state: np.ndarray,
    step: Callable[[np.ndarray], np.ndarray],
    steps: int,
    mass: Callable[[np.ndarray], float | np.ndarray],
    where: str,
    track_range: bool = False,
) -> tuple[np.ndarray, dict]:
    """Apply `step` `steps` times to `state`; return the final state and diagnostics.

    `where` formats the index of the first non-finite entry, one `%d` per
    array axis, e.g. "cell %d, mode %d".  The march scans a state for such
    entries only when its mass is non-finite, so `mass` must be non-finite
    on every state with a non-finite entry: a sum with positive weights over
    the whole state is, and a mass that reads only part of it must scan the
    rest itself.  A finite state whose mass overflows is scanned and marched
    on.  A scalar mass (every SG solve) is bookkept in Python floats and a
    per-node mass in numpy arrays; either way a NaN drift stays NaN.  The
    diagnostics carry `steps`, `mass_initial`, `mass_drift_abs_max`,
    `mass_drift_rel_max` and `wall_time`, plus `min_value`/`max_value` when
    `track_range` is set.
    The march keeps only the latest state, and `step` may write the next one
    into a buffer of its own: a Liouville step alternates between the two
    state buffers of its solve's workspace, and a convection step updates
    its workspace's one state buffer in place, so no state is allocated
    after the first step.  Build `state` in the call, so that no caller
    variable keeps the initial state alive once the first step has replaced
    it.
    """
    mass0 = mass(state)
    if isinstance(mass0, float):
        # numpy's scalar ufuncs cost microseconds a step; the comparison takes
        # a NaN gap and then keeps it, as np.maximum does
        drift = 0.0
        finite = math.isfinite

        def widened(drift, mass_n):
            gap = abs(mass_n - mass0)
            return gap if gap > drift or gap != gap else drift

    else:
        drift = np.zeros_like(mass0)
        finite = lambda mass_n: np.isfinite(mass_n).all()
        widened = lambda drift, mass_n: np.maximum(drift, np.abs(mass_n - mass0))
    if track_range:
        lo = float(state.min())
        hi = float(state.max())
    started = time.perf_counter()
    for n in range(steps):
        state = step(state)
        mass_n = mass(state)
        if not finite(mass_n):
            bad = np.argwhere(~np.isfinite(state))
            if len(bad):
                raise DivergenceError(
                    "non-finite value detected", step=n + 1, where=where % tuple(bad[0])
                )
        drift = widened(drift, mass_n)
        if track_range:
            lo = min(lo, float(state.min()))
            hi = max(hi, float(state.max()))
    diagnostics = {
        "steps": steps,
        "mass_initial": mass0,
        "mass_drift_abs_max": drift,
        "mass_drift_rel_max": drift / np.where(mass0 == 0.0, 1.0, np.abs(mass0)),
        "wall_time": time.perf_counter() - started,
    }
    if track_range:
        diagnostics["min_value"] = lo
        diagnostics["max_value"] = hi
    return state, diagnostics
