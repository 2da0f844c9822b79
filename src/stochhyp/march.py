"""The explicit time-march loop shared by every solver.

Each solver supplies its initial state, a one-step update and the mass
reduction it conserves (the mode-0 sum for chaos coefficients, one sum per
node for nodal samples).  The driver owns the bookkeeping around the steps:
the non-finite scan, the mass drift, the optional value range and the timer.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .errors import DivergenceError

__all__ = ["march"]


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
    array axis, e.g. "cell %d, mode %d".  The diagnostics carry `steps`,
    `mass_initial`, `mass_drift_abs_max`, `mass_drift_rel_max` and
    `wall_time`, plus `min_value`/`max_value` when `track_range` is set.
    Build `state` in the call, so that no caller variable keeps the initial
    state alive and the march holds one state at a time.
    """
    mass0 = mass(state)
    drift = np.zeros_like(mass0)
    if track_range:
        lo = float(state.min())
        hi = float(state.max())
    started = time.perf_counter()
    for n in range(steps):
        state = step(state)
        if not np.all(np.isfinite(state)):
            bad = np.argwhere(~np.isfinite(state))[0]
            raise DivergenceError(
                "non-finite value detected", step=n + 1, where=where % tuple(bad)
            )
        drift = np.maximum(drift, np.abs(mass(state) - mass0))
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
