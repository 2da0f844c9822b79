"""Smooth slope limiters built from bounded averaging maps.

The limited slope is B^{-1}((B(s_l) + B(s_r)) / 2) for a strictly increasing
odd map B with bounded range.  The result always lies between the two
one-sided slopes, reproduces a common value exactly, and is odd under a joint
sign flip.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BAP_KINDS", "bap_slope", "limited_slopes", "limiter_maps"]


def _sqrt_forward(x):
    return x / np.sqrt(1.0 + x * x)


def _sqrt_inverse(y):
    return y / np.sqrt(1.0 - y * y)


# tanh and the rational map round to exactly +-1 for arguments beyond ~19 and
# ~1e8, which would send their inverses to infinity; pull such averages back
# to the largest float strictly inside (-1, 1)
_UNIT_CAP = np.nextafter(1.0, 0.0)


def _capped(inverse):
    def apply(y):
        return inverse(np.clip(y, -_UNIT_CAP, _UNIT_CAP))

    return apply


_MAPS = {
    "arctan": (np.arctan, np.tan),
    "tanh": (np.tanh, _capped(np.arctanh)),
    "sqrt_rational": (_sqrt_forward, _capped(_sqrt_inverse)),
}

BAP_KINDS = tuple(_MAPS)


def limiter_maps(kind: str):
    """Forward/inverse map pair for a limiter kind; ValueError when unknown."""
    try:
        return _MAPS[kind]
    except KeyError:
        raise ValueError(f"unknown limiter map {kind!r}; choose from {BAP_KINDS}") from None


def bap_slope(s_l, s_r, kind: str = "arctan"):
    """Limited slope from the two one-sided differences (scalar or array)."""
    forward, inverse = limiter_maps(kind)
    s_l = np.asarray(s_l, dtype=float)
    s_r = np.asarray(s_r, dtype=float)
    if not (np.all(np.isfinite(s_l)) and np.all(np.isfinite(s_r))):
        raise ValueError("slopes must be finite")
    out = inverse(0.5 * (forward(s_l) + forward(s_r)))
    if out.ndim == 0:
        return float(out)
    return out


def limited_slopes(u: np.ndarray, dx: float, interface_index: int, kind: str) -> np.ndarray:
    """Limited slopes along axis 0 of cell values u.

    Cells `interface_index` and `interface_index + 1` sit on either side of
    the jump and take the one-sided difference that does not cross it; the
    boundary cells are flat.
    """
    s_l = np.zeros_like(u)
    s_r = np.zeros_like(u)
    s_l[1:] = (u[1:] - u[:-1]) / dx
    s_r[:-1] = s_l[1:]
    slopes = bap_slope(s_l, s_r, kind=kind)
    i = interface_index
    slopes[i] = s_l[i]
    slopes[i + 1] = s_r[i + 1]
    slopes[0] = 0.0
    slopes[-1] = 0.0
    return slopes
