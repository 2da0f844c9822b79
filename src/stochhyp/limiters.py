"""Smooth slope limiters built from bounded averaging maps.

The limited slope is B^{-1}((B(s_l) + B(s_r)) / 2) for a strictly increasing
odd map B with bounded range.  The result always lies between the two
one-sided slopes, reproduces a common value exactly, and is odd under a joint
sign flip.
"""

from __future__ import annotations

import numpy as np

from .errors import reject

__all__ = ["BAP_KINDS", "bap_slope", "kind_problems", "limited_slopes", "limiter_maps"]


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


def kind_problems(kind: str) -> list[tuple[str, str]]:
    """The limiter rule: kind must name one of BAP_KINDS."""
    if kind in _MAPS:
        return []
    return [("limiter", "unknown limiter map %r; choose from %s" % (kind, BAP_KINDS))]


def limiter_maps(kind: str):
    """Forward/inverse map pair for a limiter kind; ConfigurationError when unknown."""
    reject(kind_problems(kind))
    return _MAPS[kind]


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
    boundary cells are flat.  Unlike `bap_slope`, this does not scan for
    non-finite values: the march scans every state its step returns.
    """
    forward, inverse = limiter_maps(kind)
    # s[j] is the difference across the left edge of cell j; the outer edges
    # are flat, so cell j averages s[j] and s[j + 1]
    s = np.zeros((u.shape[0] + 1,) + u.shape[1:])
    s[1:-1] = (u[1:] - u[:-1]) / dx
    mapped = forward(s)
    slopes = inverse(0.5 * (mapped[:-1] + mapped[1:]))
    i = interface_index
    slopes[i] = s[i]
    slopes[i + 1] = s[i + 2]
    slopes[0] = 0.0
    slopes[-1] = 0.0
    return slopes
