"""Smooth slope limiters built from bounded averaging maps.

The limited slope is B^{-1}((B(s_l) + B(s_r)) / 2) for a strictly increasing
odd map B with bounded range.  The result always lies between the two
one-sided slopes, reproduces a common value exactly, and is odd under a joint
sign flip.
"""

from __future__ import annotations

import numpy as np

from .errors import reject
from .workspace import Workspace

__all__ = ["BAP_KINDS", "bap_slope", "kind_problems", "limited_slopes", "limiter_maps"]


def _sqrt_forward(x, out):
    # x / sqrt(1 + x*x)
    np.multiply(x, x, out=out)
    out += 1.0
    np.sqrt(out, out=out)
    return np.divide(x, out, out=out)


def _sqrt_inverse(y, out):
    # y / sqrt(1 - y*y)
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    np.sqrt(out, out=out)
    return np.divide(y, out, out=out)


# tanh and the rational map round to exactly +-1 for arguments beyond ~19 and
# ~1e8, which would send their inverses to infinity; pull such averages back
# to the largest float strictly inside (-1, 1)
_UNIT_CAP = np.nextafter(1.0, 0.0)


def _capped(inverse):
    def apply(y, out):
        np.clip(y, -_UNIT_CAP, _UNIT_CAP, out=y)
        return inverse(y, out)

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
    """Forward/inverse map pair for a limiter kind; ConfigurationError when unknown.

    Both are called as `map(values, out)`, write into `out` and return it; the
    inverse may overwrite `values`.
    """
    reject(kind_problems(kind))
    return _MAPS[kind]


def bap_slope(s_l, s_r, kind: str = "arctan"):
    """Limited slope from the two one-sided differences (scalar or array)."""
    forward, inverse = limiter_maps(kind)
    s_l = np.asarray(s_l, dtype=float)
    s_r = np.asarray(s_r, dtype=float)
    if not (np.all(np.isfinite(s_l)) and np.all(np.isfinite(s_r))):
        raise ValueError("slopes must be finite")
    mapped_l = forward(s_l, np.empty(s_l.shape))
    mean = np.asarray(0.5 * (mapped_l + forward(s_r, np.empty(s_r.shape))))
    out = inverse(mean, np.empty(mean.shape))
    if out.ndim == 0:
        return float(out)
    return out


def limited_slopes(
    u: np.ndarray, dx: float, interface_index: int, kind: str, work: Workspace | None = None
) -> np.ndarray:
    """Limited slopes along axis 0 of cell values u, written into `work`.

    Cells `interface_index` and `interface_index + 1` sit on either side of
    the jump and take the one-sided difference that does not cross it; the
    boundary cells are flat.  On a slab of a larger grid's rows, the index
    counts from the slab's first row, and an interface cell outside the
    slab is left alone; the slab's own first and last rows come out flat,
    so a caller needs their slopes from a slab in which they are interior.
    Unlike `bap_slope`, this does not scan for non-finite values: the march
    scans every state its step returns.

    `work` holds three buffers: the differences, over which the mapped
    means are written, in its "scratch"; the mapped differences, over which
    the slopes are written, in its "scratch_result"; and the two
    differences that the interface cells read.
    """
    work = Workspace() if work is None else work
    # d[j] is the difference across the right edge of cell j
    d = work.buffer("scratch", (u.shape[0] - 1,) + u.shape[1:])
    np.subtract(u[1:], u[:-1], out=d)
    d /= dx
    return _limited_slopes(d, interface_index, kind, work)


def _limited_slopes(
    d: np.ndarray, interface_index: int, kind: str, work: Workspace, out: np.ndarray | None = None
) -> np.ndarray:
    """`limited_slopes` from the differences over dx, d[j] across the right edge of cell j.

    d, in `work`'s "scratch", is overwritten; the slopes of the len(d) + 1
    cells come in `out`, by default its "scratch_result".  The map pair of
    `kind` is looked up once per workspace.
    """
    forward, inverse = work.derived(("limiter_maps", kind), lambda: limiter_maps(kind))
    # interior cell j averages d[j - 1] and d[j], and the end cells are flat
    cells = len(d) + 1
    # the interface cells, when inside the slab, keep the differences on their side
    i = interface_index
    left, right = 1 <= i < cells - 1, 1 <= i + 1 < cells - 1
    saved = work.buffer("limiter_interface", (2,) + d.shape[1:])
    if left:
        saved[0] = d[i - 1]
    if right:
        saved[1] = d[i + 1]
    slopes = work.buffer("scratch_result", (cells,) + d.shape[1:]) if out is None else out
    mapped = forward(d, slopes[:-1])
    # the differences are spent: their mapped means take their place, and
    # the slopes then take the place of the mapped differences
    mean = np.add(mapped[:-1], mapped[1:], out=d[:-1])
    mean *= 0.5
    inverse(mean, slopes[1:-1])
    slopes[0] = 0.0
    slopes[-1] = 0.0
    if left:
        slopes[i] = saved[0]
    if right:
        slopes[i + 1] = saved[1]
    return slopes
