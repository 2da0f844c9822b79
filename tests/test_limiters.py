"""Properties of the smooth averaging slope limiter."""

import numpy as np
import pytest

from stochhyp import BAP_KINDS, bap_slope, limiter_maps
from stochhyp.limiters import limited_slopes


def test_known_kinds():
    assert BAP_KINDS == ("arctan", "tanh", "sqrt_rational")


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        bap_slope(1.0, 0.0, kind="minmod")
    with pytest.raises(ValueError):
        limiter_maps("")


def test_arctan_half_angle_value():
    # B(1) = pi/4, B(0) = 0, so the slope is tan(pi/8) = sqrt(2) - 1
    got = bap_slope(1.0, 0.0, kind="arctan")
    assert got == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-15)
    assert got == pytest.approx(np.tan(np.pi / 8.0), abs=1e-15)


def test_equal_slopes_are_reproduced():
    values = np.linspace(-3.0, 3.0, 41)
    for kind in BAP_KINDS:
        np.testing.assert_allclose(bap_slope(values, values, kind=kind), values, atol=1e-12)


def test_opposite_slopes_cancel():
    values = np.linspace(0.1, 5.0, 17)
    for kind in BAP_KINDS:
        np.testing.assert_allclose(bap_slope(values, -values, kind=kind), 0.0, atol=1e-13)


def test_output_between_inputs():
    rng = np.random.default_rng(5)
    s_l = rng.uniform(-4.0, 4.0, size=2000)
    s_r = rng.uniform(-4.0, 4.0, size=2000)
    lo = np.minimum(s_l, s_r)
    hi = np.maximum(s_l, s_r)
    for kind in BAP_KINDS:
        out = bap_slope(s_l, s_r, kind=kind)
        assert np.all(out >= lo - 1e-12)
        assert np.all(out <= hi + 1e-12)


def test_odd_under_joint_sign_flip():
    rng = np.random.default_rng(9)
    s_l = rng.uniform(-3.0, 3.0, size=500)
    s_r = rng.uniform(-3.0, 3.0, size=500)
    for kind in BAP_KINDS:
        flipped = bap_slope(-s_l, -s_r, kind=kind)
        np.testing.assert_allclose(flipped, -bap_slope(s_l, s_r, kind=kind), atol=1e-12)


def test_symmetric_in_arguments():
    rng = np.random.default_rng(13)
    s_l = rng.uniform(-2.0, 2.0, size=200)
    s_r = rng.uniform(-2.0, 2.0, size=200)
    for kind in BAP_KINDS:
        np.testing.assert_array_equal(
            bap_slope(s_l, s_r, kind=kind), bap_slope(s_r, s_l, kind=kind)
        )


def test_smooth_near_sign_change():
    # unlike minmod, the limited slope varies smoothly through s_r = 0
    eps = 1e-6
    left = bap_slope(1.0, -eps)
    right = bap_slope(1.0, eps)
    assert abs(right - left) < 1e-5
    assert left != 0.0 or right != 0.0


def test_scalar_inputs_give_floats():
    out = bap_slope(0.3, 0.7)
    assert isinstance(out, float)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        bap_slope(np.nan, 1.0)
    with pytest.raises(ValueError):
        bap_slope(1.0, np.inf)


@pytest.mark.parametrize("kind", BAP_KINDS)
@pytest.mark.parametrize(
    "i",
    [0, 1, 4, 9, 10],
    ids=["first_edge", "next_to_first_cell", "inner_edge", "next_to_last_cell", "last_edge"],
)
def test_limited_slopes_cell_by_cell(kind, i):
    # 12 cells; the jump sits on the edge between cells i and i + 1.  At i = 1
    # and i = 9 both interface cells are interior, and one of them borders a
    # flat end cell
    rng = np.random.default_rng(17)
    dx = 0.1
    u = rng.standard_normal((12, 3))
    d = np.diff(u, axis=0) / dx  # d[j]: the difference across the edge right of cell j
    expected = np.array([bap_slope(d[j - 1], d[j], kind) for j in range(1, 11)])
    expected = np.concatenate([np.zeros((1, 3)), expected, np.zeros((1, 3))])
    # the interface cells take the one-sided difference that stays on their side
    if i > 0:
        expected[i] = d[i - 1]
    if i + 1 < 11:
        expected[i + 1] = d[i + 1]
    slopes = limited_slopes(u, dx, i, kind)
    np.testing.assert_allclose(slopes, expected, rtol=1e-14, atol=0.0)
    assert np.all(slopes[[0, -1]] == 0.0)
    if i in (1, 9):
        # the interface cells copy their saved one-sided differences
        np.testing.assert_array_equal(slopes[[i, i + 1]], expected[[i, i + 1]])


# cells 7 and 8 of 16 sit on either side of the interface; a slab of rows
# [lo, hi) counts the interface from its own first row, so the index can
# fall before it, past it, or on its first or last row
@pytest.mark.parametrize(
    "lo, hi",
    [(0, 6), (10, 16), (3, 8), (8, 13), (5, 11)],
    ids=["left_of_it", "right_of_it", "left_cell_only", "right_cell_only", "both_cells"],
)
def test_limited_slopes_on_a_slab_match_the_whole_grid(lo, hi):
    rng = np.random.default_rng(23)
    dx = 0.1
    u = rng.standard_normal((16, 3))
    whole = limited_slopes(u, dx, 7, "arctan").copy()
    slab = limited_slopes(u[lo:hi], dx, 7 - lo, "arctan")
    # the slab's first and last rows are its halo, unless they end the grid
    first = 0 if lo == 0 else 1
    last = len(slab) if hi == 16 else len(slab) - 1
    np.testing.assert_array_equal(slab[first:last], whole[lo + first : lo + last])
