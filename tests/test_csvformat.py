"""The CSV number writer: exactly the bytes of "%.17g", and streamed in bounded memory."""

import math
import tracemalloc

import numpy as np
import pytest

from stochhyp.cli import _write_fields
from stochhyp.csvformat import _decimal, format_rows
from stochhyp.metrics import MomentField

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    st = None


def per_value(rows) -> bytes:
    # the reference: Python's "%.17g" on one value at a time
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist()).encode()


def assert_exact(values, cols=4):
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.zeros(-values.size % cols)]).reshape(-1, cols)
    text = format_rows(values)
    expected = per_value(values)
    if text != expected:
        bad = [(a, b) for a, b in zip(text.split(b"\n"), expected.split(b"\n")) if a != b]
        pytest.fail("first mismatches (kernel, %%.17g): %r" % bad[:3])


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_arbitrary_floats_match_percent_17g():
    # the full range: subnormals, +-0, nan and +-inf included
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=64), st.integers(1, 5))
    def check(values, cols):
        assert_exact(values, cols)

    check()


def test_random_bit_patterns_match_percent_17g():
    bits = np.random.default_rng(30).integers(0, 2**64, size=200_000, dtype=np.uint64)
    assert_exact(bits.view(np.float64), cols=8)


def test_powers_of_ten_and_their_neighbours_match_percent_17g():
    powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
    below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
    assert_exact(np.concatenate([powers, below, above, -powers]))


def test_notation_switch_points_match_percent_17g():
    # %g turns to exponent notation below 1e-4 and from 1e17 on
    points = np.array([1e-5, 1e-4, 1e16, 1e17])
    points = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, np.inf)])
    assert_exact(np.concatenate([points, -points]))


def decimal_ties():
    """Doubles that lie exactly halfway between two 17-digit decimals."""
    ties = []
    for decade in range(-7, 16):
        # x = m / 2**e with m odd and e = 17 - decade: x * 10**(16 - decade) is
        # m * 5**(16 - decade) / 2, a half-integer, wherever x is in the decade
        e = 17 - decade
        scale = 10**-decade if decade < 0 else 1
        lo = -(-(10**max(decade, 0) << e) // scale)  # first m of the decade
        for m in (lo, lo + 2, 3 * lo, 9 * lo, 10 * lo - 3):
            m |= 1
            if m < 2**53 and m * scale < 10 ** (max(decade, 0) + 1) << e:
                ties.append(math.ldexp(m, -e))
    return np.array(ties)


def test_exact_decimal_ties_round_half_even():
    assert format_rows(np.array([[1e15 + 0.25, 1e15 + 0.75]])) == (
        b"1000000000000000.2,1000000000000000.8\n"
    )
    ties = decimal_ties()
    assert _decimal(ties)[2].all()
    assert_exact(np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))


def test_integral_values_print_without_a_point():
    # sweep.csv writes the chaos order k this way
    assert format_rows(np.array([[2.0, -0.0, 0.0, 1e16, 120.0]])) == (
        b"2,-0,0,10000000000000000,120\n"
    )
    integral = [np.arange(-1000.0, 1000.0), 2.0 ** np.arange(80), 7 * 10.0 ** np.arange(23)]
    assert_exact(np.concatenate(integral))


def test_ordinary_values_and_zeros_stay_on_the_array_path():
    # a run writes many exact zeros; Python's format is the exception path
    values = np.concatenate([np.random.default_rng(1).standard_normal(1000) * 1e-30, [0.0, -0.0]])
    assert not _decimal(values)[2].any()
    assert _decimal(np.array([np.nan, np.inf, 5e-324, 1e300, 1e15 + 0.25]))[2].all()


def test_writing_the_field_csvs_stays_below_the_field_size(tmp_path, capsys):
    values = np.random.default_rng(5).standard_normal((134, 134, 11))
    centers = np.linspace(-1.0, 1.0, 134)
    lead = {"x": np.repeat(centers, 134), "v": np.tile(centers, 134)}
    moments = MomentField.from_coeffs(values)
    header = ["c%d" % j for j in range(11)]
    tracemalloc.start()
    try:
        _write_fields(tmp_path, lead, moments, header, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes
    rows = (tmp_path / "coeffs.csv").read_bytes().split(b"\n")
    assert rows[0] == b"x,v," + ",".join(header).encode()
    # row 135 is cell (1, 1): x and v lead, then its 11 coefficients
    expected = per_value(np.concatenate([[centers[1], centers[1]], values[1, 1]])[None])
    assert rows[1 + 135] + b"\n" == expected
