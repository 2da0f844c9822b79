"""The field comparison that tools/ab_solves.py prints."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_solves.py"
spec = importlib.util.spec_from_file_location("ab_solves", TOOL)
ab_solves = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_solves)


@pytest.mark.parametrize(
    "old, new, expected",
    [
        (np.zeros((3, 2)), np.zeros((3, 2)), 0.0),
        (np.array([2.0, -4.0]), np.array([2.0, -4.0]), 0.0),
        (np.array([2.0, -4.0]), np.array([2.0, -3.0]), 0.25),
        (np.zeros(2), np.array([0.0, 1e-300]), np.inf),
    ],
    ids=["equal_zero_fields", "equal_fields", "scaled_by_old", "off_an_all_zero_old"],
)
def test_largest_field_difference(old, new, expected):
    assert ab_solves.field_difference(old, new) == expected
