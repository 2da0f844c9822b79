"""The numeric snapshot comparison in tools/compare_snapshots.py."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_snapshots.py"
spec = importlib.util.spec_from_file_location("compare_snapshots", TOOL)
compare_snapshots = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_snapshots)

RUN = "problem = convection\nsteps = 100\nmass_drift_abs_max = 4e-16\nstatus = ok\n"
COEFFS = "x,c0,c1\n-0.5,1.0,0.25\n0.5,2.0,-0.125\n"


def snapshot(root, run=RUN, coeffs=COEFFS):
    (root / "example").mkdir(parents=True)
    (root / "example" / "run.txt").write_text(run)
    (root / "example" / "coeffs.csv").write_text(coeffs)
    (root / "exit_codes.txt").write_text("example 0\n")
    return root


@pytest.mark.parametrize(
    "run, coeffs, code",
    [
        (RUN, COEFFS, 0),
        # within 1e-13 of the largest |old| = 2, and a drift within 1e-13
        (RUN.replace("4e-16", "6e-16"), COEFFS.replace("0.25", "0.25000000000001"), 0),
        # 1e-12 past the file's scale of 2
        (RUN, COEFFS.replace("0.25", "0.250000000002"), 1),
        (RUN.replace("4e-16", "2e-13"), COEFFS, 1),
        (RUN.replace("status = ok", "status = diverged"), COEFFS, 1),
        (RUN, COEFFS.replace("c1", "c2"), 1),
    ],
    ids=["identical", "roundoff", "csv_past_rtol", "drift_past_atol", "status", "header"],
)
def test_compare_exits_one_past_a_tolerance(tmp_path, capsys, run, coeffs, code):
    old = snapshot(tmp_path / "old")
    new = snapshot(tmp_path / "new", run, coeffs)
    assert compare_snapshots.main([str(old), str(new)]) == code
    assert ("FAIL" in capsys.readouterr().out) == bool(code)


def test_compare_names_a_missing_file(tmp_path):
    old = snapshot(tmp_path / "old")
    new = snapshot(tmp_path / "new")
    (new / "example" / "coeffs.csv").unlink()
    [(label, measure, _)] = compare_snapshots.compare(old, new)
    assert label == "file set: example/coeffs.csv" and measure == float("inf")
