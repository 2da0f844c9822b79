"""Compare two output snapshots number by number, for changes that move outputs at roundoff.

Usage (from the repository root):

    python3 tools/compare_snapshots.py OLD NEW

OLD and NEW are directories written by `tools/snapshot_outputs.py`.  Where
`diff -r` asks for byte identity, this asks for:

- the same set of files, and the same `exit_codes.txt`;
- in each `run.txt`, the same keys in the same order and equal non-numeric
  values, each `mass_drift_*` value within 1e-13 absolute and every other
  number within 1e-12 relative;
- in each CSV, the same header and shape, and a largest |new - old| of at
  most 1e-13 times the file's largest |old| (1e-11 for the `*_loglog.csv`
  files of the sweeps, whose logarithms amplify roundoff);
- every other file byte for byte.

Each difference is printed with its measure and tolerance: the ratio above
for a CSV, the absolute or relative change for a `run.txt` value, and `inf`
for a difference in kind.  The exit code is 1 when any measure exceeds its
tolerance, else 0.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

MASS_DRIFT_ATOL = 1e-13
RUN_RTOL = 1e-12
CSV_RTOL = 1e-13
LOGLOG_RTOL = 1e-11


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _run_txt(old: Path, new: Path) -> list[tuple[str, float, float]]:
    """(key, measure, tolerance) of each `run.txt` entry that differs."""
    a, b = (dict(line.split(" = ", 1) for line in p.read_text().splitlines()) for p in (old, new))
    if list(a) != list(b):
        return [("keys", np.inf, 0.0)]
    found = []
    for key in a:
        if a[key] == b[key]:
            continue
        x, y = _number(a[key]), _number(b[key])
        if x is None or y is None:
            found.append((key, np.inf, 0.0))
        elif key.startswith("mass_drift_"):
            found.append((key, abs(y - x), MASS_DRIFT_ATOL))
        else:
            found.append((key, abs(y - x) / abs(x) if x else np.inf, RUN_RTOL))
    return found


def _csv_ratio(old: Path, new: Path) -> float:
    """Largest |new - old| over the largest |old|; inf when header or shape differ."""
    a, b = (list(csv.reader(p.read_text().splitlines())) for p in (old, new))
    if a[:1] != b[:1] or [len(r) for r in a] != [len(r) for r in b]:
        return np.inf
    x, y = (np.array(rows[1:], dtype=float) for rows in (a, b))
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    diff = np.nan_to_num(np.where(same, 0.0, np.abs(y - x)), nan=np.inf)
    worst = float(diff.max(initial=0.0))
    scale = float(np.abs(x[np.isfinite(x)]).max(initial=0.0))
    if worst == 0.0:
        return 0.0
    return worst / scale if scale else np.inf


def compare(old: Path, new: Path) -> list[tuple[str, float, float]]:
    """(label, measure, tolerance) of every difference between two snapshots."""
    names = _files(old)
    if names != _files(new):
        return [("file set: " + " ".join(sorted(names ^ _files(new))), np.inf, 0.0)]
    found = []
    for name in sorted(names):
        a, b = old / name, new / name
        if name.endswith(".csv"):
            ratio = _csv_ratio(a, b)
            if ratio:
                found.append((name, ratio, LOGLOG_RTOL if name.endswith("_loglog.csv") else CSV_RTOL))
        elif a.name == "run.txt":
            found += [("%s %s" % (name, key), m, tol) for key, m, tol in _run_txt(a, b)]
        elif a.read_bytes() != b.read_bytes():
            found.append((name, np.inf, 0.0))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="snapshot of the reference checkout")
    parser.add_argument("new", type=Path, help="snapshot of the changed checkout")
    args = parser.parse_args(argv)
    found = compare(args.old, args.new)
    for label, measure, tol in found:
        verdict = "ok" if measure <= tol else "FAIL"
        print("%-60s %9.2g  tol %.0e  %s" % (label, measure, tol, verdict))
    failed = sum(measure > tol for _, measure, tol in found)
    print("%d difference(s), %d past tolerance" % (len(found), failed))
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
