"""Time one preset's solve in two checkouts, alternating in one process.

Usage (from the repository root):

    python3 tools/ab_solves.py OLD NEW [--preset NAME] [--rounds N]

OLD and NEW are checkouts, or `git archive` extractions, of this
repository.  Each one's `src/stochhyp` is copied into a temporary directory
under a package name of its own, `ab_old` and `ab_new`; the package imports
itself only by relative imports, so both copies load side by side.  After
one untimed solve each, every round solves the preset (default
`example2_order1`; it must be a `gpc_sg` one) once with each side, and the
side that goes first alternates from round to round.  The output is each
side's median solve time, the median over the rounds of new/old, the
rounds in which new was faster, and the largest difference between the
two sides' fields over old's largest value.

Both sides run in one process, on one allocator, with the host in the same
state during a round, so a change of the host's speed, which moves separate
benchmark runs of two checkouts by several per cent, hits both sides of a
round alike.  Only the solve is timed: no output files are written.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("old", "new")


def load(checkout: Path, name: str, into: Path):
    """The `stochhyp` package of `checkout`, imported as `name` from a copy in `into`.

    Its command line module is imported too, and with it every module a solve uses.
    """
    shutil.copytree(checkout / "src" / "stochhyp", into / name)
    importlib.import_module(name + ".cli")
    return importlib.import_module(name)


def solver(pkg, preset: str):
    """A call that runs the preset's stochastic Galerkin solve in `pkg` and returns its field."""
    config = pkg.config.parse_config("preset = %s\n" % preset)
    if config.mode != "gpc_sg":
        raise SystemExit("preset %s is not a gpc_sg one" % preset)
    problem = pkg.cli._problem(config)
    return lambda: problem.chaos(config.k, config.m)[0]


def field_difference(old: np.ndarray, new: np.ndarray) -> float:
    """The largest |new - old| over the largest |old|: 0 for equal fields, inf past an all-zero old."""
    gap = float(np.abs(new - old).max())
    scale = float(np.abs(old).max())
    if scale:
        return gap / scale
    return np.inf if gap else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout whose solve is the base")
    parser.add_argument("new", type=Path, help="checkout compared with it")
    parser.add_argument("--preset", default="example2_order1")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            solves = {
                side: solver(load(checkout, "ab_" + side, Path(tmp)), args.preset)
                for side, checkout in zip(SIDES, (args.old, args.new))
            }
        finally:
            sys.path.remove(tmp)
    fields = {side: solve() for side, solve in solves.items()}
    times = {side: [] for side in SIDES}
    for r in range(args.rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            start = time.perf_counter()
            solves[side]()
            times[side].append(time.perf_counter() - start)

    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    won = sum(new < old for old, new in zip(times["old"], times["new"]))
    diff = field_difference(fields["old"], fields["new"])
    print("preset %s, %d rounds" % (args.preset, args.rounds))
    for side in SIDES:
        print("%s median: %.4f s" % (side, statistics.median(times[side])))
    print("median ratio new/old: %.4f" % statistics.median(ratios))
    print("rounds new faster: %d of %d" % (won, args.rounds))
    print("largest field difference / largest |old|: %.3g" % diff)
    return 0


if __name__ == "__main__":
    sys.exit(main())
