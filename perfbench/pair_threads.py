"""One-off paired measurement of the sweep thread pool on convection_ksweep.

Runs the benchmark's `convection_ksweep` workload with the config's
`threads = 1` and `threads = nproc`, alternating which side goes first, and
prints every run and the median of each side.  It is evidence for the
question whether the pool earns its keep, not a workload of the benchmark.

    python3 perfbench/pair_threads.py --pairs 5 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def wall_s(threads: int, seed: int, seconds: float) -> tuple[float, bool]:
    """Median sweep time of one benchmark run, and whether it passed its checks."""
    argv = [
        sys.executable, str(RUN), "--workload", "convection_ksweep", "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--sweep-threads", str(threads),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"]["wall_s"]["value"], result["correct"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    nproc = len(os.sched_getaffinity(0))
    if nproc < 2:
        parser.error("needs at least two processors")
    sides: dict[int, list[float]] = {1: [], nproc: []}
    # only wall_s compares: with a pool, the step stamps of concurrent solves
    # interleave and the per-step figures mean nothing
    print("pair seed threads wall_s correct")
    for pair in range(args.pairs):
        seed = pair + 1
        for threads in (1, nproc) if pair % 2 == 0 else (nproc, 1):
            wall, correct = wall_s(threads, seed, args.seconds)
            sides[threads].append(wall)
            print("%4d %4d %7d %.4f %s" % (pair, seed, threads, wall, correct))
    for threads, walls in sides.items():
        print("threads %d: median wall_s %.4f over %d runs" % (threads, statistics.median(walls), len(walls)))
    ratios = ", ".join("%.3f" % (a / b) for a, b in zip(sides[1], sides[nproc]))
    print("per-pair wall_s ratio threads 1 / threads %d: %s" % (nproc, ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
