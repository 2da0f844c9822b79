"""stochhyp benchmark: end-to-end and per-layer timings of the stochhyp solvers.

Usage (from the repository root):

    python3 perfbench/run.py --workload liouville_sg1 --seed 0 --seconds 30 --trace 0

The program under test is imported from `src/` of the checkout this file sits
in and driven through its command-line entry point `stochhyp.cli.main`, in
this process, with a config file generated from the seed.  One run:

* `--trace 0`: set-up probes (program runs stopped at the first time step),
  then full program runs until `--seconds` of them are spent (at least one).
  Prints the end-to-end metrics.
* `--trace 1`: untraced and traced program runs in turn for `--seconds`
  (at least one of each).  Prints the per-layer split and the tracing
  overhead, and writes the spans to `.perfbench_out/`.

Every program run is checked against an independent reference (see
workloads.py).  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines before it are
the same numbers for people, with sample counts, verdicts and the run
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import MODULES, SetupDone, StepClock, Tracer
from workloads import WORKLOADS, Checker, config_text, sweep_points

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"

# set-up is milliseconds long, so it is sampled this many times before the
# program runs and again after each of them, so that the samples spread over
# the whole run and its changes in machine speed, and reported as a median
SETUP_PROBES = 10


@dataclass
class ProgramRun:
    exit_code: int
    wall: float
    setup: float | None
    finish: float | None
    steps: list[float]
    verdict: object = None
    output_bytes: int = 0
    peak_rss_mb: float = 0.0


@dataclass
class Series:
    runs: list[ProgramRun] = field(default_factory=list)

    @property
    def steps(self) -> list[float]:
        return [s for run in self.runs for s in run.steps]


def load_package():
    """Import stochhyp from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "stochhyp" / "__init__.py").is_file():
        print("benchmark: no stochhyp sources under %s" % src, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    package = importlib.import_module("stochhyp")
    if Path(package.__file__).resolve().parent != (src / "stochhyp").resolve():
        print("benchmark: stochhyp imported from %s" % package.__file__, file=sys.stderr)
        sys.exit(2)
    for name in MODULES:
        importlib.import_module("stochhyp." + name)
    return package


def environment(config_threads: int, stoch_threads_env) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "STOCH_HYP_THREADS": stoch_threads_env or "unset (removed for the run)",
        "config_threads": config_threads,
    }


class Bench:
    def __init__(self, package, name: str, seed: int, threads: int | None):
        self.pkg = package
        self.workload = WORKLOADS[name]
        self.work = OUT_ROOT / ("%s-s%d-p%d" % (name, seed, os.getpid()))
        self.out = self.work / "out"
        self.work.mkdir(parents=True, exist_ok=True)
        text = config_text(self.workload, seed, self.out, threads)
        cfg = self.work / "bench.cfg"
        cfg.write_text(text)
        command = self.workload.command
        self.argv = [command[0], str(cfg), *command[1:]]
        self.checker = Checker(package, self.workload, text)
        self.config_threads = self.checker.config.threads
        self.points = sweep_points() if command[0] == "sweep" else 1

    def _main(self) -> int:
        # the program's "wrote <file>" lines stay out of the benchmark's output
        with contextlib.redirect_stdout(io.StringIO()):
            return self.pkg.cli.main(self.argv)

    def setup_probe(self) -> float:
        clock = StepClock(self.pkg)
        clock.abort_at_first_step = True
        with clock:
            start = perf_counter()
            try:
                self._main()
            except SetupDone as done:
                return done.stamp - start
        raise RuntimeError("the program returned before its first time step")

    def program_run(self, tracer: Tracer | None = None) -> ProgramRun:
        """One program run; `tracer`, if given, is active during it only."""
        clock = StepClock(self.pkg)
        # the tracer goes first, so the clock stamps around the traced calls
        with tracer or contextlib.nullcontext(), clock:
            start = perf_counter()
            try:
                code = self._main()
            except Exception:
                traceback.print_exc()
                code = -1
            end = perf_counter()
        # before the check, whose reference solves and file reads are no
        # part of the program
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = clock.first_step()
        run = ProgramRun(
            exit_code=code,
            wall=end - start,
            setup=None if first is None else first - start,
            finish=None if clock.last_return is None else end - clock.last_return,
            steps=clock.step_intervals(),
            peak_rss_mb=peak,
        )
        try:
            run.verdict = self.checker.check(code, self.out, clock.results)
        except Exception:
            traceback.print_exc()
            run.verdict = None
        run.output_bytes = sum(p.stat().st_size for p in self.out.glob("*") if p.is_file())
        return run

    def series(
        self, seconds: float, tracer: Tracer | None = None, between=None
    ) -> tuple[Series, Series]:
        """Program runs until the next would overrun `seconds`; at least one.

        With a tracer, untraced and traced runs alternate, so that both
        sides see the same drift in machine speed.  `between`, if given, is
        called after each program run, outside the budget.
        """
        plain, traced = Series(), Series()
        spent = 0.0
        while True:
            run = self.program_run()
            plain.runs.append(run)
            cost = run.wall
            if tracer is not None:
                tracer.run_id = len(traced.runs)
                run = self.program_run(tracer)
                traced.runs.append(run)
                cost += run.wall
            spent += cost
            if between is not None:
                between()
            if spent + cost > seconds:
                return plain, traced

    def failed_count(self, runs) -> int:
        return self.points * sum(1 for r in runs if r.verdict is None or not r.verdict.ok)


def _median(values) -> float:
    values = [v for v in values if v is not None and math.isfinite(v)]
    return float(np.median(values)) if values else math.nan


def _step_percentiles(steps) -> tuple[float, float]:
    if not steps:
        return math.nan, math.nan
    p50, p90 = np.percentile(np.asarray(steps) * 1e3, [50, 90])
    return float(p50), float(p90)


def _print_verdicts(runs) -> None:
    for i, run in enumerate(runs):
        v = run.verdict
        if v is None:
            print("  run %d: wall %.4f s, exit %d, check did not complete" % (i, run.wall, run.exit_code))
        else:
            print(
                "  run %d: wall %.4f s, exit %d, %s, error_l1 %.6g, mass_drift_rel %s: %s"
                % (
                    i, run.wall, run.exit_code, "PASS" if v.ok else "FAIL", v.error_l1,
                    "n/a" if v.mass_drift_rel is None else "%.6g" % v.mass_drift_rel,
                    v.detail,
                )
            )


def end_to_end(bench: Bench, seconds: float):
    setups = []

    def probe():
        setups.extend(bench.setup_probe() for _ in range(SETUP_PROBES))

    probe()
    series, _ = bench.series(seconds, between=probe)
    runs = series.runs
    setups += [r.setup for r in runs if r.setup is not None]
    p50, p90 = _step_percentiles(series.steps)
    verdicts = [r.verdict for r in runs if r.verdict is not None]
    metrics = {
        "setup_s": (_median(setups), "s", len(setups)),
        "step_ms_p90": (p90, "ms", len(series.steps)),
        "wall_s": (_median(r.wall for r in runs), "s", len(runs)),
        # the high-water mark after the first program run; later runs of the
        # same config only add allocator fragmentation
        "peak_rss_mb": (runs[0].peak_rss_mb, "MB", 1),
    }
    attempted = bench.points * len(runs)
    failed = bench.failed_count(runs)
    drifts = [v.mass_drift_rel for v in verdicts if v.mass_drift_rel is not None]
    # printed but not in the JSON result, because no relative bound across
    # seeds can hold for them (README.md has the measurements):
    # step_ms_p50 jumps between the machine's fast and slow modes, as a
    # median of a two-mode mixture does; finish_s is one sample of about a
    # second per Liouville program run; error_l1 depends on the seed's
    # physics; mass_drift_rel sits at roundoff on convection;
    # ops_failed_ratio is 0 on a passing run and is carried by `attempted`
    # and `failed`.  The checks gate the last three.
    extra = {
        "step_ms_p50": (p50, "ms", len(series.steps)),
        "finish_s": (_median(r.finish for r in runs), "s", len(runs)),
        "error_l1": (_median(v.error_l1 for v in verdicts), "1", len(verdicts)),
        "mass_drift_rel": (_median(drifts), "1", len(drifts)),
        "ops_failed_ratio": (failed / attempted, "1", attempted),
    }
    print("program runs:")
    _print_verdicts(runs)
    print("end-to-end metrics (median over samples):")
    for name, (value, unit, count) in {**metrics, **extra}.items():
        print("  %-18s %.6g %s  (samples %d)" % (name, value, unit, count))
    return attempted, failed, {k: (v, u) for k, (v, u, _) in metrics.items()}


PER_LAYER_TIMES = (
    "gpc.project",
    "gpc.basis_values",
    "gpc.legendre_table",
    "liouville.galerkin_rhs",
    "liouville.rhs_nodal",
    "liouville.advance",
    "liouville.solve_gpc",
    "liouville.stencil_build",
    "limiters.bap_slope",
    "convection.step_first_order",
    "convection.run_convection",
    "metrics.h_norm",
    "sweeps.gpc_error_sweep",
    "config.parse_config",
)
PER_LAYER_COUNTS = (
    ("gpc.project.calls", "count"),
    ("gpc.project.elements", "count"),
    ("gpc.project.bytes_computed", "B"),
    ("gpc.basis_values.calls", "count"),
    ("gpc.evaluate.calls", "count"),
    ("gpc.evaluate.elements", "count"),
    ("gpc.evaluate.bytes_computed", "B"),
    ("liouville.rhs_nodal.calls", "count"),
    ("limiters.bap_slope.calls", "count"),
    ("limiters.bap_slope.elements", "count"),
    ("convection.step_first_order.calls", "count"),
    ("metrics.h_norm.calls", "count"),
    ("sweeps.points", "count"),
)


def per_layer(bench: Bench, seconds: float, spans_path: Path):
    tracer = Tracer(bench.pkg)
    untraced, traced = bench.series(seconds, tracer)
    runs = untraced.runs + traced.runs
    n = len(traced.runs)
    self_times = tracer.self_times()
    wall = sum(r.wall for r in traced.runs) / n
    base_p50, _ = _step_percentiles(untraced.steps)
    traced_p50, _ = _step_percentiles(traced.steps)

    metrics = {}
    for name in PER_LAYER_TIMES:
        metrics[name + ".self_s"] = (self_times.get(name, 0.0) / n, "s")
    for name, unit in PER_LAYER_COUNTS:
        metrics[name] = (tracer.counters.get(name, 0) / n, unit)
    metrics["cli.output_s"] = (self_times.get("cli.main", 0.0) / n, "s")
    metrics["cli.output_bytes"] = (sum(r.output_bytes for r in traced.runs) / n, "B")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.self_sum_s"] = (sum(self_times.values()) / n, "s")
    metrics["trace.step_ms_p50"] = (traced_p50, "ms")
    metrics["trace.overhead_step_ms"] = (traced_p50 - base_p50, "ms")

    print("program runs (%d untraced and %d traced, alternating):" % (len(untraced.runs), n))
    _print_verdicts(runs)
    print("per-layer split, per traced program run (self time, share of %.4g s):" % wall)
    for name, total in sorted(self_times.items(), key=lambda item: -item[1]):
        calls = tracer.counters.get(name + ".calls", 0) / n
        print("  %-40s %10.6f s %6.2f%%  calls %g" % (name, total / n, 100 * total / n / wall, calls))
    print("work per traced program run (bytes computed from array shapes):")
    for name, unit in PER_LAYER_COUNTS + (("cli.output_bytes", "B"),):
        print("  %-40s %14.0f %s" % (name, metrics[name][0], unit))
    print(
        "tracing overhead: step_ms_p50 %.6g traced - %.6g untraced = %.6g ms"
        % (traced_p50, base_p50, traced_p50 - base_p50)
    )
    with open(spans_path, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    print("spans: %d written to %s" % (len(tracer.spans), spans_path.relative_to(ROOT)))
    attempted = bench.points * len(runs)
    return attempted, bench.failed_count(runs), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sweep-threads",
        type=int,
        help="override the config's thread count (one-off thread-pool measurement)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    package = load_package()
    stoch_threads_env = os.environ.pop("STOCH_HYP_THREADS", None)
    bench = Bench(package, args.workload, args.seed, args.sweep_threads)
    try:
        env = environment(bench.config_threads, stoch_threads_env)
        print("workload %s, seed %d, %g s, trace %d" % (args.workload, args.seed, args.seconds, args.trace))
        print("environment: %s" % json.dumps(env))
        if args.trace:
            spans = OUT_ROOT / ("spans-%s-s%d.jsonl" % (args.workload, args.seed))
            attempted, failed, metrics = per_layer(bench, args.seconds, spans)
        else:
            attempted, failed, metrics = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
