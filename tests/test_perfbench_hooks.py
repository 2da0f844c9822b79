"""The benchmark's hooks into the package: every name it rebinds or calls exists.

`perfbench/tracing.py` rebinds functions and methods by name, and the
benchmark's workloads call a few more; a deletion in the package that would
break the benchmark fails here instead of in a benchmark run.  The
instruments also read solver arguments by position, so tiny program runs go
through them as well.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# names the workloads and the runner reach through the package
CALLED = (
    ("baselines", "deterministic_liouville"),
    ("cli", "main"),
    ("config", "parse_config"),
    ("config", "convection_parts"),
    ("config", "liouville_parts"),
    ("convection", "AnalyticConvectionSolution"),
    ("convection", "PROFILES"),
    ("liouville", "PHASE_PROFILES"),
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_module(name):
    return importlib.import_module("stochhyp." + name)


def test_every_traced_module_exports_only_names_it_defines(tracing):
    for name in tracing.MODULES:
        module = package_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, "stochhyp.%s.__all__ names %s" % (name, missing)


def test_step_and_solve_functions_exist(tracing):
    for name, attr in tracing.STEP_FUNCTIONS + tracing.SOLVE_FUNCTIONS + CALLED:
        assert hasattr(package_module(name), attr), "stochhyp.%s.%s" % (name, attr)


def test_traced_methods_exist(tracing):
    for name, cls_name, attr, _ in tracing.TRACED_METHODS:
        cls = getattr(package_module(name), cls_name)
        assert attr in cls.__dict__, "stochhyp.%s.%s.%s" % (name, cls_name, attr)


LIOUVILLE_TINY = "t_final = 0.004\n[grid]\nnx = 20\nnv = 20\n[random]\nk = 2\n"
CONVECTION_TINY = "t_final = 0.02\n[grid]\ndx = 0.05\ndt = 0.01\n[random]\nk = 2\n"

# command, config text, solves, counters that the run's instruments must fill
PROGRAM_RUNS = {
    "liouville_order1": (
        ["run"], "preset = example2_order1\n" + LIOUVILLE_TINY, 1,
        ("gpc.project.calls", "liouville.rhs_nodal.calls"),
    ),
    "liouville_order2": (
        ["run"], "preset = example2_order2\n" + LIOUVILLE_TINY, 1,
        ("gpc.project.calls", "gpc.evaluate.calls"),
    ),
    "convection_order1": (
        ["run"], "preset = example1_order1\n" + CONVECTION_TINY, 1,
        ("convection.step_first_order.calls",),
    ),
    "convection_order2": (
        ["run"], "preset = example1_order2\nlimiter = tanh\n" + CONVECTION_TINY, 1,
        ("gpc.project.calls", "gpc.evaluate.calls"),
    ),
    "convection_ksweep": (
        ["sweep", "--k", "2..3", "--ref", "4"], "preset = example1_order1\n" + CONVECTION_TINY, 3,
        ("sweeps.points", "metrics.h_norm.calls"),
    ),
}


@pytest.mark.parametrize("name", list(PROGRAM_RUNS))
def test_the_instruments_run_over_the_package(tracing, tmp_path, name):
    command, text, solves, counters = PROGRAM_RUNS[name]
    config = tmp_path / "run.cfg"
    config.write_text(text + "[output]\ndir = %s\n" % (tmp_path / "out"))
    for module in tracing.MODULES:
        package_module(module)
    package = importlib.import_module("stochhyp")
    tracer, clock = tracing.Tracer(package), tracing.StepClock(package)
    # the order perfbench uses: the clock stamps around the traced calls
    with tracer, clock:
        code = package.cli.main([command[0], str(config), *command[1:]])
    assert code == 0
    assert [len(stamps) for stamps in clock.solves] == [2] * solves
    for counter in counters:
        assert tracer.counters[counter] > 0, counter
