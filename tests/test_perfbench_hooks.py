"""The benchmark's hooks into the package: every name it rebinds or calls exists.

`perfbench/tracing.py` rebinds functions and methods by name, and the
benchmark's workloads call a few more; a deletion in the package that would
break the benchmark fails here instead of in a benchmark run.
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
