"""Instrumentation of the stochhyp package, applied from outside it.

Nothing in `src/` knows about the benchmark.  Both instruments rebind module
attributes (and a few class attributes) inside a `with` block and restore
them on exit:

* `StepClock` stamps the start of every call into the per-step function of
  each solver and marks where each solve begins.  It is the only
  instrumentation active while end-to-end metrics are measured.
* `Tracer` records a span around every public function of every module and
  counts array work at a few boundaries.  Its numbers are the per-layer
  split; it is active only in program runs of its own.

Rebinding replaces every binding of a function object in every loaded
`stochhyp` module, so calls through `from .gpc import project` style imports
are caught as well as calls inside the defining module.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter

MODULES = (
    "config",
    "gpc",
    "limiters",
    "convection",
    "liouville",
    "baselines",
    "metrics",
    "sweeps",
    "cli",
)

# the function whose calls delimit time steps, one per solver family
STEP_FUNCTIONS = (
    ("liouville", "advance"),
    ("convection", "step_first_order"),
    ("convection", "step_second_order_nodal"),
)

# entry points of one gPC solve; a sweep makes one call per chaos order
SOLVE_FUNCTIONS = (
    ("liouville", "liouville_solve_gpc"),
    ("convection", "run_convection"),
)

# public methods traced in addition to every module's __all__ functions
TRACED_METHODS = (
    ("gpc", "OrthonormalBasis", "values", "gpc.basis_values"),
    ("liouville", "BarrierStencil", "build", "liouville.stencil_build"),
    ("convection", "AnalyticConvectionSolution", "moments", "convection.analytic_moments"),
    ("convection", "AnalyticConvectionSolution", "value", "convection.analytic_value"),
)

BYTES_PER_VALUE = 8  # float64 throughout the package


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("stochhyp")]


class _Rebinder:
    """Rebinds objects across the package's namespaces and undoes it."""

    def __init__(self):
        self._undo = []

    def function(self, original, replacement):
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, replacement)

    def attribute(self, holder, name, replacement):
        self._undo.append((holder, name, holder.__dict__[name]))
        setattr(holder, name, replacement)

    def restore(self):
        for holder, name, value in reversed(self._undo):
            setattr(holder, name, value)
        self._undo.clear()


class SetupDone(Exception):
    """Raised by a set-up probe when the first time step is about to start."""

    def __init__(self, stamp: float):
        super().__init__("first time step reached")
        self.stamp = stamp


class StepClock:
    """Per-step start stamps, grouped by solve, plus the last step's return.

    With `abort_at_first_step` set, the first step call raises `SetupDone`
    instead of running, which turns a program run into a set-up probe.
    """

    def __init__(self, package):
        self._package = package
        self._rebind = _Rebinder()
        self.abort_at_first_step = False
        self.solves: list[list[float]] = []
        self.results: list = []
        self.last_return: float | None = None

    def _step(self, fn):
        def stamped(*args, **kwargs):
            now = perf_counter()
            if self.abort_at_first_step:
                raise SetupDone(now)
            if not self.solves:
                self.solves.append([])
            self.solves[-1].append(now)
            out = fn(*args, **kwargs)
            self.last_return = perf_counter()
            return out

        return stamped

    def _solve(self, fn):
        def marked(*args, **kwargs):
            self.solves.append([])
            out = fn(*args, **kwargs)
            self.results.append(out)
            return out

        return marked

    def __enter__(self):
        for module, name in STEP_FUNCTIONS:
            fn = getattr(getattr(self._package, module), name)
            self._rebind.function(fn, self._step(fn))
        for module, name in SOLVE_FUNCTIONS:
            fn = getattr(getattr(self._package, module), name)
            self._rebind.function(fn, self._solve(fn))
        return self

    def __exit__(self, *exc):
        self._rebind.restore()
        return False

    def first_step(self) -> float | None:
        for stamps in self.solves:
            if stamps:
                return stamps[0]
        return None

    def step_intervals(self) -> list[float]:
        """Seconds between successive step starts within each solve."""
        out = []
        for stamps in self.solves:
            out.extend(b - a for a, b in zip(stamps, stamps[1:]))
        return out


def _shape_count(shape) -> int:
    count = 1
    for n in shape:
        count *= int(n)
    return count


def _project_work(args, kwargs, result, counters):
    # samples (n, Q) and table (K+1, Q) are read, coefficients (n, K+1) written
    samples = args[0] if args else kwargs["samples"]
    q = samples.shape[-1]
    modes = result.shape[-1]
    cells = _shape_count(samples.shape[:-1])
    counters["gpc.project.elements"] += cells * q
    counters["gpc.project.bytes_computed"] += BYTES_PER_VALUE * (
        cells * q + modes * q + cells * modes
    )


def _evaluate_bytes(cells: int, modes: int, q: int) -> int:
    # coefficients (n, K+1) and table (K+1, Q) are read, samples (n, Q) written
    return BYTES_PER_VALUE * (cells * modes + modes * q + cells * q)


def _galerkin_rhs_work(args, kwargs, result, counters):
    # the evaluate `field @ table` happens inline in galerkin_rhs
    field = args[0] if args else kwargs["field"]
    rule = args[5] if len(args) > 5 else kwargs["rule"]
    modes = field.shape[-1]
    cells = _shape_count(field.shape[:-1])
    counters["gpc.evaluate.calls"] += 1
    counters["gpc.evaluate.elements"] += cells * rule.count
    counters["gpc.evaluate.bytes_computed"] += _evaluate_bytes(cells, modes, rule.count)


def _run_convection_work(args, kwargs, result, counters):
    # the order-2 march evaluates `field @ table` inline once per step
    order = args[4] if len(args) > 4 else kwargs.get("order", 1)
    if order != 2:
        return
    quad = args[6] if len(args) > 6 else kwargs.get("quad_count")
    cells, modes = result.coeffs.shape
    q = quad if quad is not None else 2 * (modes - 1) + 2
    steps = result.diagnostics["steps"]
    counters["gpc.evaluate.calls"] += steps
    counters["gpc.evaluate.elements"] += steps * cells * q
    counters["gpc.evaluate.bytes_computed"] += steps * _evaluate_bytes(cells, modes, q)


def _bap_slope_work(args, kwargs, result, counters):
    counters["limiters.bap_slope.elements"] += int(getattr(result, "size", 1))


def _gpc_error_sweep_work(args, kwargs, result, counters):
    # one solve per swept order plus the reference solve
    counters["sweeps.points"] += len(result) + 1


WORK_COUNTERS = {
    "gpc.project": _project_work,
    "liouville.galerkin_rhs": _galerkin_rhs_work,
    "convection.run_convection": _run_convection_work,
    "limiters.bap_slope": _bap_slope_work,
    "sweeps.gpc_error_sweep": _gpc_error_sweep_work,
}


def span_name(module: str, fn_name: str) -> str:
    """`liouville.liouville_solve_gpc` is named `liouville.solve_gpc`."""
    prefix = module + "_"
    short = fn_name[len(prefix):] if fn_name.startswith(prefix) else fn_name
    return "%s.%s" % (module, short)


class Tracer:
    """Spans around the package's public functions, kept in memory.

    Each span is (name, start, end, parent index, run id); the parent is the
    innermost open span of the same thread.  `run_id` is set by the caller
    before each program run.
    """

    def __init__(self, package):
        self._package = package
        self._rebind = _Rebinder()
        self._local = threading.local()
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.run_id = 0

    def _wrap(self, fn, name):
        spans = self.spans
        counters = self.counters
        local = self._local
        work = WORK_COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            counters[name + ".calls"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if work is not None:
                work(args, kwargs, result, counters)
            return result

        return traced

    def __enter__(self):
        for module_name in MODULES:
            module = getattr(self._package, module_name)
            for attr in module.__all__:
                fn = getattr(module, attr)
                # functions defined here; classes and re-exports are skipped
                if isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__:
                    continue
                self._rebind.function(fn, self._wrap(fn, span_name(module_name, attr)))
        for module_name, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(getattr(self._package, module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._rebind.attribute(cls, attr, wrapped)
        return self

    def __exit__(self, *exc):
        self._rebind.restore()
        return False

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return totals
