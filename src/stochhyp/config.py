"""Experiment configuration: sectioned key=value files, presets, rendering.

The format is one `key = value` per line with `#` comments.  Keys live either
at the top of the file or under the sections `[grid]`, `[random]`, `[output]`.
Parsing collects every violation it can find (with line numbers) instead of
stopping at the first, and `parse_config(render_config(cfg))` round-trips.
`reads(problem, mode, order)` names the fields a run reads: a file that sets
any other key is rejected at its line, and a preset's other values are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import convection, liouville
from .convection import ConvectionGrid, InterfaceCoefficient
from .errors import ConfigurationError
from .gpc import chaos_problems
from .liouville import PhaseSpaceGrid, PotentialBarrier
from .march import time_steps
from .sweeps import thread_problems

__all__ = [
    "PROBLEMS",
    "MODES",
    "PRESETS",
    "ExperimentConfig",
    "parse_config",
    "render_config",
    "reads",
    "convection_parts",
    "liouville_parts",
]

PROBLEMS = ("convection", "liouville")
MODES = ("gpc_sg", "collocation", "deterministic")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified experiment; None marks fields the run leaves unset."""

    problem: str | None = None
    mode: str = "gpc_sg"
    order: int = 1
    t_final: float | None = None
    profile: str = "cos_bump"
    limiter: str = "arctan"
    integrator: str = "euler"
    vflux: str = "product"
    threads: int = 1
    # convection grid
    a: float | None = None
    b: float | None = None
    dx: float | None = None
    dt: float | None = None
    # phase-space grid
    x_lo: float | None = None
    x_hi: float | None = None
    v_hi: float | None = None
    nx: int | None = None
    nv: int | None = None
    # randomness and method resolution
    k: int | None = None
    m: int | None = None
    z: float = 0.0
    c_minus: float = 1.0
    c_plus: float = 2.0
    sigma: float = 0.3
    v_left: float = 0.2
    v_right: float = 0.0
    slope_amp: float = 0.1
    alpha: float | None = None
    out_dir: str = "out"


# (section, key) -> (config field, converter)
_SCHEMA = {
    ("", "problem"): ("problem", str),
    ("", "mode"): ("mode", str),
    ("", "order"): ("order", int),
    ("", "t_final"): ("t_final", float),
    ("", "profile"): ("profile", str),
    ("", "limiter"): ("limiter", str),
    ("", "integrator"): ("integrator", str),
    ("", "vflux"): ("vflux", str),
    ("", "threads"): ("threads", int),
    ("grid", "a"): ("a", float),
    ("grid", "b"): ("b", float),
    ("grid", "dx"): ("dx", float),
    ("grid", "dt"): ("dt", float),
    ("grid", "x_lo"): ("x_lo", float),
    ("grid", "x_hi"): ("x_hi", float),
    ("grid", "v_hi"): ("v_hi", float),
    ("grid", "nx"): ("nx", int),
    ("grid", "nv"): ("nv", int),
    ("random", "k"): ("k", int),
    ("random", "m"): ("m", int),
    ("random", "z"): ("z", float),
    ("random", "c_minus"): ("c_minus", float),
    ("random", "c_plus"): ("c_plus", float),
    ("random", "sigma"): ("sigma", float),
    ("random", "v_left"): ("v_left", float),
    ("random", "v_right"): ("v_right", float),
    ("random", "slope_amp"): ("slope_amp", float),
    ("random", "alpha"): ("alpha", float),
    ("output", "dir"): ("out_dir", str),
}
_PLACE = {field: (sec, key) for (sec, key), (field, _) in _SCHEMA.items()}
_SECTIONS = ("grid", "random", "output")

_EX1 = dict(
    problem="convection",
    order=1,
    t_final=1.0,
    profile="cos_bump",
    a=-2.0,
    b=6.0,
    dx=0.005,
    dt=0.001,
    c_minus=1.0,
    c_plus=2.0,
    sigma=0.3,
)
_EX2 = dict(
    problem="liouville",
    order=1,
    t_final=1.0,
    profile="quarter_disks",
    x_lo=-2.01,
    x_hi=2.01,
    v_hi=2.01,
    nx=134,
    nv=134,
    dt=0.002,
    v_left=0.2,
    v_right=0.0,
    slope_amp=0.1,
)

PRESETS: dict[str, dict] = {
    "example1_order1": dict(_EX1, mode="gpc_sg", k=20),
    "example1_order1_fine": dict(_EX1, mode="gpc_sg", k=20, dx=0.001, dt=0.00025),
    "example1_order2": dict(_EX1, mode="gpc_sg", k=20, order=2),
    "example1_collocation": dict(_EX1, mode="collocation", m=20),
    "example1_smooth_control": dict(
        _EX1, mode="gpc_sg", k=0, c_minus=1.0, c_plus=1.0, sigma=0.0, profile="gaussian"
    ),
    "example2_order1": dict(_EX2, mode="gpc_sg", k=10),
    "example2_order2": dict(_EX2, mode="gpc_sg", k=10, order=2),
    "example2_collocation": dict(_EX2, mode="collocation", m=20),
    "example2_deterministic": dict(
        _EX2, mode="deterministic", z=0.0, nx=268, nv=268, dt=0.001
    ),
    "example2_sine": dict(_EX2, mode="gpc_sg", k=4, profile="sine_disk"),
}


def reads(problem: str | None, mode: str, order: int) -> tuple[str, ...]:
    """The config fields that a run of this problem, mode and order reads."""
    fields = ["problem", "mode", "order", "t_final", "dt", "profile", "threads", "out_dir"]
    if problem == "convection":
        fields += ["a", "b", "dx", "c_minus", "c_plus", "sigma"]
    elif problem == "liouville":
        fields += ["x_lo", "x_hi", "v_hi", "nx", "nv", "v_left", "v_right", "slope_amp", "integrator"]
        if order == 1:
            # the order-2 v-flux tables read neither: their viscosity is force^2*dt/dv
            fields += ["vflux", "alpha"]
    if order == 2:
        fields.append("limiter")
    # order 1, linear in z, is SG exactly on the k + 1 Gauss nodes, which both
    # chaos solvers march whatever m, so m acts on gpc_sg at order 2 alone
    chaos = ["k", "m"] if order == 2 else ["k"]
    fields += {"gpc_sg": chaos, "collocation": ["m"], "deterministic": ["z"]}[mode]
    return tuple(fields)


def _no_effect(field: str, problem: str, mode: str, order: int) -> str:
    """Why a field that the run does not read has no effect."""
    if not any(field in reads(problem, other, n) for other in MODES for n in (1, 2)):
        return "%s has no effect on problem = %s" % (_spot(field), problem)
    if not any(field in reads(problem, mode, n) for n in (1, 2)):
        return "%s has no effect on mode = %s" % (_spot(field), mode)
    return "%s has no effect at order = %d" % (_spot(field), order)


def _spot(field: str) -> str:
    sec, key = _PLACE[field]
    return "[%s] %s" % (sec, key) if sec else key


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config; raises with every violation found."""
    violations: list[str] = []
    assigned: dict[str, object] = {}
    where: dict[str, int] = {}
    preset_name = None
    preset_line = 0
    section = ""

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                violations.append("line %d: unknown section [%s]" % (lineno, section))
            continue
        if "=" not in line:
            violations.append("line %d: expected key = value" % (lineno,))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section == "" and key == "preset":
            if preset_name is not None:
                violations.append("line %d: duplicate key preset" % (lineno,))
                continue
            preset_name, preset_line = value, lineno
            continue
        entry = _SCHEMA.get((section, key))
        if entry is None:
            prefix = "[%s] " % section if section else ""
            violations.append("line %d: unknown key %s%s" % (lineno, prefix, key))
            continue
        field, convert = entry
        if field in assigned:
            violations.append("line %d: duplicate key %s" % (lineno, key))
            continue
        try:
            assigned[field] = convert(value)
            where[field] = lineno
        except ValueError:
            violations.append(
                "line %d: cannot parse %s value %r" % (lineno, key, value)
            )

    if preset_name is not None:
        base = PRESETS.get(preset_name)
        if base is None:
            violations.append(
                "line %d: unknown preset %r" % (preset_line, preset_name)
            )
        else:
            for field, value in base.items():
                assigned.setdefault(field, value)

    problem = assigned.get("problem")
    mode = assigned.get("mode", "gpc_sg")
    if problem is not None and problem not in PROBLEMS:
        violations.append("problem must be one of %s" % (PROBLEMS,))
        problem = None
    if mode not in MODES:
        violations.append("mode must be one of %s" % (MODES,))
        mode = "gpc_sg"
    if "profile" not in assigned and problem is not None:
        assigned["profile"] = "cos_bump" if problem == "convection" else "quarter_disks"

    read = reads(problem, mode, assigned.get("order", 1))
    # a field the run reads needs a value, unless it has a default; alpha and,
    # under gpc_sg, the rule size m are optional: None selects the solver's rule
    optional = ("alpha", "m") if mode == "gpc_sg" else ("alpha",)
    for field in read:
        unset = field not in assigned and getattr(ExperimentConfig, field) is None
        if unset and field not in optional:
            violations.append("missing required key %s" % _spot(field))

    # a value the run does not read is left out: a file's is reported below, a preset's dropped
    kept = {field: value for field, value in assigned.items() if field in read}
    config = ExperimentConfig(**dict(kept, problem=problem, mode=mode))
    violations.extend(_domain_checks(config, where))
    if violations:
        raise ConfigurationError(violations)
    return config


def _domain_checks(cfg: ExperimentConfig, where: dict[str, int]) -> list[str]:
    """Config's own rules, then the rules the solvers apply, at their fields' lines."""
    problems: list[str] = []

    def bad(field: str | None, message: str) -> None:
        prefix = "line %d: " % where[field] if field in where else ""
        problems.append(prefix + message)

    if cfg.m is not None and cfg.m < 1:
        bad("m", "quadrature size m must be >= 1")
    if cfg.problem is not None:
        read = reads(cfg.problem, cfg.mode, cfg.order)
        for field in where:
            if field not in read:
                bad(field, _no_effect(field, cfg.problem, cfg.mode, cfg.order))

    tagged = thread_problems(cfg.threads)
    if cfg.t_final is not None and cfg.dt is not None and cfg.dt > 0.0:
        tagged += time_steps(cfg.t_final, cfg.dt)[1]
    if cfg.k is not None:
        tagged += chaos_problems(cfg.k, cfg.m)
    # each object is built on its own, so one object's failure hides no other
    # object's rules, and the CFL rule runs whenever its inputs exist
    if cfg.problem == "convection":
        coef = _built(problems, InterfaceCoefficient, cfg.c_minus, cfg.c_plus, cfg.sigma)
        grid = None
        if None not in (cfg.a, cfg.b, cfg.dx, cfg.dt):
            grid = _built(problems, ConvectionGrid.from_spacing, cfg.a, cfg.b, cfg.dx, cfg.dt)
        tagged += convection.scheme_problems(cfg.order, cfg.profile, cfg.limiter, cfg.z, coef, grid)
    elif cfg.problem == "liouville":
        grid = None
        if None not in (cfg.x_lo, cfg.x_hi, cfg.v_hi, cfg.nx, cfg.nv, cfg.dt):
            grid = _built(problems, PhaseSpaceGrid, cfg.x_lo, cfg.x_hi, cfg.v_hi, cfg.nx, cfg.nv, cfg.dt)
        barrier = _built(problems, PotentialBarrier, cfg.v_left, cfg.v_right, cfg.slope_amp)
        alpha = cfg.alpha
        if alpha is None and math.isfinite(cfg.slope_amp):
            alpha = abs(cfg.slope_amp)  # barrier.max_force, from slope_amp alone
        tagged += liouville.scheme_problems(
            cfg.order, cfg.integrator, cfg.profile, cfg.limiter, cfg.vflux, cfg.z,
            grid, barrier, alpha,
        )
    for field, message in tagged:
        bad(field, message)
    return problems


def _built(problems: list[str], make, *args):
    """make(*args), or None with its violations added to `problems`."""
    try:
        return make(*args)
    except ConfigurationError as err:
        problems.extend(err.violations)
        return None


def convection_parts(config: ExperimentConfig):
    """Coefficient and grid objects for a validated convection config."""
    coef = InterfaceCoefficient(config.c_minus, config.c_plus, config.sigma)
    return coef, ConvectionGrid.from_spacing(config.a, config.b, config.dx, config.dt)


def liouville_parts(config: ExperimentConfig):
    """Grid and barrier objects for a validated phase-space config."""
    grid = PhaseSpaceGrid(
        config.x_lo, config.x_hi, config.v_hi, config.nx, config.nv, config.dt
    )
    return grid, PotentialBarrier(config.v_left, config.v_right, config.slope_amp)


def render_config(config: ExperimentConfig) -> str:
    """Config text that parses back to an equal ExperimentConfig; unread fields left out."""
    read = reads(config.problem, config.mode, config.order)
    by_section: dict[str, list[str]] = {"": [], "grid": [], "random": [], "output": []}
    for (section, key), (field, _) in _SCHEMA.items():
        value = getattr(config, field)
        if value is None or field not in read:
            continue
        by_section[section].append("%s = %s" % (key, value))
    lines = by_section[""]
    for section in _SECTIONS:
        lines += ["", "[%s]" % section]
        lines += by_section[section]
    return "\n".join(lines) + "\n"
