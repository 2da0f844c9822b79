"""Experiment configuration: sectioned key=value files, presets, rendering.

The format is one `key = value` per line with `#` comments.  Keys live either
at the top of the file or under the sections `[grid]`, `[random]`, `[output]`.
Parsing collects every violation it can find (with line numbers) instead of
stopping at the first, and `parse_config(render_config(cfg))` round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

from .convection import (
    PROFILES,
    ConvectionGrid,
    InterfaceCoefficient,
)
from .convection import check_cfl as convection_cfl
from .errors import ConfigurationError
from .limiters import BAP_KINDS
from .liouville import (
    PHASE_PROFILES,
    VFLUX_VARIANTS,
    PhaseSpaceGrid,
    PotentialBarrier,
)
from .liouville import check_cfl as liouville_cfl

__all__ = [
    "PROBLEMS",
    "MODES",
    "PRESETS",
    "ExperimentConfig",
    "parse_config",
    "render_config",
    "convection_parts",
    "liouville_parts",
]

PROBLEMS = ("convection", "liouville")
MODES = ("gpc_sg", "collocation", "deterministic")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified experiment; None marks fields the problem omits."""

    problem: str
    mode: str = "gpc_sg"
    order: int = 1
    t_final: float = 1.0
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

    required = ["problem", "t_final", "dt"]
    if problem == "convection":
        required += ["a", "b", "dx"]
    elif problem == "liouville":
        required += ["x_lo", "x_hi", "v_hi", "nx", "nv"]
    if mode == "gpc_sg":
        required.append("k")
    elif mode == "collocation":
        required.append("m")
    for field in required:
        if field not in assigned:
            violations.append("missing required key %s" % _spot(field))

    violations.extend(_domain_checks(assigned, problem, where))
    if violations:
        raise ConfigurationError(violations)
    return ExperimentConfig(**assigned)


def _domain_checks(assigned: dict, problem, where: dict[str, int]) -> list[str]:
    problems: list[str] = []

    def bad(field: str, message: str) -> None:
        if field in where:
            problems.append("line %d: %s" % (where[field], message))
        else:
            problems.append(message)

    if assigned.get("order", 1) not in (1, 2):
        bad("order", "order must be 1 or 2")
    if assigned.get("limiter", "arctan") not in BAP_KINDS:
        bad("limiter", "limiter must be one of %s" % (BAP_KINDS,))
    if assigned.get("integrator", "euler") not in ("euler", "rk2"):
        bad("integrator", "integrator must be euler or rk2")
    if assigned.get("vflux", "product") not in VFLUX_VARIANTS:
        bad("vflux", "vflux must be one of %s" % (VFLUX_VARIANTS,))
    if assigned.get("threads", 1) < 1:
        bad("threads", "threads must be >= 1")
    k = assigned.get("k")
    if k is not None and k < 0:
        bad("k", "chaos order k must be >= 0")
    m = assigned.get("m")
    if m is not None and m < 1:
        bad("m", "quadrature size m must be >= 1")
    if abs(assigned.get("z", 0.0)) > 1.0:
        bad("z", "z must lie in [-1, 1]")
    t_final = assigned.get("t_final")
    if t_final is not None and t_final < 0.0:
        bad("t_final", "final time must be >= 0")
    dt = assigned.get("dt")
    if t_final is not None and dt is not None and dt > 0.0:
        steps = round(t_final / dt)
        if abs(steps * dt - t_final) > 1e-9 * max(1.0, t_final):
            bad("dt", "final time must be an integer number of time steps")

    profile = assigned.get("profile")
    if problem == "convection":
        if profile is not None and profile not in PROFILES:
            bad("profile", "unknown initial profile %r" % (profile,))
        if all(assigned.get(f) is not None for f in ("a", "b", "dx", "dt")):
            try:
                coef, grid = _convection_parts_raw(assigned)
                convection_cfl(coef, grid)
            except ConfigurationError as err:
                problems.extend(err.violations)
    elif problem == "liouville":
        if profile is not None and profile not in PHASE_PROFILES:
            bad("profile", "unknown initial profile %r" % (profile,))
        if assigned.get("order", 1) == 2 and assigned.get("integrator", "euler") == "rk2":
            bad("integrator", "the second-order fluxes carry dt and require euler stepping")
        fields = ("x_lo", "x_hi", "v_hi", "nx", "nv", "dt")
        if all(assigned.get(f) is not None for f in fields):
            try:
                grid, barrier = _liouville_parts_raw(assigned)
                alpha = assigned.get("alpha")
                alpha = barrier.max_force if alpha is None else float(alpha)
                if alpha < barrier.max_force:
                    problems.append("LF viscosity alpha must be >= the largest |DV|")
                liouville_cfl(grid, alpha)
            except ConfigurationError as err:
                problems.extend(err.violations)
    return problems


def _convection_parts_raw(assigned: dict):
    coef = InterfaceCoefficient(
        c_minus=assigned.get("c_minus", 1.0),
        c_plus=assigned.get("c_plus", 2.0),
        sigma=assigned.get("sigma", 0.3),
    )
    grid = ConvectionGrid.from_spacing(
        assigned["a"], assigned["b"], assigned["dx"], assigned["dt"]
    )
    return coef, grid


def _liouville_parts_raw(assigned: dict):
    grid = PhaseSpaceGrid(
        x_lo=assigned["x_lo"],
        x_hi=assigned["x_hi"],
        v_hi=assigned["v_hi"],
        nx=assigned["nx"],
        nv=assigned["nv"],
        dt=assigned["dt"],
    )
    barrier = PotentialBarrier(
        v_left=assigned.get("v_left", 0.2),
        v_right=assigned.get("v_right", 0.0),
        slope_amp=assigned.get("slope_amp", 0.1),
    )
    return grid, barrier


def convection_parts(config: ExperimentConfig):
    """Coefficient and grid objects for a validated convection config."""
    return _convection_parts_raw(config.__dict__)


def liouville_parts(config: ExperimentConfig):
    """Grid and barrier objects for a validated phase-space config."""
    return _liouville_parts_raw(config.__dict__)


def render_config(config: ExperimentConfig) -> str:
    """Config text that parses back to an equal ExperimentConfig."""
    by_section: dict[str, list[str]] = {"": [], "grid": [], "random": [], "output": []}
    for (section, key), (field, _) in _SCHEMA.items():
        value = getattr(config, field)
        if value is None:
            continue
        by_section[section].append("%s = %s" % (key, value))
    lines = by_section[""]
    for section in _SECTIONS:
        lines += ["", "[%s]" % section]
        lines += by_section[section]
    return "\n".join(lines) + "\n"
