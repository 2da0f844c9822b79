"""Command line harness: run experiments, convergence sweeps, config checks.

Subcommands:
  run <config>       solve and write moments.csv / coeffs.csv / errors.csv / run.txt
  sweep <config>     chaos-order (--k .. --ref N) or mesh (--dx ..) refinement study
  check <config>     validate a config file and report every violation
  presets            list built-in experiment presets (--show NAME prints one)

Exit codes: 0 success, 2 configuration error, 3 divergence (non-finite field).
CSV numbers carry 17 significant digits ("%.17g", which `csvformat` writes a
chunk of rows at a time) so serial reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import (
    PRESETS,
    ExperimentConfig,
    convection_parts,
    liouville_parts,
    parse_config,
    reads,
    render_config,
)
from .convection import convection_errors, convection_solve_nodal, run_convection
from .csvformat import format_rows
from .errors import ConfigurationError, DivergenceError
from .gpc import QuadratureRule, gauss_rule
from .liouville import liouville_solve_gpc, liouville_solve_nodal
from .metrics import MomentField, moments_from_samples
from .sweeps import gpc_error_sweep, mesh_error_sweep

__all__ = ["main"]

# config fields that run.txt echoes, in file order, where the run reads them
_ECHO = ("problem", "mode", "order", "t_final", "dt", "threads", "profile", "k", "m", "z")
# solver diagnostics that run.txt reports, in file order, where a solver has them
_DIAGNOSTICS = (
    "steps", "mass_drift_abs_max", "mass_drift_rel_max", "stencil_truncations",
    "truncation_events", "wall_time", "min_value", "max_value",
)


# values that one format_rows call turns into text, in whole rows: its arrays
# then take about 0.6 MB, below the tables written; smaller chunks spend more
# per value on numpy's per-call overhead (256-row chunks write a 71824x3 table
# 1.8 times slower)
_CSV_CHUNK_VALUES = 4096


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _write_columns(path: Path, header: list[str], columns) -> None:
    """One CSV of float columns (1-D, or 2-D blocks of columns) side by side, in row chunks."""
    rows = max(1, _CSV_CHUNK_VALUES // len(header))
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), rows):
            handle.write(format_rows(np.column_stack([c[start : start + rows] for c in columns])))
    print("wrote %s" % path)


def _write_csv(path: Path, header: list[str], rows) -> None:
    # the bytes _fmt gives, an integral k included ("%.17g" % 2.0 is "2")
    _write_columns(path, header, [np.asarray(rows, dtype=float)])


def _write_summary(path: Path, entries: dict) -> None:
    with open(path, "w") as handle:
        for key, value in entries.items():
            if isinstance(value, np.ndarray):
                value = float(np.max(value))
            handle.write("%s = %s\n" % (key, _fmt(value)))
    print("wrote %s" % path)


def _write_fields(out: Path, lead: dict, moments: MomentField, value_header, values) -> None:
    """moments.csv and coeffs.csv: one row per cell, led by the `lead` coordinates."""
    lead_cols = list(lead.values())
    moment_cols = [moments.expectation.reshape(-1), moments.variance.reshape(-1)]
    _write_columns(
        out / "moments.csv", list(lead) + ["expectation", "variance"], lead_cols + moment_cols
    )
    values = values.reshape(lead_cols[0].size, -1)
    _write_columns(out / "coeffs.csv", list(lead) + value_header, lead_cols + [values])


def _config_echo(config: ExperimentConfig) -> dict:
    read = reads(config.problem, config.mode, config.order)
    return {
        field: getattr(config, field)
        for field in _ECHO
        if field in read and getattr(config, field) is not None
    }


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigurationError(["cannot read config file: %s" % err])
    return parse_config(text)


class _Problem(NamedTuple):
    """One configured problem, ready to solve in any mode."""

    lead: dict  # output coordinate columns, one entry per cell
    grid_entries: dict  # grid spacings that run.txt reports
    cell: float  # cell measure of the l1 norms
    chaos: Callable  # (k, quad_count=None) -> (coefficients, diagnostics)
    nodal: Callable  # (z_nodes) -> (samples, nodes on the last axis, diagnostics)
    errors: Callable | None  # (values, rule) -> errors.csv columns


def _problem(config: ExperimentConfig) -> _Problem:
    """Build the parts of the configured problem; the solves look their solver up by name."""
    t_final = config.t_final
    if config.problem == "convection":
        coef, grid = convection_parts(config)
        scheme = dict(order=config.order, profile=config.profile, kind=config.limiter)
        return _Problem(
            {"x": grid.centers},
            {"dx": grid.dx, "interface_shift": grid.shift},
            grid.dx,
            lambda k, quad_count=None: run_convection(
                coef, grid, k, t_final, quad_count=quad_count, **scheme
            ),
            lambda z_nodes: convection_solve_nodal(coef, grid, z_nodes, t_final, **scheme),
            lambda values, rule: convection_errors(
                coef, grid, config.profile, t_final, values, rule, config.mode == "deterministic"
            ),
        )

    grid, barrier = liouville_parts(config)
    scheme = dict(
        order=config.order,
        integrator=config.integrator,
        alpha=config.alpha,
        profile=config.profile,
        kind=config.limiter,
        vflux_variant=config.vflux,
    )
    return _Problem(
        {"x": np.repeat(grid.x_centers, grid.nv), "v": np.tile(grid.v_centers, grid.nx)},
        {"dx": grid.dx, "dv": grid.dv},
        grid.dx * grid.dv,
        lambda k, quad_count=None: liouville_solve_gpc(
            grid, barrier, k, t_final, quad_count=quad_count, **scheme
        ),
        lambda z_nodes: liouville_solve_nodal(grid, barrier, z_nodes, t_final, **scheme),
        None,
    )


def _run(config: ExperimentConfig, out: Path) -> dict:
    problem = _problem(config)
    if config.mode == "gpc_sg":
        rule = None
        values, diag = problem.chaos(config.k, config.m)
        value_header = ["c%d" % j for j in range(config.k + 1)]
    elif config.mode == "collocation":
        rule = gauss_rule(config.m)
        values, diag = problem.nodal(rule.nodes)
        value_header = ["node%d" % j for j in range(rule.count)]
    else:
        # one sample of weight one: the moments are the value and zero
        rule = QuadratureRule(np.array([config.z]), np.ones(1))
        values, diag = problem.nodal(rule.nodes)
        value_header = ["value"]

    moments = MomentField.from_coeffs(values) if rule is None else moments_from_samples(values, rule)
    _write_fields(out, problem.lead, moments, value_header, values)
    if problem.errors is not None:
        errors = problem.errors(values, rule)
        _write_csv(out / "errors.csv", list(errors), [list(errors.values())])
    summary = dict(_config_echo(config), **problem.grid_entries)
    summary.update((key, diag[key]) for key in _DIAGNOSTICS if key in diag)
    return summary


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        summary = _run(config, out)
    except DivergenceError as err:
        summary = _config_echo(config)
        summary.update(status="diverged", step=err.step, where=err.where)
        _write_summary(out / "run.txt", summary)
        print("diverged: %s" % err, file=sys.stderr)
        return 3
    _write_summary(out / "run.txt", dict(summary, status="ok"))
    return 0


def _parse_k_list(text: str) -> list[int]:
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, _, hi = token.partition("..")
            values.extend(range(int(lo), int(hi) + 1))
        elif token:
            values.append(int(token))
    if not values:
        raise ConfigurationError(["--k expects values like 2..20 or 2,4,8"])
    return values


def _require_monotone(values, flag: str) -> None:
    diffs = np.diff(np.asarray(values, dtype=float))
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigurationError(["%s values must be strictly monotone" % flag])


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if (args.k is None) == (args.dx is None):
        raise ConfigurationError(["pass exactly one of --k or --dx"])
    if config.mode != "gpc_sg":
        raise ConfigurationError(["sweeps need mode = gpc_sg"])
    if config.m is not None:
        # neither sweep passes a quadrature size to its solver
        raise ConfigurationError(["[random] m has no effect on sweep"])

    problem = _problem(config)
    if args.k is not None:
        if args.ref is None:
            raise ConfigurationError(["--k requires --ref for the reference order"])
        k_list = _parse_k_list(args.k)
        _require_monotone(k_list, "--k")
        rows = gpc_error_sweep(
            lambda k: problem.chaos(k)[0], k_list, args.ref, problem.cell, threads=config.threads
        )
    else:
        if problem.errors is None:
            raise ConfigurationError(["mesh sweeps need the analytic solution (convection)"])
        dx_list = [float(tok) for tok in args.dx.split(",") if tok.strip()]
        _require_monotone(dx_list, "--dx")

        def errors_at(dx: float, dt: float) -> dict:
            point = _problem(dataclasses.replace(config, dx=dx, dt=dt))
            return point.errors(point.chaos(config.k)[0], None)

        rows = mesh_error_sweep(errors_at, dx_list, config.dt / config.dx, threads=config.threads)

    header = [field.name for field in dataclasses.fields(rows[0])]
    table = np.array([dataclasses.astuple(row) for row in rows], dtype=float)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", header, table)
    loglog = np.log10(table, out=np.full(table.shape, -np.inf), where=table > 0)
    _write_csv(out / "sweep_loglog.csv", ["log10_%s" % h for h in header], loglog)
    return 0


def _cmd_check(args) -> int:
    _load_config(args.config)
    print("ok")
    return 0


def _cmd_presets(args) -> int:
    if args.show is not None:
        preset = PRESETS.get(args.show)
        if preset is None:
            raise ConfigurationError(["unknown preset %r" % (args.show,)])
        sys.stdout.write(render_config(ExperimentConfig(**preset)))
        return 0
    for name in PRESETS:
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochhyp",
        description="gPC stochastic Galerkin solvers for hyperbolic problems "
        "with discontinuous coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one experiment and write CSV outputs")
    p_run.add_argument("config")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="convergence study over k or dx")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--k", help="chaos orders, e.g. 2..20 or 2,4,8")
    p_sweep.add_argument("--ref", type=int, help="reference chaos order")
    p_sweep.add_argument("--dx", help="comma-separated mesh widths")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_check = sub.add_parser("check", help="validate a config file")
    p_check.add_argument("config")
    p_check.set_defaults(handler=_cmd_check)

    p_presets = sub.add_parser("presets", help="list built-in presets")
    p_presets.add_argument("--show", help="print the config text of one preset")
    p_presets.set_defaults(handler=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as err:
        for violation in err.violations:
            print("config error: %s" % violation, file=sys.stderr)
        return 2
    except DivergenceError as err:
        print("diverged: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
