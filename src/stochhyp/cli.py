"""Command line harness: run experiments, convergence sweeps, config checks.

Subcommands:
  run <config>       solve and write moments.csv / coeffs.csv / errors.csv / run.txt
  sweep <config>     chaos-order (--k .. --ref N) or mesh (--dx ..) refinement study
  check <config>     validate a config file and report every violation
  presets            list built-in experiment presets (--show NAME prints one)

Exit codes: 0 success, 2 configuration error, 3 divergence (non-finite field).
CSV numbers carry 17 significant digits so serial reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import (
    collocation_convection,
    collocation_liouville,
    convection_solve_nodal,
    deterministic_liouville,
)
from .config import (
    PRESETS,
    ExperimentConfig,
    convection_parts,
    liouville_parts,
    parse_config,
    render_config,
)
from .convection import PROFILES, AnalyticConvectionSolution, run_convection
from .errors import ConfigurationError, DivergenceError
from .liouville import liouville_solve_gpc
from .metrics import MomentField, l1_norm, nodal_h_norm
from .sweeps import gpc_error_sweep, mesh_error_sweep

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(value) for value in row])
    print("wrote %s" % path)


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
    _write_csv(
        out / "moments.csv",
        list(lead) + ["expectation", "variance"],
        np.column_stack(lead_cols + moment_cols),
    )
    values = values.reshape(lead_cols[0].size, -1)
    _write_csv(
        out / "coeffs.csv", list(lead) + value_header, np.column_stack(lead_cols + [values])
    )


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {
        "problem": config.problem,
        "mode": config.mode,
        "order": config.order,
        "t_final": config.t_final,
        "dt": config.dt,
        "threads": config.threads,
        "profile": config.profile,
    }
    if config.k is not None:
        echo["k"] = config.k
    if config.m is not None:
        echo["m"] = config.m
    if config.mode == "deterministic":
        echo["z"] = config.z
    return echo


def _convection_options(config: ExperimentConfig) -> dict:
    """Scheme keywords that every convection solver takes from the config."""
    return dict(order=config.order, profile=config.profile, kind=config.limiter)


def _liouville_options(config: ExperimentConfig) -> dict:
    """Scheme keywords that every phase-space solver takes from the config."""
    return dict(
        order=config.order,
        integrator=config.integrator,
        alpha=config.alpha,
        profile=config.profile,
        kind=config.limiter,
        vflux_variant=config.vflux,
    )


def _apply_thread_env(config: ExperimentConfig) -> ExperimentConfig:
    raw = os.environ.get("STOCH_HYP_THREADS")
    if raw is None:
        return config
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigurationError(["STOCH_HYP_THREADS must be an integer"])
    if threads < 1:
        raise ConfigurationError(["STOCH_HYP_THREADS must be >= 1"])
    return replace(config, threads=threads)


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigurationError(["cannot read config file: %s" % err])
    return _apply_thread_env(parse_config(text))


def _run_convection(config: ExperimentConfig, out: Path) -> dict:
    coef, grid = convection_parts(config)
    x = grid.centers
    exact = AnalyticConvectionSolution(coef, PROFILES[config.profile])
    summary = _config_echo(config)
    summary["dx"] = grid.dx
    summary["interface_shift"] = grid.shift

    common = _convection_options(config)
    if config.mode == "gpc_sg":
        run = run_convection(
            coef, grid, config.k, config.t_final, quad_count=config.m, **common
        )
        moments = run.moments
        value_header = ["c%d" % j for j in range(config.k + 1)]
        values = run.coeffs
        errors = {
            "l1_expectation": run.report.l1_expectation,
            "l1_variance": run.report.l1_variance,
            "l1_total": run.report.l1,
            "h_distance": run.report.h_norm,
        }
        diag = run.diagnostics
    elif config.mode == "collocation":
        run = collocation_convection(coef, grid, config.m, config.t_final, **common)
        moments = run.moments
        value_header = ["node%d" % j for j in range(run.rule.count)]
        values = run.fields
        exact_moments = exact.moments(x, config.t_final)
        exact_nodal = exact.value(x[:, None], config.t_final, run.rule.nodes[None, :])
        l1_e = l1_norm(moments.expectation - exact_moments.expectation, grid.dx)
        l1_v = l1_norm(moments.variance - exact_moments.variance, grid.dx)
        errors = {
            "l1_expectation": l1_e,
            "l1_variance": l1_v,
            "l1_total": l1_e + l1_v,
            "h_distance": nodal_h_norm(run.fields - exact_nodal, grid.dx, run.rule),
        }
        diag = run.diagnostics
    else:
        values, diag = convection_solve_nodal(
            coef, grid, [config.z], config.t_final, **common
        )
        values = values[:, 0]
        moments = MomentField(values, np.zeros_like(values))
        value_header = ["value"]
        l1_e = l1_norm(values - exact.value(x, config.t_final, config.z), grid.dx)
        errors = {
            "l1_expectation": l1_e,
            "l1_variance": 0.0,
            "l1_total": l1_e,
            "h_distance": l1_e,
        }

    _write_fields(out, {"x": x}, moments, value_header, values)
    _write_csv(out / "errors.csv", list(errors), [list(errors.values())])
    for key in ("steps", "mass_drift_abs_max", "mass_drift_rel_max", "wall_time"):
        summary[key] = diag[key]
    return summary


def _run_liouville(config: ExperimentConfig, out: Path) -> dict:
    grid, barrier = liouville_parts(config)
    xs = np.repeat(grid.x_centers, grid.nv)
    vs = np.tile(grid.v_centers, grid.nx)
    summary = _config_echo(config)
    summary["dx"] = grid.dx
    summary["dv"] = grid.dv

    common = _liouville_options(config)
    if config.mode == "gpc_sg":
        run = liouville_solve_gpc(
            grid,
            barrier,
            config.k,
            config.t_final,
            quad_count=config.m,
            **common,
        )
        moments = run.moments
        value_header = ["c%d" % j for j in range(config.k + 1)]
        values = run.field
        diag = run.diagnostics
    elif config.mode == "collocation":
        run = collocation_liouville(
            grid, barrier, config.m, config.t_final, **common
        )
        moments = run.moments
        value_header = ["node%d" % j for j in range(run.rule.count)]
        values = run.fields
        diag = run.diagnostics
    else:
        values, diag = deterministic_liouville(
            grid, barrier, config.z, config.t_final, **common
        )
        moments = MomentField(values, np.zeros_like(values))
        value_header = ["value"]

    _write_fields(out, {"x": xs, "v": vs}, moments, value_header, values)
    for key in (
        "steps",
        "mass_drift_abs_max",
        "mass_drift_rel_max",
        "stencil_truncations",
        "truncation_events",
        "wall_time",
    ):
        summary[key] = diag[key]
    for key in ("min_value", "max_value"):
        if key in diag:
            summary[key] = diag[key]
    return summary


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if config.problem == "convection":
            summary = _run_convection(config, out)
        else:
            summary = _run_liouville(config, out)
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
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.k is not None:
        if config.mode != "gpc_sg":
            raise ConfigurationError(["chaos-order sweeps need mode = gpc_sg"])
        if args.ref is None:
            raise ConfigurationError(["--k requires --ref for the reference order"])
        k_list = _parse_k_list(args.k)
        _require_monotone(k_list, "--k")
        if config.problem == "convection":
            coef, grid = convection_parts(config)
            cell = grid.dx

            def solve(k: int):
                return run_convection(
                    coef, grid, k, config.t_final, compare_analytic=False,
                    **_convection_options(config),
                ).coeffs

        else:
            grid, barrier = liouville_parts(config)
            cell = grid.dx * grid.dv

            def solve(k: int):
                return liouville_solve_gpc(
                    grid, barrier, k, config.t_final, **_liouville_options(config)
                ).field

        rows = gpc_error_sweep(solve, k_list, args.ref, cell, threads=config.threads)
        header = ["k", "l1_expectation", "l1_variance", "l1_coeff", "h_distance"]
        table = [
            [row.k, row.l1_expectation, row.l1_variance, row.l1_coeff, row.h_distance]
            for row in rows
        ]
    else:
        if config.problem != "convection":
            raise ConfigurationError(["mesh sweeps need the analytic solution (convection)"])
        if config.mode != "gpc_sg":
            raise ConfigurationError(["mesh sweeps need mode = gpc_sg"])
        dx_list = [float(tok) for tok in args.dx.split(",") if tok.strip()]
        _require_monotone(dx_list, "--dx")
        coef, _ = convection_parts(config)
        rows = mesh_error_sweep(
            coef,
            config.a,
            config.b,
            dx_list,
            config.dt / config.dx,
            config.k,
            config.t_final,
            threads=config.threads,
            **_convection_options(config),
        )
        header = ["dx", "dt", "l1_expectation", "l1_variance", "l1_total", "h_distance"]
        table = [
            [row.dx, row.dt, row.l1_expectation, row.l1_variance, row.l1_total, row.h_distance]
            for row in rows
        ]

    _write_csv(out / "sweep.csv", header, table)
    loglog = [[np.log10(v) if v > 0 else -np.inf for v in row] for row in table]
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
