"""Workload definitions: seeded configs and the correctness check of each run.

Every workload is a built-in preset driven through the `stochhyp` command
line.  Seed 0 is the preset exactly; any other seed redraws the physical
coefficients inside ranges that keep the CFL condition and the preset's
qualitative behaviour, while grid, chaos order and step count stay fixed so
the cost of a run does not depend on the seed.

Each check compares the program's output files with a reference that does
not come from the code path being timed, and states its tolerance and why.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# z values at which the Liouville gPC field is compared with deterministic
# solves; off the Gauss nodes, and one near the end of the interval where a
# truncated expansion is least accurate
PROBE_Z = (-0.75, 0.2, 0.9)


@dataclass(frozen=True)
class Workload:
    preset: str
    problem: str
    command: tuple[str, ...]


SWEEP_ORDERS = list(range(2, 21))
SWEEP_REF = 30

# why each workload is in the benchmark is recorded in BENCHMARK.json and
# README.md.  convection_sg2 fails its check on every seed (the order-2 SG
# blow-up of ROADMAP item 3), so BENCHMARK.json leaves it out until that is
# fixed; it stays runnable here and still reports correct: false.
WORKLOADS = {
    "liouville_sg1": Workload("example2_order1", "liouville", ("run",)),
    "liouville_sg2": Workload("example2_order2", "liouville", ("run",)),
    "convection_sg2": Workload("example1_order2", "convection", ("run",)),
    "convection_ksweep": Workload("example1_order1", "convection", (
        "sweep", "--k", "%d..%d" % (SWEEP_ORDERS[0], SWEEP_ORDERS[-1]), "--ref", str(SWEEP_REF),
    )),
}


def sweep_points() -> int:
    """Solves in one chaos-order sweep, the reference included."""
    return len(SWEEP_ORDERS) + 1


def draw_coefficients(workload: Workload, seed: int) -> dict[str, float]:
    """Physical coefficients for a seed; empty for seed 0 (the preset)."""
    if seed == 0:
        return {}
    # the standard library generator: numpy.random would add its own
    # extension modules to the process, and so to peak_rss_mb, on seeds > 0
    rng = random.Random(seed)
    if workload.problem == "convection":
        # presets use 1.0, 2.0, 0.3: the fastest characteristic
        # (c_plus + sigma)*dt/dx stays <= 0.56 and the bump stays inside
        # [a, b] up to t_final, so no mass leaves the domain
        return {
            "c_minus": float(rng.uniform(0.8, 1.2)),
            "c_plus": float(rng.uniform(1.6, 2.4)),
            "sigma": float(rng.uniform(0.2, 0.4)),
        }
    # presets use 0.2 and 0.1: the LF viscosity alpha = slope_amp keeps
    # dt*(max|v|/dx + alpha/dv) well below 1 across this range
    return {
        "v_left": float(rng.uniform(0.15, 0.25)),
        "slope_amp": float(rng.uniform(0.05, 0.15)),
    }


def config_text(workload: Workload, seed: int, out_dir: Path, threads: int | None) -> str:
    lines = ["preset = %s" % workload.preset]
    if threads is not None:
        lines.append("threads = %d" % threads)
    lines.append("[random]")
    lines += ["%s = %r" % item for item in draw_coefficients(workload, seed).items()]
    lines += ["[output]", "dir = %s" % out_dir]
    return "\n".join(lines) + "\n"


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as handle:
        header = next(csv.reader(handle))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _read_summary(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def _legendre_orthonormal(k: int, z: float) -> np.ndarray:
    # computed with numpy's Legendre module, independently of stochhyp.gpc
    return np.polynomial.legendre.legvander(np.array([z]), k)[0] * np.sqrt(
        2.0 * np.arange(k + 1) + 1.0
    )


@dataclass
class Verdict:
    ok: bool
    error_l1: float
    mass_drift_rel: float | None
    detail: str


class Checker:
    """Checks the outputs of one workload config; references are built once."""

    def __init__(self, package, workload: Workload, text: str):
        self.pkg = package
        self.workload = workload
        self.config = package.config.parse_config(text)
        self._reference = None

    def check(self, exit_code: int, out: Path, solve_results) -> Verdict:
        if exit_code != 0:
            return Verdict(False, math.nan, None, "exit code %d" % exit_code)
        if self.workload.command[0] == "sweep":
            return self._check_sweep(out, solve_results)
        summary = _read_summary(out / "run.txt")
        if summary.get("status") != "ok":
            return Verdict(False, math.nan, None, "status %s" % summary.get("status"))
        drift = float(summary["mass_drift_rel_max"])
        if self.workload.problem == "convection":
            return self._check_convection_run(out, drift)
        return self._check_liouville_run(out, drift)

    # convection ----------------------------------------------------------

    def _analytic_moments(self):
        if self._reference is None:
            pkg, cfg = self.pkg, self.config
            coef, grid = pkg.config.convection_parts(cfg)
            exact = pkg.convection.AnalyticConvectionSolution(
                coef, pkg.convection.PROFILES[cfg.profile]
            )
            self._reference = (grid, exact.moments(grid.centers, cfg.t_final))
        return self._reference

    def _convection_error(self, expectation, variance) -> tuple[float, float]:
        """Absolute l1 error of E+Var against the analytic solution, and its share."""
        grid, exact = self._analytic_moments()
        err = float(
            np.sum(np.abs(expectation - exact.expectation))
            + np.sum(np.abs(variance - exact.variance))
        ) * grid.dx
        size = float(np.sum(np.abs(exact.expectation)) + np.sum(np.abs(exact.variance)))
        return err, err / (size * grid.dx)

    def _tolerance(self) -> float:
        # the schemes converge at half order across the interface (acceptance
        # criterion 3), so a solution at mesh width dx is off by O(sqrt(dx))
        # relative to the size of its moments; larger means no solution
        grid, _ = self._analytic_moments()
        return math.sqrt(grid.dx)

    def _check_convection_run(self, out: Path, drift: float) -> Verdict:
        _, moments = _read_table(out / "moments.csv")
        err, rel = self._convection_error(moments[:, 1], moments[:, 2])
        tol = self._tolerance()
        ok = math.isfinite(rel) and rel <= tol
        return Verdict(ok, err, drift, "relative l1(E+Var) %.3g, tolerance %.3g" % (rel, tol))

    def _check_sweep(self, out: Path, solve_results) -> Verdict:
        header, table = _read_table(out / "sweep.csv")
        ks = [int(k) for k in table[:, 0]]
        if ks != SWEEP_ORDERS:
            return Verdict(False, math.nan, None, "sweep orders %s" % ks)
        h = dict(zip(ks, table[:, header.index("h_distance")]))
        # acceptance criterion 2 on the even orders: spectral decay is concave
        # in log scale and monotone, except at roundoff (<1e-12), where one
        # non-decrease is allowed
        concave = h[8] / h[4] < h[4] / h[2] and h[16] / h[8] < h[8] / h[4]
        hard = [k for k in range(4, 21, 2) if not h[k] < h[k - 2] and max(h[k], h[k - 2]) >= 1e-12]
        soft = sum(1 for k in range(4, 21, 2) if not h[k] < h[k - 2])
        decay_ok = concave and not hard and soft <= 1
        refs = [r for r in solve_results if r.coeffs.shape[1] == SWEEP_REF + 1]
        if not refs:
            return Verdict(False, math.nan, None, "no reference-order solve seen")
        coeffs = refs[-1].coeffs
        err, rel = self._convection_error(coeffs[:, 0], np.sum(coeffs[:, 1:] ** 2, axis=1))
        tol = self._tolerance()
        drift = max(float(r.diagnostics["mass_drift_rel_max"]) for r in solve_results)
        ok = decay_ok and math.isfinite(rel) and rel <= tol
        detail = "decay concave %s, hard %d, soft %d; reference relative l1 %.3g, tolerance %.3g" % (
            concave, len(hard), soft, rel, tol,
        )
        return Verdict(ok, err, drift, detail)

    # liouville -------------------------------------------------------------

    def _probes(self):
        if self._reference is None:
            pkg, cfg = self.pkg, self.config
            grid, barrier = pkg.config.liouville_parts(cfg)
            fields = []
            for z in PROBE_Z:
                field, _ = pkg.baselines.deterministic_liouville(
                    grid, barrier, z, cfg.t_final,
                    order=cfg.order, integrator=cfg.integrator, alpha=cfg.alpha,
                    profile=cfg.profile, kind=cfg.limiter, vflux_variant=cfg.vflux,
                )
                fields.append(field.reshape(-1))
            init = pkg.liouville.PHASE_PROFILES[cfg.profile](
                grid.x_centers[:, None], grid.v_centers[None, :]
            )
            self._reference = (grid, fields, float(init.sum()))
        return self._reference

    def _check_liouville_run(self, out: Path, drift: float) -> Verdict:
        grid, probes, init_sum = self._probes()
        header, coeffs = _read_table(out / "coeffs.csv")
        modes = coeffs[:, 2:]
        gaps = []
        for z, det in zip(PROBE_Z, probes):
            gpc = modes @ _legendre_orthonormal(modes.shape[1] - 1, z)
            gaps.append(float(np.sum(np.abs(gpc - det)) / np.sum(np.abs(det))))
        gap = max(gaps)
        # the probe gap is the chaos truncation and aliasing error, which the
        # method must keep below the scheme's own mesh error, O(dx**order)
        tol = grid.dx ** self.config.order
        # mode 0 of the final field against the initial data: the final
        # drift can be no larger than the largest drift the solver reports
        # (1e-12 absorbs the different summation order)
        final_drift = abs(float(modes[:, 0].sum()) - init_sum) / abs(init_sum)
        mass_ok = final_drift <= drift * (1.0 + 1e-9) + 1e-12
        ok = math.isfinite(gap) and gap <= tol and mass_ok
        detail = "probe relative l1 %s, tolerance %.3g; final drift %.3g vs reported %.3g" % (
            ", ".join("%.3g" % g for g in gaps), tol, final_drift, drift,
        )
        return Verdict(ok, gap, drift, detail)
