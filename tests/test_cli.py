"""Command line harness: exit codes, output files, and reproducibility."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stochhyp import (
    PROFILES,
    AnalyticConvectionSolution,
    ConvectionGrid,
    InterfaceCoefficient,
    MomentField,
    OrthonormalBasis,
    PhaseSpaceGrid,
    PotentialBarrier,
    convection_solve_nodal,
    deterministic_liouville,
    gauss_rule,
    l1_norm,
    liouville_solve_gpc,
    liouville_solve_nodal,
    moments_from_samples,
    run_convection,
)
from stochhyp.cli import _fmt, _write_csv, main
from stochhyp.config import PRESETS, parse_config
from stochhyp.metrics import error_quadrature_size, nodal_h_norm

CONV_SMALL = """\
problem = convection
mode = gpc_sg
t_final = 0.1

[grid]
a = -1.0
b = 1.0
dx = 0.05
dt = 0.01

[random]
k = 2
"""

LIOU_SMALL = """\
problem = liouville
mode = deterministic
t_final = 0.05

[grid]
x_lo = -1.0
x_hi = 1.0
v_hi = 1.0
nx = 10
nv = 10
dt = 0.01
"""


def write_config(tmp_path, text, out_name="out", name="exp.cfg"):
    body = text + "\n[output]\ndir = %s\n" % (tmp_path / out_name)
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_writes_the_output_bundle(tmp_path):
    cfg = write_config(tmp_path, CONV_SMALL)
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    for name in ("moments.csv", "coeffs.csv", "errors.csv", "run.txt"):
        assert (out / name).exists()
    header, rows = read_rows(out / "moments.csv")
    assert header == ["x", "expectation", "variance"]
    assert len(rows) == 40
    header, rows = read_rows(out / "coeffs.csv")
    assert header == ["x", "c0", "c1", "c2"]
    summary = (out / "run.txt").read_text()
    assert "status = ok" in summary
    assert "steps = 10" in summary


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, CONV_SMALL)
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    first = {n: (out / n).read_bytes() for n in ("moments.csv", "coeffs.csv", "errors.csv")}
    assert main(["run", cfg]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the per-node masses are numpy sums in one fixed order; a BLAS product
    # with a vector of ones splits a long sum over its threads, and the mass
    # lines of run.txt then moved in their last bits with the thread count
    outputs = []
    for threads in ("1", "2"):
        cfg = write_config(
            tmp_path, "preset = example2_deterministic\nt_final = 0.1\n",
            out_name="out%s" % threads, name="threads%s.cfg" % threads,
        )
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        )
        code = "import sys; from stochhyp.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", code, "run", cfg], env=env, check=True, capture_output=True)
        files = {}
        for path in sorted((tmp_path / ("out%s" % threads)).iterdir()):
            lines = path.read_bytes().splitlines(keepends=True)
            files[path.name] = b"".join(l for l in lines if not l.startswith(b"wall_time = "))
        outputs.append(files)
    assert "run.txt" in outputs[0] and "moments.csv" in outputs[0]
    assert outputs[0].keys() == outputs[1].keys()
    for name, blob in outputs[0].items():
        assert outputs[1][name] == blob, name


def test_liouville_run_emits_phase_space_columns(tmp_path):
    cfg = write_config(tmp_path, LIOU_SMALL)
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    header, rows = read_rows(out / "moments.csv")
    assert header == ["x", "v", "expectation", "variance"]
    assert len(rows) == 100
    summary = (out / "run.txt").read_text()
    assert "min_value" in summary and "max_value" in summary
    assert "truncation_events" in summary


def per_value_csv(header, rows):
    # the writer's bytes as _fmt gives them, one value at a time
    lines = [",".join(header)] + [",".join(_fmt(value) for value in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def test_float_tables_are_written_as_per_value_formatting(tmp_path):
    specials = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 2.0, 0.1]
    rng = np.random.default_rng(3)
    table = np.concatenate([np.array(specials).reshape(2, 4), rng.standard_normal((2500, 4))])
    path = tmp_path / "table.csv"
    _write_csv(path, ["a", "b", "c", "d"], table)
    assert path.read_text() == per_value_csv(["a", "b", "c", "d"], table)
    assert path.read_text().splitlines()[1:3] == [
        "-0,nan,inf,-inf", "4.9406564584124654e-324,1.0000000000000001e+300,2,0.10000000000000001"
    ]


def test_sweep_tables_keep_their_integer_column(tmp_path):
    table = [(2, 0.5, 1e-3), (4, 0.25, np.float64(-0.0))]
    path = tmp_path / "sweep.csv"
    _write_csv(path, ["k", "err", "h"], table)
    assert path.read_text() == "k,err,h\n2,0.5,0.001\n4,0.25,-0\n"
    assert path.read_text() == per_value_csv(["k", "err", "h"], table)


def test_writing_a_float_table_stays_below_its_own_size(tmp_path):
    table = np.random.default_rng(4).standard_normal((20000, 13))
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", ["c%d" % j for j in range(13)], table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes


def test_check_reports_ok_or_fails_with_exit_2(tmp_path, capsys):
    good = write_config(tmp_path, CONV_SMALL)
    assert main(["check", good]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem = convection\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "missing required key" in err
    assert main(["check", str(tmp_path / "absent.cfg")]) == 2


def test_small_chaos_rule_fails_check_and_run_with_exit_2(tmp_path, capsys):
    text = "preset = example1_order2\nt_final = 0.1\n\n[random]\nk = 6\nm = 3\n"
    cfg = write_config(tmp_path, text)
    assert main(["check", cfg]) == 2
    assert "line 6: quadrature size m must be >= k + 1" in capsys.readouterr().err
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "out").exists()


def test_divergence_exits_3_and_records_the_blowup(tmp_path, capsys):
    cfg = write_config(tmp_path, CONV_SMALL + "\n[random]\nsigma = nan\n")
    # the nan coefficient defeats every magnitude guard, then poisons step 1
    code = main(["run", cfg])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    summary = (tmp_path / "out" / "run.txt").read_text()
    assert "status = diverged" in summary
    assert "step = 1" in summary
    assert "cell" in summary
    # a diverged sweep leaves no output directory behind
    sweep = write_config(tmp_path, CONV_SMALL + "\n[random]\nsigma = nan\n", "sweep_out", "sweep.cfg")
    for flags in (["--k", "0,1", "--ref", "2"], ["--dx", "0.05"]):
        assert main(["sweep", sweep, *flags]) == 3
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "sweep_out").exists()


def test_presets_lists_and_shows(tmp_path, capsys):
    assert main(["presets"]) == 0
    names = capsys.readouterr().out.split()
    assert names == list(PRESETS)
    assert main(["presets", "--show", "example1_order1"]) == 0
    shown = capsys.readouterr().out
    cfg = parse_config(shown)
    assert cfg.problem == "convection"
    assert cfg.k == 20
    assert main(["presets", "--show", "nope"]) == 2


def test_sweep_flag_validation(tmp_path, capsys):
    # a rejected sweep writes nothing, not even its output directory
    out = tmp_path / "out"
    cfg = write_config(tmp_path, CONV_SMALL)
    assert main(["sweep", cfg]) == 2
    assert not out.exists()
    assert main(["sweep", cfg, "--k", "0..2", "--dx", "0.1"]) == 2
    assert not out.exists()
    assert main(["sweep", cfg, "--k", "0..2"]) == 2  # no --ref
    assert not out.exists()
    assert main(["sweep", cfg, "--k", "2,2,2", "--ref", "4"]) == 2  # not monotone
    assert not out.exists()
    capsys.readouterr()
    assert main(["sweep", cfg, "--k", ",", "--ref", "4"]) == 2
    assert "--k expects values like 2..20 or 2,4,8" in capsys.readouterr().err
    assert not out.exists()
    # a malformed token is a config error that names it, not a traceback
    assert main(["sweep", cfg, "--k", "2..x", "--ref", "4"]) == 2
    assert "--k: cannot read '2..x'" in capsys.readouterr().err
    assert main(["sweep", cfg, "--dx", "0.02,abc"]) == 2
    assert "--dx: cannot read 'abc'" in capsys.readouterr().err
    assert main(["sweep", cfg, "--dx", ","]) == 2
    assert "--dx expects values like 0.02,0.01" in capsys.readouterr().err
    assert not out.exists()
    # Liouville has no analytic solution to score a mesh against
    liou_text = LIOU_SMALL.replace("mode = deterministic", "mode = gpc_sg") + "\n[random]\nk = 2\n"
    liou = write_config(tmp_path, liou_text, name="liou.cfg")
    assert main(["sweep", liou, "--dx", "0.1,0.05"]) == 2
    assert "mesh sweeps need the analytic solution" in capsys.readouterr().err
    assert not out.exists()


def test_sweeps_reject_a_quadrature_size(tmp_path, capsys):
    # m acts on a gpc_sg run at order 2 only
    cfg = write_config(tmp_path, "order = 2\n" + CONV_SMALL + "m = 4\n")
    assert main(["check", cfg]) == 0
    assert main(["sweep", cfg, "--k", "0,2", "--ref", "4"]) == 2
    assert main(["sweep", cfg, "--dx", "0.05"]) == 2
    assert "[random] m has no effect on sweep" in capsys.readouterr().err


def test_chaos_sweep_needs_galerkin_mode(tmp_path, capsys):
    text = CONV_SMALL.replace("mode = gpc_sg", "mode = collocation").replace(
        "k = 2", "m = 4"
    )
    cfg = write_config(tmp_path, text)
    assert main(["sweep", cfg, "--k", "0..2", "--ref", "4"]) == 2
    assert "gpc_sg" in capsys.readouterr().err


def test_chaos_sweep_writes_tables(tmp_path):
    cfg = write_config(tmp_path, CONV_SMALL)
    assert main(["sweep", cfg, "--k", "0,2", "--ref", "4"]) == 0
    out = tmp_path / "out"
    header, rows = read_rows(out / "sweep.csv")
    assert header == ["k", "l1_expectation", "l1_variance", "l1_coeff", "h_distance"]
    assert [r[0] for r in rows] == ["0", "2"]
    assert float(rows[1][4]) < float(rows[0][4])
    header, _ = read_rows(out / "sweep_loglog.csv")
    assert header[0] == "log10_k"


def test_single_point_mesh_sweep_matches_the_run_errors(tmp_path):
    cfg = write_config(tmp_path, CONV_SMALL)
    assert main(["run", cfg]) == 0
    _, err_rows = read_rows(tmp_path / "out" / "errors.csv")
    run_errors = [float(v) for v in err_rows[0]]
    assert main(["sweep", cfg, "--dx", "0.05"]) == 0
    _, sweep_rows = read_rows(tmp_path / "out" / "sweep.csv")
    sweep_errors = [float(v) for v in sweep_rows[0][2:]]
    np.testing.assert_allclose(sweep_errors, run_errors, rtol=1e-10)


NON_FINITE = {
    "t_final_nan": CONV_SMALL.replace("t_final = 0.1", "t_final = nan"),
    "t_final_inf": LIOU_SMALL.replace("t_final = 0.05", "t_final = inf"),
    "convection_dt_nan": CONV_SMALL.replace("dt = 0.01", "dt = nan"),
    "liouville_dt_nan": LIOU_SMALL.replace("dt = 0.01", "dt = nan"),
    "dx_nan": CONV_SMALL.replace("dx = 0.05", "dx = nan"),
    "v_hi_nan": LIOU_SMALL.replace("v_hi = 1.0", "v_hi = nan"),
    "a_minus_inf": CONV_SMALL.replace("a = -1.0", "a = -inf"),
    "x_lo_minus_inf": LIOU_SMALL.replace("x_lo = -1.0", "x_lo = -inf"),
    "v_left_nan": LIOU_SMALL + "\n[random]\nv_left = nan\n",
    "v_right_inf": LIOU_SMALL + "\n[random]\nv_right = inf\n",
    "alpha_nan": LIOU_SMALL + "\n[random]\nalpha = nan\n",
    "slope_amp_nan": LIOU_SMALL + "\n[random]\nslope_amp = nan\n",
    "z_nan": LIOU_SMALL + "\n[random]\nz = nan\n",
    "c_minus_nan": CONV_SMALL + "c_minus = nan\n",
}


@pytest.mark.parametrize("text", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_non_finite_grid_or_time_values_exit_2(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert main(["check", cfg]) == 2
    assert main(["run", cfg]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


MODE_KEYS = {"gpc_sg": "k = 2", "collocation": "m = 3", "deterministic": "z = 0.3"}


def _pair_text(problem, mode):
    if problem == "convection":
        return CONV_SMALL.replace(
            "mode = gpc_sg", "mode = %s\norder = 2\nlimiter = tanh" % mode
        ).replace("k = 2", MODE_KEYS[mode])
    return LIOU_SMALL.replace("deterministic", mode) + "\n[random]\nalpha = 0.2\n%s\n" % (
        MODE_KEYS[mode]
    )


def _moment_errors(coef, grid, moments, samples, rule):
    """errors.csv columns of a gpc_sg or collocation run: l1 against the exact
    moments, mixed distance of the samples at `rule` to the exact values."""
    exact = AnalyticConvectionSolution(coef, PROFILES["cos_bump"])
    x = grid.centers
    exact_moments = exact.moments(x, 0.1)
    l1_e = l1_norm(moments.expectation - exact_moments.expectation, grid.dx)
    l1_v = l1_norm(moments.variance - exact_moments.variance, grid.dx)
    exact_nodal = exact.value(x[:, None], 0.1, rule.nodes[None, :])
    return [l1_e, l1_v, l1_e + l1_v, nodal_h_norm(samples - exact_nodal, grid.dx, rule)]


def _convection_reference(mode):
    """Values, moments and errors from the library solvers, as the run before this CLI."""
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, 0.01)
    options = dict(order=2, kind="tanh")
    if mode == "gpc_sg":
        run = run_convection(coef, grid, 2, 0.1, **options)
        moments = MomentField.from_coeffs(run.coeffs)
        rule = gauss_rule(error_quadrature_size(2))
        samples = run.coeffs @ OrthonormalBasis(2).values(rule.nodes)
        errors = _moment_errors(coef, grid, moments, samples, rule)
        return run.coeffs, moments.expectation, moments.variance, errors
    if mode == "collocation":
        rule = gauss_rule(3)
        fields, _ = convection_solve_nodal(coef, grid, rule.nodes, 0.1, **options)
        moments = moments_from_samples(fields, rule)
        errors = _moment_errors(coef, grid, moments, fields, rule)
        return fields, moments.expectation, moments.variance, errors
    values = convection_solve_nodal(coef, grid, [0.3], 0.1, **options)[0][:, 0]
    exact = AnalyticConvectionSolution(coef, PROFILES["cos_bump"])
    l1_e = l1_norm(values - exact.value(grid.centers, 0.1, 0.3), grid.dx)
    return values, values, np.zeros_like(values), [l1_e, 0.0, l1_e, l1_e]


def _liouville_reference(mode):
    grid = PhaseSpaceGrid(-1.0, 1.0, 1.0, 10, 10, 0.01)
    barrier = PotentialBarrier()
    if mode == "gpc_sg":
        run = liouville_solve_gpc(grid, barrier, 2, 0.05, alpha=0.2)
        moments = MomentField.from_coeffs(run.field)
        return run.field, moments.expectation, moments.variance, None
    if mode == "collocation":
        rule = gauss_rule(3)
        run = liouville_solve_nodal(grid, barrier, rule.nodes, 0.05, alpha=0.2)
        moments = moments_from_samples(run.field, rule)
        return run.field, moments.expectation, moments.variance, None
    values, _ = deterministic_liouville(grid, barrier, 0.3, 0.05, alpha=0.2)
    return values, values, np.zeros_like(values), None


def _table(path, lead):
    header, rows = read_rows(path)
    return np.array([[float(v) for v in row[lead:]] for row in rows])


@pytest.mark.parametrize("mode", list(MODE_KEYS))
@pytest.mark.parametrize("problem", ["convection", "liouville"])
def test_run_writes_the_library_solvers_arrays(tmp_path, problem, mode):
    assert main(["run", write_config(tmp_path, _pair_text(problem, mode))]) == 0
    out = tmp_path / "out"
    reference = _convection_reference if problem == "convection" else _liouville_reference
    values, expectation, variance, errors = reference(mode)
    lead = 1 if problem == "convection" else 2
    # 17 significant digits round-trip every double, so the match is exact
    moments = _table(out / "moments.csv", lead)
    np.testing.assert_array_equal(moments[:, 0], expectation.reshape(-1))
    np.testing.assert_array_equal(moments[:, 1], variance.reshape(-1))
    coeffs = _table(out / "coeffs.csv", lead)
    np.testing.assert_array_equal(coeffs, values.reshape(len(coeffs), -1))
    if errors is None:
        assert not (out / "errors.csv").exists()
    else:
        np.testing.assert_array_equal(_table(out / "errors.csv", 0)[0], errors)
