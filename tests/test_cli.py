"""Command line harness: exit codes, output files, and reproducibility."""

import numpy as np
import pytest

from stochhyp.cli import main
from stochhyp.config import PRESETS, parse_config

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
    text = "preset = example1_order1\nt_final = 0.1\n\n[random]\nk = 6\nm = 3\n"
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
    cfg = write_config(tmp_path, CONV_SMALL)
    assert main(["sweep", cfg]) == 2
    assert main(["sweep", cfg, "--k", "0..2", "--dx", "0.1"]) == 2
    assert main(["sweep", cfg, "--k", "0..2"]) == 2  # no --ref
    assert main(["sweep", cfg, "--k", "2,2,2", "--ref", "4"]) == 2  # not monotone
    liou = write_config(tmp_path, LIOU_SMALL, name="liou.cfg")
    assert main(["sweep", liou, "--dx", "0.1,0.05"]) == 2  # mesh sweeps are convection-only
    capsys.readouterr()


def test_sweeps_reject_a_quadrature_size(tmp_path, capsys):
    cfg = write_config(tmp_path, CONV_SMALL + "m = 4\n")
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


def test_thread_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, CONV_SMALL)
    assert main(["sweep", cfg, "--k", "0,2", "--ref", "4"]) == 0
    serial = (tmp_path / "out" / "sweep.csv").read_bytes()
    monkeypatch.setenv("STOCH_HYP_THREADS", "2")
    assert main(["sweep", cfg, "--k", "0,2", "--ref", "4"]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == serial
    monkeypatch.setenv("STOCH_HYP_THREADS", "banana")
    assert main(["run", cfg]) == 2
    monkeypatch.setenv("STOCH_HYP_THREADS", "0")
    assert main(["run", cfg]) == 2
