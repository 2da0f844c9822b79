"""Config parsing: presets, validation with line numbers, and round-trips."""

import re

import pytest

from stochhyp import (
    ConfigurationError,
    ConvectionGrid,
    InterfaceCoefficient,
    PhaseSpaceGrid,
    PotentialBarrier,
    convection_solve_nodal,
    gauss_rule,
    liouville_solve_gpc,
    run_convection,
)
from stochhyp.config import (
    PRESETS,
    convection_parts,
    liouville_parts,
    parse_config,
    render_config,
)


def violations_of(text):
    with pytest.raises(ConfigurationError) as err:
        parse_config(text)
    return err.value.violations


def test_preset_expands_to_the_reference_interface_run():
    cfg = parse_config("preset = example1_order1\n")
    assert cfg.problem == "convection"
    assert cfg.mode == "gpc_sg"
    assert cfg.order == 1
    assert cfg.k == 20
    assert (cfg.a, cfg.b) == (-2.0, 6.0)
    assert (cfg.dx, cfg.dt) == (0.005, 0.001)
    assert (cfg.c_minus, cfg.c_plus, cfg.sigma) == (1.0, 2.0, 0.3)
    assert cfg.t_final == 1.0
    assert cfg.profile == "cos_bump"


def test_explicit_keys_override_the_preset():
    cfg = parse_config("preset = example1_order1\n[random]\nk = 4\n")
    assert cfg.k == 4
    assert cfg.dx == 0.005


def test_empty_config_lists_every_missing_key():
    found = violations_of("")
    assert "missing required key problem" in found
    assert "missing required key t_final" in found
    assert "missing required key [grid] dt" in found
    assert "missing required key [random] k" in found


def test_problem_specific_requirements():
    found = violations_of("problem = liouville\n")
    for key in ("x_lo", "x_hi", "v_hi", "nx", "nv"):
        assert "missing required key [grid] %s" % key in found
    assert not any("[grid] a" in v for v in found)


def test_unknown_names_carry_line_numbers():
    text = "problem = convection\n[stuff]\nfoo = 1\n[random]\nwobble = 2\n"
    found = violations_of(text)
    assert "line 2: unknown section [stuff]" in found
    assert "line 5: unknown key [random] wobble" in found


def test_duplicates_and_parse_failures_carry_line_numbers():
    text = "preset = example1_order1\n[random]\nk = 4\nk = 5\nsigma = much\n"
    found = violations_of(text)
    assert "line 4: duplicate key k" in found
    assert "line 5: cannot parse sigma value 'much'" in found


def test_bare_lines_and_duplicate_presets_are_reported():
    found = violations_of("preset example1_order1\npreset = a\npreset = b\n")
    assert "line 1: expected key = value" in found
    assert "line 3: duplicate key preset" in found


def test_unknown_preset_is_reported_at_its_line():
    found = violations_of("\npreset = example9\n")
    assert any(v.startswith("line 2: unknown preset") for v in found)


def test_cfl_violations_surface_during_parsing():
    found = violations_of("preset = example1_order1\n[grid]\ndt = 0.005\n")
    assert any("CFL" in v for v in found)


def test_liouville_rejects_rk2_with_second_order_fluxes():
    text = "preset = example2_order2\nintegrator = rk2\n"
    found = violations_of(text)
    assert any("euler stepping" in v and v.startswith("line 2:") for v in found)


def test_out_of_range_sample_is_rejected():
    found = violations_of("preset = example2_deterministic\n[random]\nz = 1.5\n")
    assert any("[-1, 1]" in v and v.startswith("line 3:") for v in found)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("problem = heat\n", "problem must be one of ('convection', 'liouville')"),
        (
            "preset = example1_order1\nmode = monte_carlo\n",
            "mode must be one of ('gpc_sg', 'collocation', 'deterministic')",
        ),
        ("preset = example1_collocation\n[random]\nm = 0\n", "line 3: quadrature size m must be >= 1"),
    ],
    ids=["unknown_problem", "unknown_mode", "collocation_m_0"],
)
def test_a_value_outside_its_choices_is_reported(text, expected):
    assert expected in violations_of(text)


def test_low_viscosity_is_rejected():
    found = violations_of("preset = example2_order1\n[random]\nalpha = 0.01\n")
    assert any("alpha" in v for v in found)


def test_a_bad_coefficient_does_not_hide_the_grid_rules():
    text = "preset = example1_order1\n[grid]\ndx = 0.007\n[random]\nc_minus = nan\n"
    assert violations_of(text) == [
        "base speeds must be positive",
        "(b - a) must be an integer multiple of dx",
    ]


def test_a_bad_barrier_does_not_hide_the_cfl_rule():
    text = (
        "preset = example2_order1\nt_final = 0.1\n[grid]\ndt = 0.05\n"
        "[random]\nv_left = nan\nalpha = 0.1\n"
    )
    found = violations_of(text)
    assert found[0] == "v_left, v_right and slope_amp must be finite"
    assert re.fullmatch(r"CFL number .* = 3\.49\d* exceeds 1", found[1])
    assert len(found) == 2


def test_a_bad_barrier_does_not_hide_the_cfl_rule_of_the_default_viscosity():
    # with alpha unset the viscosity is |slope_amp|, finite here
    text = (
        "preset = example2_order1\nt_final = 0.1\n[grid]\ndt = 0.05\n"
        "[random]\nv_left = nan\n"
    )
    found = violations_of(text)
    assert found[0] == "v_left, v_right and slope_amp must be finite"
    assert re.fullmatch(r"CFL number .* = 3\.49\d* exceeds 1", found[1])
    assert len(found) == 2


def test_every_preset_parses_and_round_trips():
    for name in PRESETS:
        cfg = parse_config("preset = %s\n" % name)
        assert parse_config(render_config(cfg)) == cfg


def test_parts_builders_match_the_config():
    cfg = parse_config("preset = example1_order1\n")
    coef, grid = convection_parts(cfg)
    assert coef.sigma == 0.3
    assert grid.dx == 0.005
    cfg2 = parse_config("preset = example2_order1\n")
    grid2, barrier = liouville_parts(cfg2)
    assert grid2.nx == 134
    assert barrier.v_left == 0.2
    assert barrier.max_force == pytest.approx(0.1)


def test_keys_the_problem_never_reads_are_rejected():
    text = (
        "preset = example1_order1\nintegrator = rk2\nvflux = ratio\n"
        "[random]\nalpha = 0.3\nslope_amp = 0.2\n"
    )
    found = violations_of(text)
    assert "line 2: integrator has no effect on problem = convection" in found
    assert "line 3: vflux has no effect on problem = convection" in found
    assert "line 5: [random] alpha has no effect on problem = convection" in found
    assert "line 6: [random] slope_amp has no effect on problem = convection" in found
    found = violations_of("preset = example2_order1\n[random]\nsigma = 0.2\n")
    assert found == ["line 3: [random] sigma has no effect on problem = liouville"]


def test_rendering_leaves_out_the_other_problems_keys():
    convection_text = render_config(parse_config("preset = example1_order1\n"))
    for key in ("integrator", "vflux", "v_left", "slope_amp"):
        assert key not in convection_text
    liouville_text = render_config(parse_config("preset = example2_order1\n"))
    for key in ("c_minus", "c_plus", "sigma"):
        assert key not in liouville_text
    assert "integrator = euler" in liouville_text


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "preset = example2_deterministic\n[random]\nm = 4\nk = 3\n",
            [
                "line 3: [random] m has no effect on mode = deterministic",
                "line 4: [random] k has no effect on mode = deterministic",
            ],
        ),
        (
            "preset = example1_order1\n[random]\nz = 0.5\n",
            ["line 3: [random] z has no effect on mode = gpc_sg"],
        ),
        (
            "preset = example1_collocation\n[random]\nk = 7\n",
            ["line 3: [random] k has no effect on mode = collocation"],
        ),
        (
            "preset = example1_order1\nlimiter = tanh\n",
            ["line 2: limiter has no effect at order = 1"],
        ),
        (
            "preset = example2_order2\nvflux = ratio\n",
            ["line 2: vflux has no effect at order = 2"],
        ),
        (
            "preset = example2_order2\n[random]\nalpha = 0.5\n",
            ["line 3: [random] alpha has no effect at order = 2"],
        ),
        (
            # order 1 builds only Galerkin matrices linear in z: every m >= k + 1 agrees
            "preset = example1_order1\n[random]\nm = 42\n",
            ["line 3: [random] m has no effect at order = 1"],
        ),
    ],
    ids=[
        "m_and_k_deterministic",
        "z_gpc_sg",
        "k_collocation",
        "limiter_order_1",
        "vflux_liouville_order_2",
        "alpha_liouville_order_2",
        "m_gpc_sg_order_1",
    ],
)
def test_keys_the_mode_or_order_never_reads_are_rejected(text, expected):
    assert violations_of(text) == expected


def test_a_preset_switched_to_another_mode_drops_what_it_no_longer_reads():
    cfg = parse_config("preset = example1_order1\nmode = collocation\n[random]\nm = 8\n")
    assert (cfg.mode, cfg.k, cfg.m) == ("collocation", None, 8)
    assert parse_config(render_config(cfg)) == cfg


def test_a_chaos_rule_smaller_than_the_basis_is_reported_at_m():
    found = violations_of("preset = example1_order2\n[random]\nk = 6\nm = 3\n")
    assert found == ["line 4: quadrature size m must be >= k + 1 = 7"]


CONVECTION_BASE = """\
problem = convection
t_final = 0.1
[grid]
a = -1.0
b = 1.0
dx = 0.05
dt = 0.01
[random]
k = 2
"""

LIOUVILLE_BASE = """\
problem = liouville
t_final = 0.05
[grid]
x_lo = -1.0
x_hi = 1.0
v_hi = 1.0
nx = 10
nv = 10
dt = 0.01
[random]
k = 2
"""


def _solve_convection(k=2, t_final=0.1, dt=0.01, **options):
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, dt)
    return run_convection(coef, grid, k, t_final, **options)


def _solve_convection_nodal(dt=0.01):
    coef = InterfaceCoefficient(1.0, 2.0, 0.3)
    grid = ConvectionGrid.from_spacing(-1.0, 1.0, 0.05, dt)
    return convection_solve_nodal(coef, grid, gauss_rule(3).nodes, 0.1)


def _solve_liouville(t_final=0.05, **options):
    grid = PhaseSpaceGrid(-1.0, 1.0, 1.0, 10, 10, 0.01)
    return liouville_solve_gpc(grid, PotentialBarrier(), 2, t_final, **options)


@pytest.mark.parametrize(
    "text, solve",
    [
        ("order = 3\n" + CONVECTION_BASE, lambda: _solve_convection(order=3)),
        ("profile = box\n" + CONVECTION_BASE, lambda: _solve_convection(profile="box")),
        (
            "order = 2\nlimiter = minmod\n" + CONVECTION_BASE,
            lambda: _solve_convection(order=2, kind="minmod"),
        ),
        (
            "order = 2\nintegrator = rk2\n" + LIOUVILLE_BASE,
            lambda: _solve_liouville(order=2, integrator="rk2"),
        ),
        (LIOUVILLE_BASE + "alpha = 0.01\n", lambda: _solve_liouville(alpha=0.01)),
        (CONVECTION_BASE.replace("dt = 0.01", "dt = 0.05"), lambda: _solve_convection(dt=0.05)),
        (
            "mode = collocation\n"
            + CONVECTION_BASE.replace("dt = 0.01", "dt = 0.05").replace("k = 2", "m = 3"),
            lambda: _solve_convection_nodal(dt=0.05),
        ),
        (LIOUVILLE_BASE + "alpha = 20\n", lambda: _solve_liouville(alpha=20.0)),
        (
            CONVECTION_BASE.replace("t_final = 0.1", "t_final = 0.105"),
            lambda: _solve_convection(t_final=0.105),
        ),
        (
            "order = 2\n" + CONVECTION_BASE.replace("k = 2", "k = 6\nm = 3"),
            lambda: _solve_convection(k=6, quad_count=3, order=2),
        ),
        (
            "order = 2\n" + LIOUVILLE_BASE + "m = 2\n",
            lambda: _solve_liouville(quad_count=2, order=2),
        ),
        (
            "order = 2\n"
            + CONVECTION_BASE.replace("t_final = 0.1", "t_final = 0.105")
            .replace("k = 2", "k = 6\nm = 3"),
            lambda: _solve_convection(k=6, quad_count=3, order=2, t_final=0.105),
        ),
        (
            "order = 2\n" + LIOUVILLE_BASE.replace("t_final = 0.05", "t_final = 0.055") + "m = 2\n",
            lambda: _solve_liouville(quad_count=2, order=2, t_final=0.055),
        ),
        ("order = 3\n" + LIOUVILLE_BASE, lambda: _solve_liouville(order=3)),
        ("integrator = rk4\n" + LIOUVILLE_BASE, lambda: _solve_liouville(integrator="rk4")),
        ("vflux = upwind\n" + LIOUVILLE_BASE, lambda: _solve_liouville(vflux_variant="upwind")),
        (
            CONVECTION_BASE.replace("t_final = 0.1", "t_final = -0.1"),
            lambda: _solve_convection(t_final=-0.1),
        ),
    ],
    ids=[
        "order_3",
        "unknown_profile",
        "unknown_limiter",
        "order_2_rk2",
        "low_alpha",
        "cfl_breach",
        "convection_nodal_cfl_breach",
        "liouville_cfl_breach",
        "non_integer_steps",
        "convection_m_below_k_plus_1",
        "liouville_m_below_k_plus_1",
        "convection_steps_and_m_in_config_order",
        "liouville_steps_and_m_in_config_order",
        "liouville_order_3",
        "liouville_unknown_integrator",
        "liouville_unknown_vflux",
        "negative_t_final",
    ],
)
def test_config_and_solver_reject_a_setting_with_the_same_message(text, solve):
    # config runs the solvers' own rules and only adds the line number
    from_config = [re.sub(r"^line \d+: ", "", v) for v in violations_of(text)]
    with pytest.raises(ConfigurationError) as err:
        solve()
    assert err.value.violations == from_config
