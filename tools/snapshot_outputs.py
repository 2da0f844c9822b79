"""Write the command line's outputs on a fixed set of runs, for a byte-identity check.

Usage (from the repository root):

    python3 tools/snapshot_outputs.py OUT_DIR

Runs `stochhyp run` at t_final = 0.1 on every built-in preset and on nineteen
preset variants (`VARIANTS`: order-2 collocation and deterministic runs of
both problems, `example1_order2` and `example2_order2` on rules of m =
k + 1 nodes, the `tanh` and `sqrt_rational` limiters, `example2_order2`
with the `sqrt_rational` limiter and a step too high to climb,
`example2_order1` with the potential step reversed, made too high to
climb, and removed, rk2 runs of
`example2_order1` and `example2_collocation`, `example2_order1` with
`vflux = ratio`, `example2_order1` and `example2_order2` on a v
window narrow enough that density reaches its boundary rows,
`example2_order2` on x in [-1.92, 2.1], which moves the barrier to x-edge
64 of 134: there a block boundary of the step's 16-row blocks, which end
in a short block of 6 rows, `example2_order1` on x in [-1.98, 2.04], which
moves it to x-edge 66, the boundary between the second and third of the
order-1 step's 33-row blocks, and `example2_order1` on x in [-0.99, 0.99],
where the quarter disk touches the left x boundary edge), and four sweeps
(`SWEEPS`): on `example1_order1` the chaos-order sweep `--k 2..8 --ref 12`
and the mesh sweep `--dx 0.02,0.01,0.005`, the mesh sweep `--dx 0.04,0.02`
of `example1_order2` with the `tanh` limiter, k = 4 and t_final = 0.2, and
the mesh sweep `--dx 0.02,0.01` of `example1_order1` on two threads; each
command writes into its own subdirectory of OUT_DIR, which must not exist
yet.  The package is imported from the `src/` of the
checkout this file sits in.  `exit_codes.txt` records each command's exit
code, and the `wall_time` line is dropped from every `run.txt`, so
`diff -r` of the snapshots of two checkouts is empty exactly when their
outputs agree byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stochhyp import cli  # noqa: E402
from stochhyp.config import PRESETS  # noqa: E402

# name -> (preset, config lines after it); these reach the order-2 nodal step
# outside gPC, the order-2 SG steps on a rule other than the default (there
# they are (k + 1)-node collocation), the limiter maps that no preset uses,
# the barrier stencil's truncated, all-reflecting and no-jump rows at either
# order, the rk2
# stages of the gPC and nodal steps, the ratio v-flux, the boundary edges of
# both v-fluxes, the barrier on a boundary between two blocks of x-rows at
# either order, and density at an x boundary edge, where the zero-gradient
# ghost feeds it in
VARIANTS = {
    "convection_order2_collocation": ("example1_collocation", "order = 2\n[random]\nm = 6\n"),
    "convection_order2_deterministic": (
        "example1_order1",
        "mode = deterministic\norder = 2\nlimiter = sqrt_rational\n[random]\nz = 0.3\n",
    ),
    "convection_order2_m_k1": ("example1_order2", "[random]\nm = 21\n"),
    "convection_order2_tanh": ("example1_order2", "limiter = tanh\n"),
    "liouville_order2_collocation": ("example2_collocation", "order = 2\n[random]\nm = 5\n"),
    "liouville_order2_deterministic": ("example2_deterministic", "order = 2\nlimiter = tanh\n"),
    "liouville_step_reversed": ("example2_order1", "[random]\nv_left = 0.0\nv_right = 0.2\n"),
    "liouville_rigid_step": ("example2_order1", "[random]\nv_left = 5.0\n"),
    "liouville_order2_m_k1": ("example2_order2", "[random]\nm = 11\n"),
    "liouville_order2_rigid_step": (
        "example2_order2", "limiter = sqrt_rational\n[random]\nv_left = 5.0\n"
    ),
    "liouville_no_jump": ("example2_order1", "[random]\nv_right = 0.2\n"),
    "liouville_rk2": ("example2_order1", "integrator = rk2\n"),
    "liouville_rk2_collocation": ("example2_collocation", "integrator = rk2\n"),
    "liouville_vflux_ratio": ("example2_order1", "vflux = ratio\n"),
    "liouville_v_window": ("example2_order1", "[grid]\nv_hi = 0.81\nnv = 54\n"),
    "liouville_order2_v_window": ("example2_order2", "[grid]\nv_hi = 0.81\nnv = 54\n"),
    "liouville_order2_block_edge": ("example2_order2", "[grid]\nx_lo = -1.92\nx_hi = 2.1\n"),
    "liouville_order1_block_edge": ("example2_order1", "[grid]\nx_lo = -1.98\nx_hi = 2.04\n"),
    "liouville_x_window": ("example2_order1", "[grid]\nx_lo = -0.99\nx_hi = 0.99\nnx = 66\n"),
}

# name -> (preset, config lines after it, sweep flags); the last two carry
# the order, the limiter and the thread count to every point of a mesh sweep
SWEEPS = {
    "sweep_k": ("example1_order1", "", ["--k", "2..8", "--ref", "12"]),
    "sweep_dx": ("example1_order1", "", ["--dx", "0.02,0.01,0.005"]),
    "sweep_dx_order2_tanh": (
        "example1_order2",
        "t_final = 0.2\nlimiter = tanh\n[random]\nk = 4\n",
        ["--dx", "0.04,0.02"],
    ),
    "sweep_dx_threads": ("example1_order1", "threads = 2\n", ["--dx", "0.02,0.01"]),
}


def commands():
    """(output name, argv after the config path, config text) of every command."""
    for name in PRESETS:
        yield name, ["run"], "preset = %s\nt_final = 0.1\n" % name
    for name, (preset, lines) in VARIANTS.items():
        yield name, ["run"], "preset = %s\nt_final = 0.1\n%s" % (preset, lines)
    for name, (preset, lines, flags) in SWEEPS.items():
        yield name, ["sweep", *flags], "preset = %s\n%s" % (preset, lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="snapshot directory, created here")
    out = parser.parse_args(argv).out_dir
    out.mkdir(parents=True)
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, *flags), text in commands():
            config = Path(tmp) / ("%s.cfg" % name)
            config.write_text(text + "[output]\ndir = %s\n" % (out / name))
            # the "wrote <path>" lines name OUT_DIR, so they stay out of the snapshot
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, str(config), *flags])
            codes.append("%s %d\n" % (name, code))
            summary = out / name / "run.txt"
            if summary.is_file():
                lines = summary.read_text().splitlines(keepends=True)
                summary.write_text("".join(l for l in lines if not l.startswith("wall_time = ")))
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
