"""How each metric is measured and what it should move.

Names, units and direction are listed once, in ``BENCHMARK.json`` at the
repository root; ``load_spec`` reads it.  This module maps each name to
how it is measured and, for a per-layer metric, the end-to-end metric and
workload a change of it should show up in.  The self-test checks that
every listed name has an entry here and that a run produces it.
"""

from __future__ import annotations

import json
import os

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# name -> how it is measured
END_TO_END = {
    "wall_s": "median wall time of one cli.main(argv) call in a warmed process",
    "setup_s": "median over fresh interpreters of importing preytaxis_lab.cli and "
    "running load_config, build_models and compute_equilibria",
    "peak_rss_mb": "ru_maxrss of a fresh process that runs the workload once",
}

# Printed beside the end-to-end metrics but not listed in BENCHMARK.json:
# it is 0 whenever the program is correct, and a bound relative to a zero
# median is meaningless.  The result line carries it as failed/attempted.
FAILED_FRAC = ("failed_frac", "ratio", "failed runs / attempted runs")

_PER_MOTILITY = {
    f"{prefix}.{m}": (how, moves)
    for prefix, how, moves in (
        ("solver.rhs_us", "microbenchmark of rhs at 256 cells", "wall_s on fig2_rk4 (d2)"),
        ("solver.rk4_step_us", "microbenchmark of rk4_step at 256 cells", "wall_s on fig2_rk4 (d2)"),
        ("solver.imex_step_us", "microbenchmark of imex_step at 256 cells", "wall_s on fig2_rk4 (d2)"),
        ("solver.stable_dt_us", "microbenchmark of stable_dt at 256 cells", "wall_s on fig2_rk4 (d2)"),
        ("model.motility_us", "d(v) plus chi(v) on a 256-cell array", "solver.rhs_us, so wall_s on fig2_rk4"),
    )
    for m in ("d1", "d2", "d3")
}

# name -> (how it is measured, the end-to-end metric and workload it should move)
PER_LAYER = {
    "solver.integrate_s": ("span around cli.integrate", "wall_s, all workloads"),
    "solver.step_s": ("sum of rk4_step/imex_step spans", "wall_s on fig2_rk4, decay_output"),
    "solver.steps": ("rk4_step/imex_step calls", "wall_s on fig2_rk4"),
    "solver.rhs_evals": ("computed: 4 per RK4 step, 1 per IMEX step", "wall_s on fig2_rk4"),
    "solver.step_us_p50": ("per-step spans", "wall_s on fig2_rk4, decay_output"),
    "solver.step_us_p99": ("per-step spans", "wall_s on fig2_rk4, decay_output"),
    "solver.dt_min": ("smallest dt argument of a step", "solver.steps, so wall_s on fig2_rk4"),
    "solver.dt_max": ("largest dt argument of a step", "solver.steps, so wall_s on fig2_rk4"),
    "solver.stable_dt_calls": ("stable_dt spans", "wall_s on decay_output"),
    "solver.stable_dt_s": ("stable_dt spans", "wall_s on decay_output"),
    "solver.loop_self_s": ("integrate span minus its step, stable_dt and Lyapunov children",
                           "wall_s on decay_output"),
    **_PER_MOTILITY,
    "solver.rk4_step_us.d1.n128": ("microbenchmark of rk4_step at 128 cells, single thread",
                                   "base for sweep_ensemble and decay_output"),
    "model.reaction_us": ("eval_reaction on 256 cells", "solver.rhs_us, so wall_s on fig2_rk4"),
    "model.compute_equilibria_s": ("spans", "setup_s; a guard only"),
    "model.global_stability_report_s": ("spans", "setup_s; a guard only"),
    "diagnostics.lyapunov_calls": ("lyapunov_v1/v2 spans as the recorder calls them",
                                   "wall_s on decay_output"),
    "diagnostics.lyapunov_s": ("lyapunov_v1/v2 spans as the recorder calls them",
                               "wall_s on decay_output"),
    "diagnostics.classify_s": ("classify_pattern spans", "wall_s on decay_output"),
    "diagnostics.decay_fit_s": ("decay_fit spans", "wall_s on decay_output"),
    "diagnostics.lyapunov_v1_us": ("microbenchmark at 256 cells", "diagnostics.lyapunov_s"),
    "diagnostics.lyapunov_v2_us": ("microbenchmark at 256 cells", "diagnostics.lyapunov_s"),
    "linstab.unstable_modes_s": ("spans", "wall_s on sweep_ensemble (expected under 1%)"),
    "linstab.dispersion_us": ("microbenchmark, per point of a 200-point eta grid",
                              "none; scalar-path guard"),
    "linstab.bifurcation_curves_ms": ("microbenchmark on a 200-point eta grid",
                                      "none; scalar-path guard"),
    "cli.self_s": ("main span minus all child spans: config parsing, CSV formatting "
                   "and writing, the manifest", "wall_s on decay_output"),
    "cli.rows_written": ("manifest outputs", "cli.self_s"),
    "cli.bytes_written": ("size of the output directory", "cli.self_s"),
    "cli.load_config_s": ("load_config span", "setup_s"),
    "cli.sweep_s_per_member": ("main span / integrate calls", "wall_s on sweep_ensemble"),
    "cli.pool_overlap": ("sum of integrate spans / main span", "wall_s on sweep_ensemble"),
    "proc.cpu_s": ("process CPU time of one traced run", "all; shows parallelism"),
    "proc.cpu_util": ("process CPU time / wall time", "all; shows parallelism"),
    "env.calib_us": ("fixed NumPy reference kernel timed at the start and end of every run",
                     "none; shows machine-speed drift"),
    "trace.overhead_frac": ("median traced wall / median untraced wall - 1", "none"),
}
