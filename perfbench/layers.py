"""Microbenchmarks of single layer functions, and the machine-speed probe.

All timings are medians over several batches of back-to-back calls in
this thread.  Every field is 256 (or 128) float64 cells, 2 KiB, far below
the 48 KiB L1d per core, so these calls are bound by interpreter and NumPy
dispatch, not memory bandwidth; no bandwidth metric is reported.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

# ROADMAP baseline per RK4 step at 256 cells (Python 3.11.7, numpy 2.4.6),
# and the relative difference taken as noise: env.calib_us alone moves by
# more than this between runs on a shared 2-core machine.
RK4_BASELINE_US = {"d1": 240.0, "d2": 270.0, "d3": 380.0}
BASELINE_NOISE = 0.15

# Shipped config whose motility kind is the key.
CASE_OF = {"d1": "case1.ini", "d2": "case2.ini", "d3": "case3.ini"}


def _batch_size(fn, target_s: float) -> int:
    """Calls of ``fn()`` that take about ``target_s``."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        t = time.perf_counter() - t0
        if t >= target_s / 4:
            return max(1, int(n * target_s / t))
        n *= 2


def interleaved_us(fns: dict, target_s: float = 0.01, rounds: int = 15) -> dict[str, float]:
    """Median µs per call of each ``fns[name]()``.

    The functions are timed round-robin, one batch of ~target_s each per
    round, so a machine-speed change during the measurement shifts every
    function alike instead of whichever happened to run then.
    """
    sizes = {name: _batch_size(fn, target_s) for name, fn in fns.items()}
    times: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            n = sizes[name]
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            times[name].append((time.perf_counter() - t0) / n)
    return {name: statistics.median(t) * 1e6 for name, t in times.items()}


_CALIB_X = np.linspace(0.5, 1.5, 256)


def _calib_kernel():
    w = np.exp(np.minimum(2.0 * (_CALIB_X - 1.0), 50.0))
    d = 1.0 / (1.0 + w)
    return float(np.sum(np.diff(_CALIB_X) * d[1:]))


def calib_us() -> float:
    """A fixed NumPy kernel shaped like one motility evaluation; it tracks
    machine-speed drift and does not depend on the program."""
    return interleaved_us({"calib": _calib_kernel}, target_s=0.02, rounds=7)["calib"]


# The speed probe's time per call at the reference machine speed.  End-to-end
# samples are scaled by PROBE_REF_US / probe_us() taken around each sample,
# so they read in seconds at this speed.  The value is the probe's median on
# a 2-core x86_64 VM (Python 3.11.7); only its constancy matters, since
# parent and change are compared on the same machine with the same constant.
PROBE_REF_US = 170.0


def _probe_kernel():
    s = 0
    for i in range(2000):
        s += i * i % 7
    return s


def probe_us(calls: int = 600) -> float:
    """Mean µs per call of a fixed pure-Python loop, over about 0.1 s.

    It does not depend on the program.  On a shared VM whose speed shifts
    by up to 1.7x for seconds to minutes, the CLI's wall time divided by
    this probe, taken just before and after each run, varied 3-5x less
    between 25 s windows than the raw wall time did; the NumPy calib kernel
    tracked the threaded sweep poorly.
    """
    t0 = time.perf_counter()
    for _ in range(calls):
        _probe_kernel()
    return (time.perf_counter() - t0) / calls * 1e6


def _solver_config(cli, solver, configs_dir: str, case: str, n_cells: int | None = None):
    rc = cli.load_config(os.path.join(configs_dir, case))
    if n_cells is not None:
        rc.n_cells = n_cells
    kin, mot = cli.build_models(rc)
    eqs = cli.compute_equilibria(kin)
    cfg = solver.SolverConfig(
        kin=kin,
        mot=mot,
        D=rc.D,
        grid=solver.Grid1D(rc.length, rc.n_cells),
        t_end=1.0,
        base_state=eqs.coexistence,
        perturbation=solver.Perturbation(rc.epsilon, 0),
    )
    return rc, kin, mot, eqs, cfg


def _solver_fns(solver, cfg) -> dict:
    st = solver.init_state(cfg)
    dt = solver.stable_dt(st, cfg)
    return {
        "rhs": lambda: solver.rhs(st, cfg),
        "rk4_step": lambda: solver.rk4_step(cfg, st.u, st.v, dt),
        "imex_step": lambda: solver.imex_step(cfg, st.u, st.v, dt),
        "stable_dt": lambda: solver.stable_dt(st, cfg),
    }


def microbench(configs_dir: str) -> dict[str, float]:
    """Per-call times of the layer functions at 256 cells (d1/d2/d3) and
    of one RK4 step at 128 cells (d1), timed round-robin."""
    from preytaxis_lab import cli, diagnostics, linstab, model, solver

    fns: dict = {}
    for m, case in CASE_OF.items():
        _, _, mot, _, cfg = _solver_config(cli, solver, configs_dir, case)
        for name, fn in _solver_fns(solver, cfg).items():
            fns[f"solver.{name}_us.{m}"] = fn
        v = solver.init_state(cfg).v
        fns[f"model.motility_us.{m}"] = lambda mot=mot, v=v: (mot.d(v), mot.chi(v))

    _, _, _, _, cfg = _solver_config(cli, solver, configs_dir, CASE_OF["d1"], n_cells=128)
    fns["solver.rk4_step_us.d1.n128"] = _solver_fns(solver, cfg)["rk4_step"]

    rc, kin, mot, eqs, cfg = _solver_config(cli, solver, configs_dir, CASE_OF["d1"])
    st, h, co = solver.init_state(cfg), cfg.grid.h, eqs.coexistence
    fns["model.reaction_us"] = lambda: model.eval_reaction(kin, st.u, st.v)
    fns["diagnostics.lyapunov_v1_us"] = lambda: diagnostics.lyapunov_v1(st.u, st.v, kin, h)
    fns["diagnostics.lyapunov_v2_us"] = lambda: diagnostics.lyapunov_v2(st.u, st.v, kin, co, h)

    # linear theory on case1's 200-point eta grid
    eta = rc.eta_grid
    lin = linstab.linearize(kin, mot, rc.D, co)
    ks = [math.sqrt(e) for e in eta]

    def dispersion_grid():
        for k in ks:
            linstab.dispersion(lin, k)

    fns["linstab.dispersion_us"] = dispersion_grid
    fns["linstab.bifurcation_curves_ms"] = lambda: linstab.bifurcation_curves(kin, mot, co, eta)

    out = interleaved_us(fns)
    out["linstab.dispersion_us"] /= len(ks)
    out["linstab.bifurcation_curves_ms"] /= 1e3
    return out
