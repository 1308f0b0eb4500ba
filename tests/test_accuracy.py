"""Accuracy budget of the time step: RK4 at the default step against the
same RK4 at an eighth of it.

Each shipped config's model runs at 128 cells to t = 2 from its seeded
random start, once at the default ``cfl_safety`` and once at 1/8 of it.
At each of the nine snapshots (t = 0, 0.25, ..., 2) the error of a field is
its largest difference over the cells, relative to the fine run's range of
that field at that snapshot (max minus min over the cells).  The budgets
are twice the worst error over the snapshots that this code measured
(printed by the test, ``pytest -s``); README quotes them.  A change that
moves bits by changing the step (a larger step, another scheme) is held to
them.
"""

import dataclasses
import os

import numpy as np
import pytest

from preytaxis_lab import cli
from preytaxis_lab.model import compute_equilibria
from preytaxis_lab.solver import Grid1D, integrate

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# config: budget of (u, v); measured worst (u, v) in the comment
BUDGETS = {
    "case1": (6.7e-6, 1.4e-6),  # 3.33e-6, 6.78e-7
    "case2": (1.1e-8, 5.0e-10),  # 5.11e-9, 2.46e-10
    "case3": (8.1e-4, 4.5e-4),  # 4.02e-4, 2.24e-4
    "decay": (8.4e-8, 2.5e-5),  # 4.18e-8, 1.25e-5
}
FINE = 8  # the reference run's step is the default step / FINE


def _short_config(name):
    """The config's models, D and length at 128 cells to t = 2, with nine
    snapshots and nine series rows, so the step is the CFL step and not an
    output interval's."""
    rc = cli.load_config(os.path.join(CONFIGS, f"{name}.ini"))
    kin, mot = cli.build_models(rc)
    cfg = cli._solver_config(rc, kin, mot, compute_equilibria(kin))
    return dataclasses.replace(
        cfg, grid=Grid1D(rc.length, 128), t_end=2.0, snapshot_count=9, series_count=9
    )


def _worst_errors(coarse, fine):
    """The largest over the snapshots of each field's max-over-cells
    difference, relative to the fine run's range of the field there."""
    worst = np.zeros(2)
    for a, b in zip(coarse.snapshots, fine.snapshots, strict=True):
        assert a.t == b.t
        for k, (x, ref) in enumerate(((a.u, b.u), (a.v, b.v))):
            worst[k] = max(worst[k], np.max(np.abs(x - ref)) / (ref.max() - ref.min()))
    return worst


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_default_step_is_within_budget_of_an_eighth_of_it(name):
    cfg = _short_config(name)
    coarse = integrate(cfg)
    fine = integrate(dataclasses.replace(cfg, cfl_safety=cfg.cfl_safety / FINE))
    # ceil(interval / step) rounds the coarse run's count up more
    assert fine.stats["steps"] > 6 * coarse.stats["steps"]
    worst = _worst_errors(coarse, fine)
    print(f"{name}: steps {coarse.stats['steps']} / {fine.stats['steps']}, "
          f"worst relative error u {worst[0]:.3g}, v {worst[1]:.3g}")
    assert worst[0] <= BUDGETS[name][0] and worst[1] <= BUDGETS[name][1], (worst, BUDGETS[name])
