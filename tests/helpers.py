"""Shared test utilities: independent oracles kept deliberately separate
from the library code paths they check."""

import math
import os
import subprocess
import sys

import numpy as np

import preytaxis_lab
from preytaxis_lab.solver import (
    Grid1D,
    Perturbation,
    SolverConfig,
    integrate,
)


def bisect_coexistence_oracle(kin, tol=1e-13):
    """Positive steady state by plain bisection of the defining equations,
    written independently of the library's root-finding."""

    def g(v):
        return kin.gamma * float(kin.F(v)) - kin.theta - kin.alpha * float(
            kin.f(v)
        ) / float(kin.F(v))

    lo, hi = 1e-9 * kin.K, kin.K * (1.0 - 1e-12)
    assert g(lo) < 0 < g(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    return float(kin.f(v)) / float(kin.F(v)), v


def sign_change_intervals(fn, xs):
    """Intervals [xs[i], xs[i+1]] where fn changes sign (scan oracle)."""
    vals = np.asarray([fn(x) for x in xs])
    out = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
            out.append((xs[i], xs[i + 1]))
    return out


def fd_jacobian(fn, x, step=1e-6):
    """Central-difference Jacobian of a vector map R^n -> R^m."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * step)
    return J


def modal_growth_rate(kin, mot, D, eq, ell, n_cells, n_mode, delta=1e-6, horizon=20.0, n_out=41):
    """Measured exponential growth rate of a single Neumann mode.

    Seeds the mode with the real part of the dominant eigenvector of the
    linearization, projects the evolving fields back onto the mode's
    cosine profile, expresses the projection in the eigenbasis and fits
    the log modal amplitude against time.
    """
    from preytaxis_lab.linstab import linearize

    sys = linearize(kin, mot, D, eq)
    k = n_mode * math.pi / ell
    M = sys.M(k)
    eigvals, eigvecs = np.linalg.eig(M)
    i = int(np.argmax(eigvals.real))
    w = eigvecs[:, i]
    w = w / np.linalg.norm(w)

    grid = Grid1D(ell, n_cells)
    x = grid.centers()
    profile = np.cos(k * x)
    u0 = eq.u + delta * w[0].real * profile
    v0 = eq.v + delta * w[1].real * profile
    cfg = SolverConfig(
        kin=kin,
        mot=mot,
        D=D,
        grid=grid,
        t_end=horizon,
        base_state=(u0, v0),
        perturbation=Perturbation(0.0, 0),
        snapshot_count=n_out,
        series_count=n_out,
    )
    traj = integrate(cfg)

    Vinv = np.linalg.inv(eigvecs)
    norm = np.sum(profile * profile)
    ts, amps = [], []
    for st in traj.snapshots:
        p = np.array(
            [
                np.sum((st.u - eq.u) * profile) / norm,
                np.sum((st.v - eq.v) * profile) / norm,
            ]
        )
        c = Vinv @ p
        amps.append(abs(c[i]))
        ts.append(st.t)
    ts, amps = np.asarray(ts), np.asarray(amps)
    keep = amps > 0
    slope = np.polyfit(ts[keep], np.log(amps[keep]), 1)[0]
    return float(slope), eigvals[i]


# Reference copy of the original right-hand side and RK4 step (np.diff,
# separate d and chi evaluations, one divergence per field).  The library's
# fused kernel must reproduce it bit for bit.


def _reference_divergence(flux, h):
    out = np.empty(flux.size + 1)
    out[0] = flux[0] / h
    out[1:-1] = np.diff(flux) / h
    out[-1] = -flux[-1] / h
    return out


def reference_rhs_arrays(cfg, u, v):
    h = cfg.grid.h
    kin = cfg.kin
    vf = 0.5 * (v[1:] + v[:-1])
    uf = 0.5 * (u[1:] + u[:-1])
    dvdx = np.diff(v) / h
    flux_u = cfg.mot.d(vf) * (np.diff(u) / h) - uf * cfg.mot.chi(vf) * dvdx
    flux_v = cfg.D * dvdx
    Fv = kin.F(v)
    ru = kin.gamma * u * Fv - kin.theta * u - kin.alpha * u * u
    rv = kin.f(v) - u * Fv
    return _reference_divergence(flux_u, h) + ru, _reference_divergence(flux_v, h) + rv


def reference_rk4_step(cfg, u, v, dt):
    k1u, k1v = reference_rhs_arrays(cfg, u, v)
    k2u, k2v = reference_rhs_arrays(cfg, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
    k3u, k3v = reference_rhs_arrays(cfg, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
    k4u, k4v = reference_rhs_arrays(cfg, u + dt * k3u, v + dt * k3v)
    u_new = u + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u_new, v_new


def reference_stable_dt(state, cfg):
    """Copy of the original CFL step: d on the cells and chi on the faces
    in separate evaluations, with np.diff."""
    h = cfg.grid.h
    d_max = float(np.max(cfg.mot.d(state.v)))
    vf = 0.5 * (state.v[1:] + state.v[:-1])
    w = np.abs(cfg.mot.chi(vf) * np.diff(state.v) / h)
    w_max = float(np.max(w)) if w.size else 0.0
    dt_diff = h * h / (2.0 * max(d_max, cfg.D))
    dt_adv = h / (w_max + 1e-300)
    return cfg.cfl_safety * min(dt_diff, dt_adv)


def same_bits(a, b):
    """Equal to the bit: NaN in the same places, and every other element
    with the same bits (signs of zero included)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64)
    )


def reference_max_lag_correlation(x):
    """Copy of the original lag correlation of diagnostics.classify_pattern:
    ndarray.std and np.mean on every lag."""
    x = np.asarray(x, dtype=float)
    best = math.nan
    for lag in range(1, x.size // 2 + 1):
        a, b = x[:-lag], x[lag:]
        sa, sb = a.std(), b.std()
        if sa == 0.0 or sb == 0.0:
            continue
        r = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
        if math.isnan(best) or r > best:
            best = r
    return best


def run_fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this ``preytaxis_lab``.

    Modules the test process has imported (SciPy among them) do not carry
    over, so the child's ``sys.modules`` shows what the code itself loads.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(preytaxis_lab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )


# Reference copy of the original per-state series recorder and the scalar
# Lyapunov functionals it called.  The block recorder in solver.py must
# reproduce every column bit for bit, NaN positions included.


def reference_lyapunov_v1(u, v, kin, h):
    from preytaxis_lab.diagnostics import zeta

    if kin.gamma <= 0:
        raise ValueError("V1 requires gamma > 0")
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("V1 requires all v_i > 0")
    inner = zeta(kin, kin.K, v)
    return h * float(np.sum(u)) / kin.gamma + h * float(np.sum(inner))


def reference_lyapunov_v2(u, v, kin, eq, h):
    from preytaxis_lab.diagnostics import zeta

    if kin.gamma <= 0:
        raise ValueError("V2 requires gamma > 0")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u <= 0.0) or np.any(v <= 0.0):
        raise ValueError("V2 requires all u_i, v_i > 0")
    u_star = eq.u
    pred = u - u_star - u_star * np.log(u / u_star)
    inner = zeta(kin, eq.v, v)
    return h * float(np.sum(pred)) / kin.gamma + h * float(np.sum(inner))


SERIES_COLUMNS = (
    "t", "mass_u", "mass_v", "min_u", "max_u", "min_v", "max_v",
    "l2_dev_u", "l2_dev_v", "std_u", "std_v", "V1", "V2",
)


def reference_series(cfg, states):
    """Series columns {name: array} for the (t, u, v) states, one state at
    a time.  V1 and V2 are NaN where the functional raises ValueError."""
    h, kin = cfg.grid.h, cfg.kin
    u_base, v_base = cfg.base_arrays()
    co = cfg.coexistence_base()
    rows = []
    for t, u, v in states:
        v1 = v2 = math.nan
        if v.min() > 0.0:
            try:
                v1 = reference_lyapunov_v1(u, v, kin, h)
            except ValueError:
                v1 = math.nan
            if co is not None and u.min() > 0.0:
                try:
                    v2 = reference_lyapunov_v2(u, v, kin, co, h)
                except ValueError:
                    v2 = math.nan
        rows.append(
            (
                t,
                h * float(np.sum(u)),
                h * float(np.sum(v)),
                float(u.min()),
                float(u.max()),
                float(v.min()),
                float(v.max()),
                math.sqrt(h * float(np.sum((u - u_base) ** 2))),
                math.sqrt(h * float(np.sum((v - v_base) ** 2))),
                float(np.std(u)),
                float(np.std(v)),
                v1,
                v2,
            )
        )
    cols = list(zip(*rows)) if rows else [[]] * len(SERIES_COLUMNS)
    return {name: np.asarray(c, dtype=float) for name, c in zip(SERIES_COLUMNS, cols)}


# Reference copy of the original CSV writer: one %-template per row, and a
# line in which it wrote "nan" formatted again field by field.  The CLI's
# block writer must reproduce its bytes.


def _reference_fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return ""
    return format(xf, ".17g")


def _reference_template(kinds) -> str:
    return ",".join(
        "%s" if issubclass(k, str) else "%d" if issubclass(k, (int, np.integer)) else "%.17g"
        for k in kinds
    ) + "\n"


def reference_csv_text(header, rows):
    """Text of a CSV file with the given header and tuple rows, as the
    original writer formatted it; NaN is written as an empty field."""
    templates = {}
    lines = [",".join(header) + "\n"]
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = _reference_template(kinds)
        line = template % row
        if "nan" in line:
            line = ",".join(_reference_fmt(x) for x in row) + "\n"
        lines.append(line)
    return "".join(lines)
