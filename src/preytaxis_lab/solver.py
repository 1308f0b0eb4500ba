"""Finite-volume method-of-lines integrator for the predator-prey
reaction-diffusion-taxis system on a 1D interval with zero-flux boundaries.

The spatial discretization is conservative: cell-average densities evolve
through face fluxes

    flux_u = d(v_f) (u_{i+1}-u_i)/h - u_f chi(v_f) (v_{i+1}-v_i)/h
    flux_v = D (v_{i+1}-v_i)/h

with arithmetic-mean face values and zero boundary fluxes.  Time stepping
is classic RK4 at a CFL-limited step, or a first-order IMEX scheme with
implicit (tridiagonal) diffusion and explicit taxis/reaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import lyapunov_v1, lyapunov_v2
from .model import Equilibrium, EquilibriumKind, KineticsModel, MotilityModel, reaction

__all__ = [
    "Grid1D",
    "State",
    "Perturbation",
    "SolverConfig",
    "TimeSeries",
    "Trajectory",
    "BlowUpError",
    "NonPhysicalError",
    "init_state",
    "rhs",
    "stable_dt",
    "rk4_step",
    "imex_step",
    "integrate",
]

BLOWUP_LIMIT = 1e6
NEGATIVITY_LIMIT = -1e-8


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [0, ell]."""

    ell: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError("need at least 8 cells")
        if self.ell <= 0:
            raise ValueError("domain length must be positive")

    @property
    def h(self) -> float:
        return self.ell / self.n_cells

    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h


@dataclass
class State:
    """Cell-average predator and prey densities at time t."""

    t: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Perturbation:
    """Seeded random perturbation of the base state (relative amplitude)."""

    epsilon: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


PRNG_NAME = "numpy PCG64 (default_rng)"


@dataclass(frozen=True)
class SolverConfig:
    kin: KineticsModel
    mot: MotilityModel
    D: float
    grid: Grid1D
    t_end: float
    base_state: Equilibrium | tuple[np.ndarray, np.ndarray]
    perturbation: Perturbation = field(default_factory=Perturbation)
    scheme: str = "rk4"
    cfl_safety: float = 0.4
    snapshot_count: int = 200
    series_count: int = 500

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.D <= 0:
            raise ValueError("D must be positive")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.scheme not in ("rk4", "imex"):
            raise ValueError("scheme must be 'rk4' or 'imex'")
        if self.snapshot_count < 2 or self.series_count < 2:
            raise ValueError("need at least two output points")

    def base_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.grid.n_cells
        if isinstance(self.base_state, Equilibrium):
            return (
                np.full(n, self.base_state.u, dtype=float),
                np.full(n, self.base_state.v, dtype=float),
            )
        u0, v0 = self.base_state
        u0 = np.asarray(u0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        if u0.shape != (n,) or v0.shape != (n,):
            raise ValueError("base arrays must match the grid")
        return u0.copy(), v0.copy()

    def coexistence_base(self) -> Equilibrium | None:
        if (
            isinstance(self.base_state, Equilibrium)
            and self.base_state.kind is EquilibriumKind.COEXISTENCE
        ):
            return self.base_state
        return None


class _GuardError(RuntimeError):
    """A completed step tripped a guard.

    ``t`` is the time the failing step reached; ``guard`` names the check
    ("non-finite", "blow-up limit" or "negativity"), and ``field``,
    ``cell`` and ``value`` the density that tripped it.
    """

    summary: str
    status: str

    def __init__(
        self, t: float, trajectory: "Trajectory", guard: str, field: str, cell: int, value: float
    ):
        super().__init__(
            f"{self.summary} at t = {t:.6g}: {guard} guard tripped by {field}[{cell}] = {value:.6g}"
        )
        self.t = t
        self.trajectory = trajectory
        self.guard = guard
        self.field = field
        self.cell = cell
        self.value = value


class BlowUpError(_GuardError):
    """Raised when a field exceeds the blow-up limit or loses finiteness."""

    summary = "solution blew up"
    status = "blowup"


class NonPhysicalError(_GuardError):
    """Raised when a density drops below round-off-level negativity."""

    summary = "negative density beyond tolerance"
    status = "nonphysical"


def init_state(cfg: SolverConfig) -> State:
    """Perturbed initial state.

    Components with a positive base value are perturbed multiplicatively,
    x_i = x_base*(1 + eps*xi_i) with xi i.i.d. uniform on [-1, 1]; an
    identically zero base component receives a nonnegative additive
    perturbation of amplitude eps*K instead.  Identical seeds give
    bit-identical states; eps = 0 reproduces the base exactly.
    """
    u0, v0 = cfg.base_arrays()
    eps = cfg.perturbation.epsilon
    if eps == 0.0:
        return State(0.0, u0, v0)
    rng = np.random.default_rng(cfg.perturbation.seed)
    xi_u = rng.uniform(-1.0, 1.0, cfg.grid.n_cells)
    xi_v = rng.uniform(-1.0, 1.0, cfg.grid.n_cells)
    for base, xi in ((u0, xi_u), (v0, xi_v)):
        if np.max(np.abs(base)) == 0.0:
            base += eps * cfg.kin.K * 0.5 * (1.0 + xi)
        else:
            base *= 1.0 + eps * xi
    return State(0.0, u0, v0)


def _padded_flux(rows: int, n_cells: int) -> np.ndarray:
    """Face-flux buffer (rows, n_cells + 1) with zero-flux boundary faces;
    the caller fills the interior faces [:, 1:-1].

    The boundaries hold +0.0 (left) and -0.0 (right), so the end cells'
    differences f - 0.0 and -0.0 - f equal f and -f exactly, signs of
    zero included.
    """
    flux = np.empty((rows, n_cells + 1))
    flux[:, :: n_cells] = (0.0, -0.0)
    return flux


def _divergence(flux: np.ndarray, h: float) -> np.ndarray:
    """Cell divergence of a padded face flux (see _padded_flux)."""
    out = flux[..., 1:] - flux[..., :-1]
    out /= h
    return out


def _rhs_arrays(cfg: SolverConfig, u: np.ndarray, v: np.ndarray):
    """(du/dt, dv/dt): divergence of the fluxes in the module docstring
    plus the reaction terms.  The in-place steps keep the operation order
    of the plain expressions, so the result is the same to the last bit."""
    h = cfg.grid.h
    u_r, u_l, v_r, v_l = u[1:], u[:-1], v[1:], v[:-1]
    vf = v_r + v_l
    vf *= 0.5
    d, chi = cfg.mot.d_and_chi(vf)
    dvdx = v_r - v_l
    dvdx /= h
    flux = _padded_flux(2, u.size)
    flux_u = flux[0, 1:-1]  # d(vf) * (du/h) - (uf * chi(vf)) * dvdx
    np.subtract(u_r, u_l, out=flux_u)
    flux_u /= h
    flux_u *= d
    taxis = u_r + u_l
    taxis *= 0.5
    taxis *= chi
    taxis *= dvdx
    flux_u -= taxis
    np.multiply(cfg.D, dvdx, out=flux[1, 1:-1])
    du, dv = _divergence(flux, h)
    ru, rv = reaction(cfg.kin, u, v)
    du += ru
    dv += rv
    return du, dv


def rhs(state: State, cfg: SolverConfig):
    """Time derivatives (du/dt, dv/dt) of the semi-discrete system."""
    if not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))):
        raise ValueError("state contains non-finite values")
    return _rhs_arrays(cfg, state.u, state.v)


def stable_dt(state: State, cfg: SolverConfig) -> float:
    """CFL-limited explicit step: the diffusive bound h^2/(2 max(d, D))
    and the taxis-advection bound h/w_max, scaled by cfl_safety."""
    h = cfg.grid.h
    d_max = float(np.max(cfg.mot.d(state.v)))
    vf = 0.5 * (state.v[1:] + state.v[:-1])
    w = np.abs(cfg.mot.chi(vf) * np.diff(state.v) / h)
    w_max = float(np.max(w)) if w.size else 0.0
    dt_diff = h * h / (2.0 * max(d_max, cfg.D))
    dt_adv = h / (w_max + 1e-300)
    return cfg.cfl_safety * min(dt_diff, dt_adv)


def rk4_step(cfg: SolverConfig, u: np.ndarray, v: np.ndarray, dt: float):
    k1u, k1v = _rhs_arrays(cfg, u, v)
    k2u, k2v = _rhs_arrays(cfg, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
    k3u, k3v = _rhs_arrays(cfg, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
    k4u, k4v = _rhs_arrays(cfg, u + dt * k3u, v + dt * k3v)
    u_new = u + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u_new, v_new


def _solve_diffusion(q: np.ndarray, coef_face: np.ndarray, h: float, dt: float):
    """Solve (I - dt*L) q_new = q with L the conservative diffusion
    operator built from the given face coefficients (zero-flux ends)."""
    # Imported here: only IMEX reaches this, and SciPy would otherwise
    # dominate the start-up of every CLI call.
    from scipy.linalg import solve_banded

    n = q.size
    r = dt / (h * h)
    ab = np.zeros((3, n))
    ab[0, 1:] = -r * coef_face
    ab[2, :-1] = -r * coef_face
    ab[1, :] = 1.0
    ab[1, :-1] += r * coef_face
    ab[1, 1:] += r * coef_face
    return solve_banded((1, 1), ab, q)


def imex_step(cfg: SolverConfig, u: np.ndarray, v: np.ndarray, dt: float):
    """One IMEX step: diffusion implicit with coefficients lagged at the
    current v; taxis and reaction explicit."""
    h = cfg.grid.h
    vf = 0.5 * (v[1:] + v[:-1])
    uf = 0.5 * (u[1:] + u[:-1])
    d_face, chi = cfg.mot.d_and_chi(vf)
    taxis_flux = _padded_flux(1, u.size)[0]
    taxis_flux[1:-1] = -uf * chi * (np.diff(v) / h)
    ru, rv = reaction(cfg.kin, u, v)
    rhs_u = u + dt * (_divergence(taxis_flux, h) + ru)
    rhs_v = v + dt * rv
    d_face = np.asarray(d_face, dtype=float)
    u_new = _solve_diffusion(rhs_u, d_face, h, dt)
    v_new = _solve_diffusion(rhs_v, np.full(vf.size, cfg.D), h, dt)
    return u_new, v_new


@dataclass
class TimeSeries:
    """Scalar diagnostics sampled on the dense output schedule.

    V1 and V2 are NaN where their preconditions fail (nonpositive fields,
    or no coexistence base for V2).
    """

    t: np.ndarray
    mass_u: np.ndarray
    mass_v: np.ndarray
    min_u: np.ndarray
    max_u: np.ndarray
    min_v: np.ndarray
    max_v: np.ndarray
    l2_dev_u: np.ndarray
    l2_dev_v: np.ndarray
    std_u: np.ndarray
    std_v: np.ndarray
    V1: np.ndarray
    V2: np.ndarray


@dataclass
class Trajectory:
    grid: Grid1D
    snapshots: list[State]
    series: TimeSeries
    status: str = "ok"


class _SeriesRecorder:
    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.u_base, self.v_base = cfg.base_arrays()
        self.co = cfg.coexistence_base()
        self.rows: list[tuple] = []

    def record(self, t: float, u: np.ndarray, v: np.ndarray):
        h = self.cfg.grid.h
        kin = self.cfg.kin
        v1 = v2 = math.nan
        if v.min() > 0.0:
            try:
                v1 = lyapunov_v1(u, v, kin, h)
            except ValueError:
                v1 = math.nan
            if self.co is not None and u.min() > 0.0:
                v2 = lyapunov_v2(u, v, kin, self.co, h)
        self.rows.append(
            (
                t,
                h * float(np.sum(u)),
                h * float(np.sum(v)),
                float(u.min()),
                float(u.max()),
                float(v.min()),
                float(v.max()),
                math.sqrt(h * float(np.sum((u - self.u_base) ** 2))),
                math.sqrt(h * float(np.sum((v - self.v_base) ** 2))),
                float(np.std(u)),
                float(np.std(v)),
                v1,
                v2,
            )
        )

    def finalize(self) -> TimeSeries:
        cols = list(zip(*self.rows)) if self.rows else [[]] * 13
        return TimeSeries(*(np.asarray(c, dtype=float) for c in cols))


def _guard_error(t, u, v, grid, snapshots, rec) -> _GuardError:
    """The error for a state that failed the step guard.

    Guards are tried in the order non-finite (first such cell), blow-up
    limit (largest value), negativity (smallest value).
    """
    fields = {"u": u, "v": v}
    nonfinite = [name for name, x in fields.items() if not np.isfinite(x).all()]
    if nonfinite:
        name = nonfinite[0]
        error, guard = BlowUpError, "non-finite"
        cell = int(np.argmin(np.isfinite(fields[name])))
    else:
        name = max(fields, key=lambda k: fields[k].max())
        if fields[name].max() > BLOWUP_LIMIT:
            error, guard = BlowUpError, "blow-up limit"
            cell = int(np.argmax(fields[name]))
        else:
            name = min(fields, key=lambda k: fields[k].min())
            error, guard = NonPhysicalError, "negativity"
            cell = int(np.argmin(fields[name]))
    traj = Trajectory(grid, snapshots, rec.finalize(), error.status)
    return error(t, traj, guard, name, cell, float(fields[name][cell]))


def integrate(cfg: SolverConfig) -> Trajectory:
    """Advance the system to t_end, recording snapshots and scalar series.

    The CFL step is recomputed at every output interval and subdivided so
    steps land exactly on output times.  Raises BlowUpError (fields beyond
    1e6 or non-finite) or NonPhysicalError (densities below -1e-8); both
    carry the partial trajectory, the time the failing step reached, and
    the guard, cell and value that tripped.
    """
    state = init_state(cfg)
    u, v = state.u, state.v
    series_t = np.linspace(0.0, cfg.t_end, cfg.series_count)
    snap_t = np.linspace(0.0, cfg.t_end, cfg.snapshot_count)
    events = np.union1d(series_t, snap_t)
    in_series = np.isin(events, series_t)
    in_snap = np.isin(events, snap_t)

    rec = _SeriesRecorder(cfg)
    snapshots: list[State] = []
    rec.record(0.0, u, v)
    snapshots.append(State(0.0, u.copy(), v.copy()))

    step = rk4_step if cfg.scheme == "rk4" else imex_step
    t = 0.0
    for idx in range(1, events.size):
        t_next = float(events[idx])
        dt_cfl = stable_dt(State(t, u, v), cfg)
        n_sub = max(1, math.ceil((t_next - t) / dt_cfl))
        dt = (t_next - t) / n_sub
        for i in range(n_sub):
            u, v = step(cfg, u, v, dt)
            # max and min propagate NaN, which fails every comparison, and
            # +-inf fail the limits: four reductions catch every non-finite
            # value.  _guard_error works out which guard tripped.
            if not (
                u.max() <= BLOWUP_LIMIT
                and v.max() <= BLOWUP_LIMIT
                and u.min() >= NEGATIVITY_LIMIT
                and v.min() >= NEGATIVITY_LIMIT
            ):
                raise _guard_error(t + (i + 1) * dt, u, v, cfg.grid, snapshots, rec)
        t = t_next
        if in_series[idx]:
            rec.record(t, u, v)
        if in_snap[idx]:
            snapshots.append(State(t, u.copy(), v.copy()))
    return Trajectory(cfg.grid, snapshots, rec.finalize())
