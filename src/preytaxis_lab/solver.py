"""Finite-volume method-of-lines integrator for the predator-prey
reaction-diffusion-taxis system on a 1D interval with zero-flux boundaries.

The spatial discretization is conservative: cell-average densities evolve
through face fluxes

    flux_u = d(v_f) (u_{i+1}-u_i)/h - u_f chi(v_f) (v_{i+1}-v_i)/h
    flux_v = D (v_{i+1}-v_i)/h

with arithmetic-mean face values and zero boundary fluxes.  Time stepping
is classic RK4 at a CFL-limited step, or a first-order IMEX scheme with
implicit (tridiagonal) diffusion and explicit taxis/reaction.

RK4 runs in a workspace that each SolverConfig builds on its first step
(``SolverConfig._workspace``; ``dataclasses.replace``, copies and pickles
get their own).  It holds every buffer and face or cell view the step
needs, allocated once.  The state is one stacked (2, n) array, so face
sums and differences, the three stage builds and the k1 + 2k2 + 2k3 + k4
sum each take one NumPy call for both fields, and every call writes into
a workspace buffer: the kinetics' F(v) and f(v) too, through ``reaction``
and its scratch, so a right-hand side with builtin kinetics allocates
nothing.  A step copies its start state into the workspace once and
evaluates k1 there in place; its 0.5*dt, dt and dt/6 are set only when
dt changes, once per output interval in ``integrate``; and it returns the
new state as one new (2, n) array, which ``integrate`` checks with one
max and one min.  ``stable_dt`` runs in the same workspace, in buffers
of its own.  h, D, 0.5 and 2.0 are held as 0-d arrays, which NumPy takes
without the per-call conversion of a Python float.  At 256 cells a step
is bound by NumPy's per-call cost, not by arithmetic, so fewer and
cheaper calls make it faster; every element still takes the operations
of the plain expressions in their order, so results are the same to the
last bit.  ``rk4_step`` and ``rhs`` return new arrays, never workspace
buffers.  A workspace is scratch for one caller at a time: a
SolverConfig must not be stepped, nor passed to ``stable_dt``, from two
threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._pcg64 import PCG64
from .diagnostics import lyapunov_v1, lyapunov_v2
from .model import Equilibrium, EquilibriumKind, KineticsModel, MotilityModel, _operands, reaction

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

# The time-stepping schemes ``integrate`` offers.
SCHEMES = ("rk4", "imex")
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
        if not 0 < self.ell < math.inf:
            raise ValueError("domain length must be positive and finite")

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
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0 < self.D < math.inf:
            raise ValueError("D must be positive and finite")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
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

    @cached_property
    def _workspace(self) -> "_Workspace":
        """RK4 buffers, built on first use; ``dataclasses.replace`` makes a
        config without one."""
        return _Workspace(self)

    def __getstate__(self):
        # A copied workspace would lose the link between its buffers and
        # their row and slice views; copies and pickles build their own.
        state = dict(self.__dict__)
        state.pop("_workspace", None)
        return state

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
    rng = PCG64(cfg.perturbation.seed)  # default_rng's stream, without numpy.random
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


class _Workspace:
    """Buffers and views for RK4 on one SolverConfig, allocated once.

    States are stacked (2, n) arrays, row 0 the predator u and row 1 the
    prey v, so one ufunc call serves both fields.  The right-hand side
    reads ``y`` and writes ``dy``; the step keeps its start state in
    ``y0`` and its k1 + 2k2 + 2k3 + k4 sum in ``acc``.  ``h``, ``D`` and
    the models are read from the config once.
    """

    def __init__(self, cfg: SolverConfig):
        n = cfg.grid.n_cells
        self.kin, self.mot = cfg.kin, cfg.mot
        self.h, self.D, self.half, self.two = _operands(cfg.grid.h, cfg.D, 0.5, 2.0)
        # 0.5*dt, dt and dt/6 of the step size ``dt``, set when it changes
        self.dt = None
        self.c_half, self.c_full, self.c_sixth = np.empty(()), np.empty(()), np.empty(())
        self.y0, self.y, self.dy, self.acc, self.tmp = np.empty((5, 2, n))
        self.u0, self.v0 = self.y0
        self.u, self.v = self.y
        self.y0_r, self.y0_l = self.y0[:, 1:], self.y0[:, :-1]
        self.y_r, self.y_l = self.y[:, 1:], self.y[:, :-1]
        # face sums hold (uf, vf) and face differences (du/h, dv/h)
        self.face_sum, self.face_diff = np.empty((2, 2, n - 1))
        self.uf, self.vf = self.face_sum
        self.dudx, self.dvdx = self.face_diff
        self.d, self.chi, self.taxis = np.empty((3, n - 1))
        self.d_chi = (self.d, self.chi)
        flux = _padded_flux(2, n)
        self.flux_u, self.flux_v = flux[:, 1:-1]
        self.flux_r, self.flux_l = flux[:, 1:], flux[:, :-1]
        self.react = np.empty((2, n))
        self.ru_rv = tuple(self.react)
        self.Fv = np.empty(n)  # reaction's F(v) scratch
        # stable_dt: the motility input holds the n cells, then the n - 1
        # faces; dt_d and dt_chi receive d and chi there, and speed is the
        # advective speed on the faces
        self.v_cf, self.dt_d, self.dt_chi = np.empty((3, 2 * n - 1))
        self.v_cells, self.v_faces = self.v_cf[:n], self.v_cf[n:]
        self.d_cells, self.chi_faces = self.dt_d[:n], self.dt_chi[n:]
        self.speed = np.empty(n - 1)


def _rhs_arrays(cfg: SolverConfig, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(du/dt, dv/dt) stacked in the workspace's ``dy``: divergence of the
    fluxes in the module docstring plus the reaction terms.

    The workspace's rows ``u0`` and ``v0`` (the step's start state) and
    ``u`` and ``v`` are read in place; other arrays are copied into ``u``
    and ``v`` first.  The result is overwritten by the next call on the
    same config.  Every element takes the operations of the plain
    expressions in their order, so the result is the same to the last bit.
    """
    ws = cfg._workspace
    if u is ws.u0 and v is ws.v0:
        y_r, y_l = ws.y0_r, ws.y0_l
    else:
        if u is not ws.u:
            ws.u[...] = u
        if v is not ws.v:
            ws.v[...] = v
        u, v, y_r, y_l = ws.u, ws.v, ws.y_r, ws.y_l
    h, face_sum, face_diff = ws.h, ws.face_sum, ws.face_diff
    flux_u, taxis, dy = ws.flux_u, ws.taxis, ws.dy
    np.add(y_r, y_l, face_sum)
    np.multiply(face_sum, ws.half, face_sum)
    np.subtract(y_r, y_l, face_diff)
    np.divide(face_diff, h, face_diff)
    d, chi = ws.mot.d_and_chi(ws.vf, ws.d_chi)
    # flux_u = d(vf) * (du/h) - (uf * chi(vf)) * dvdx; flux_v = D * dvdx
    np.multiply(ws.dudx, d, flux_u)
    np.multiply(ws.uf, chi, taxis)
    np.multiply(taxis, ws.dvdx, taxis)
    np.subtract(flux_u, taxis, flux_u)
    np.multiply(ws.D, ws.dvdx, ws.flux_v)
    np.subtract(ws.flux_r, ws.flux_l, dy)
    np.divide(dy, h, dy)
    reaction(ws.kin, u, v, ws.ru_rv, ws.Fv)
    np.add(dy, ws.react, dy)
    return dy


def rhs(state: State, cfg: SolverConfig):
    """Time derivatives (du/dt, dv/dt) of the semi-discrete system."""
    if not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))):
        raise ValueError("state contains non-finite values")
    du, dv = _rhs_arrays(cfg, state.u, state.v)
    return du.copy(), dv.copy()


def stable_dt(state: State, cfg: SolverConfig) -> float:
    """CFL-limited explicit step: the diffusive bound h^2/(2 max(d, D))
    and the taxis-advection bound h/w_max, scaled by cfl_safety.

    One motility evaluation covers the cells (for d) and the faces (for
    chi) together.  Every temporary is a buffer of the config's workspace,
    and each element takes the operations of the plain expressions
    0.5*(v[1:] + v[:-1]) and abs(chi*(v[1:] - v[:-1])/h) in their order."""
    ws = cfg._workspace
    h = cfg.grid.h
    v = state.v
    v_r, v_l = v[1:], v[:-1]
    np.copyto(ws.v_cells, v)
    np.add(v_r, v_l, out=ws.v_faces)
    np.multiply(ws.half, ws.v_faces, out=ws.v_faces)
    # out= buffers also take the scalars a custom motility may return
    cfg.mot.d_and_chi(ws.v_cf, out=(ws.dt_d, ws.dt_chi))
    d_max = float(ws.d_cells.max())
    w = np.subtract(v_r, v_l, out=ws.speed)
    np.multiply(ws.chi_faces, w, out=w)
    np.divide(w, ws.h, out=w)
    np.abs(w, out=w)
    w_max = float(w.max())
    dt_diff = h * h / (2.0 * max(d_max, cfg.D))
    dt_adv = h / (w_max + 1e-300)
    return cfg.cfl_safety * min(dt_diff, dt_adv)


def rk4_step(cfg: SolverConfig, u: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """One classic RK4 step; returns the new state as one (2, n) array,
    which callers unpack as ``u, v``.

    The stages run in the config's workspace.  The start state is copied
    into ``y0`` once and k1 is evaluated on it in place.  Each stage build
    and the k1 + 2k2 + 2k3 + k4 sum take one call for both fields, with
    the operation order of u + 0.5*dt*k1u, ..., u + dt/6*(k1u + 2*k2u +
    2*k3u + k4u).  0.5*dt, dt and dt/6 are refilled only when ``dt`` is not
    the object the last step was given; ``integrate`` gives one object to
    every step of an output interval.  ``_rhs_arrays`` is looked up at
    call time, and a ``(du, dv)`` pair from it is taken as well as a
    stacked array.
    """
    ws = cfg._workspace
    y0, y, acc, tmp, two = ws.y0, ws.y, ws.acc, ws.tmp, ws.two
    if dt is not ws.dt:
        ws.dt = dt
        ws.c_half[...] = 0.5 * dt
        ws.c_full[...] = dt
        ws.c_sixth[...] = dt / 6.0
    c_half = ws.c_half
    ws.u0[...] = u
    ws.v0[...] = v
    k = _rhs_arrays(cfg, ws.u0, ws.v0)  # k1
    np.copyto(acc, k)
    np.multiply(c_half, k, y)
    np.add(y0, y, y)
    k = _rhs_arrays(cfg, ws.u, ws.v)  # k2
    np.multiply(two, k, tmp)
    np.add(acc, tmp, acc)
    np.multiply(c_half, k, y)
    np.add(y0, y, y)
    k = _rhs_arrays(cfg, ws.u, ws.v)  # k3
    np.multiply(two, k, tmp)
    np.add(acc, tmp, acc)
    np.multiply(ws.c_full, k, y)
    np.add(y0, y, y)
    k = _rhs_arrays(cfg, ws.u, ws.v)  # k4
    np.add(acc, k, acc)
    np.multiply(ws.c_sixth, acc, acc)
    return np.add(y0, acc)


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
    gamma <= 0, or no coexistence base for V2).
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


# States per recorder block: a (16, 2, n) buffer is 64 KiB at 256 cells,
# enough to amortize NumPy's per-call cost without raising peak memory.
_SERIES_BLOCK = 16


class _SeriesRecorder:
    """TimeSeries rows, computed a block of states at a time.

    ``record`` stores t and copies the state into a (_SERIES_BLOCK, 2, n)
    buffer.  When the buffer fills, and in ``finalize`` (which a guard
    error reaches too), each quantity takes one NumPy call over the
    block's stacked states, reducing along the contiguous cell axis, so
    every row gets the pairwise sums a single state would.  V1 and V2
    take one call each on the rows that meet their preconditions; they are
    looked up in this module at call time.
    """

    def __init__(self, cfg: SolverConfig):
        self.h = cfg.grid.h
        self.kin = cfg.kin
        self.base = np.stack(cfg.base_arrays())
        self.co = cfg.coexistence_base()
        self.block = np.empty((_SERIES_BLOCK, 2, cfg.grid.n_cells))
        self.cols = np.empty((13, cfg.series_count))  # one row per TimeSeries field
        self.count = 0  # rows recorded
        self.flushed = 0  # rows whose diagnostics are in cols

    def record(self, t: float, u: np.ndarray, v: np.ndarray):
        row = self.count - self.flushed
        self.cols[0, self.count] = t
        self.block[row, 0] = u
        self.block[row, 1] = v
        self.count += 1
        if row + 1 == _SERIES_BLOCK:
            self._flush()

    def _flush(self):
        lo, hi = self.flushed, self.count
        self.flushed = hi
        if hi == lo:
            return
        h, y = self.h, self.block[: hi - lo]
        # c's rows are TimeSeries' fields: t, mass_u, mass_v, min_u, max_u,
        # min_v, max_v, l2_dev_u, l2_dev_v, std_u, std_v, V1, V2
        c = self.cols[:, lo:hi]
        lows = np.min(y, axis=-1)
        c[1:3] = (h * np.sum(y, axis=-1)).T
        c[3:7:2] = lows.T
        c[4:7:2] = np.max(y, axis=-1).T
        c[7:9] = np.sqrt(h * np.sum((y - self.base) ** 2, axis=-1)).T
        c[9:11] = np.std(y, axis=-1).T
        c[11:13] = math.nan
        ok = lows[:, 1] > 0.0
        if ok.any():
            try:
                c[11, ok] = lyapunov_v1(y[ok, 0], y[ok, 1], self.kin, h)
            except ValueError:
                pass
        if self.co is not None:
            ok &= lows[:, 0] > 0.0
            if ok.any():
                try:
                    c[12, ok] = lyapunov_v2(y[ok, 0], y[ok, 1], self.kin, self.co, h)
                except ValueError:
                    pass

    def finalize(self) -> TimeSeries:
        self._flush()
        return TimeSeries(*self.cols[:, : self.count])


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
            # imex_step, and a wrapper bound over rk4_step, may return a (u, v) pair
            y = np.asarray(step(cfg, u, v, dt))
            u, v = y
            # max and min propagate NaN, which fails every comparison, and
            # +-inf fail the limits: two reductions over both fields catch
            # every non-finite value.  _guard_error works out which guard
            # tripped.
            if not (y.max() <= BLOWUP_LIMIT and y.min() >= NEGATIVITY_LIMIT):
                raise _guard_error(t + (i + 1) * dt, u, v, cfg.grid, snapshots, rec)
        t = t_next
        if in_series[idx]:
            rec.record(t, u, v)
        if in_snap[idx]:
            snapshots.append(State(t, u.copy(), v.copy()))
    return Trajectory(cfg.grid, snapshots, rec.finalize())
