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
needs, allocated once, and binds its kernels once: closures over those
buffers, the 0-d operands h, D and 2.0 (which NumPy takes without the
per-call conversion of a Python float), the ufuncs, and the model
kernels that ``MotilityModel._kernel`` and ``KineticsModel._kernel``
bind for d and chi and for the reaction with F and f.  A stage then
makes ufunc calls and zero-argument kernel calls only, with no model
method, kind check or attribute lookup.  Every state-sized buffer is one
C-contiguous (2, n + 1) block: row 0 holds u and row 1 v, each as n
cells and one pad lane that starts at +0.0 and stays +0.0.  NumPy runs a
ufunc over a contiguous operand in its fast inner loop, and over strided
views through its general iterator, which at these sizes costs more than
the arithmetic.  So the face sums, the face differences and the flux
divergence, which pair each lane with the next, each take one 1-D call
on the flat block [u, pad, v, pad]: the faces that touch a pad are junk
that no flux reads, and the divergence lane between the rows is
(+0.0) - (-0.0) = +0.0, on row 0's pad.  The three stage builds and the
k1 + 2k2 + 2k3 + k4 sum each take one call on whole blocks.  Every call
writes into a workspace buffer, so a right-hand side with builtin
kinetics allocates nothing.  A step evaluates k1 on its start state in
the workspace's start block ``y0``, straight into the sum; its 0.5*dt,
dt and dt/6 are set only when dt changes, once per output interval in
``integrate`` (once per step before a config's ``series_from``).
``integrate`` keeps the run's state in ``y0`` itself: it copies the
start state into ``y0``'s cells once and hands every step that block's
own rows, so a step copies nothing in, writes the new state over ``y0``
and returns the workspace's view of its cells, which ``integrate``
checks with one maximum and one minimum reduction, on the cells alone.  Given any other arrays, a step copies them into ``y0``
first and returns the new state as the cells of a new block.  ``stable_dt``
runs a kernel of the same workspace, in buffers of its own, and divides
the largest advective term by h once (doubled first: its face buffers
hold chi/2).

The kernels are bound with every operation that the run's constants fix
folded out, so a right-hand side makes fewer calls and every element
keeps its bits:

- a multiply by a parameter that is exactly 1.0 (mu*v, theta*u) is
  dropped, since x*1 == x for every double, signed zeros and NaN
  included;
- gamma*u*F reuses the u*F the prey row needs: as it is when gamma == 1,
  and as gamma*(u*F) when gamma is another power of two;
- the face sums s_u = u[i] + u[i+1] and s_v = v[i] + v[i+1] are not
  halved, in the right-hand side or in ``stable_dt``: the motility
  kernel reads s_v with (r/2, 2) bound where the face value v_f takes
  (r, 1), and gives chi/2, so r*(v_f - 1) is (r/2)*(s_v - 2) and
  u_f*chi is s_u*(chi/2);
- where r/2 is exactly 1.0 (d1 and d3, r = 2), the right-hand side's
  motility kernel drops both multiplies by it, which is exact like the
  first fold;
- v/K in f is formed as v*(1/K) when K is a power of two, the same real
  rounded once, so exact for every double.

The first, the fourth and the fifth are exact always.  The power-of-two
scalings of the second and third are exact unless a result is subnormal
(below 2.2e-308 in magnitude) or overflows; only there can a bit differ
from the unfolded expressions.

``integrate`` runs the ``stable_dt`` kernel only where it can change the
result.  An output interval takes n_sub = max(1, ceil(interval / dt_cfl))
equal steps, so dt_cfl enters the result through that integer alone.  The
workspace brackets dt_cfl from the prey row's min and max (two
reductions): d1-d3 decrease in v, so the kernel's largest d is d at the
row's min, which a scalar formula with ``math.exp`` gives up to the 1-ulp
gap between NumPy's exp and the C library's, and the row's max minus its
min bounds every prey face difference.  Where the bracket's two ends give
the same n_sub the kernel would give it too, so ``integrate`` takes it
without the kernel and every bit of the result is the same; only where
they differ does it call ``stable_dt``.  Before a config's
``series_from`` no series row is recorded, and ``integrate`` sets every
step there from the bracket's lower end on the state it starts from (see
there).  Three lookups stay at call time, so wrappers bound in this module
by name see every call: ``integrate`` looks up ``rk4_step`` and
``stable_dt``, and ``rk4_step`` looks up ``_rhs_arrays``, which picks the
start-state or the stage kernel by the identity of its arguments.  At 128
or 256 cells a step is bound by NumPy's per-call cost and the
interpreter's work around it, not by arithmetic, so fewer and cheaper
calls make it faster; every element still takes the operations of the
plain expressions in their order, up to the folds above, so results are
the same to the last bit.
``rhs`` returns new arrays, and so does ``rk4_step`` except on the
workspace's own rows ``u0`` and ``v0``, where it returns the view of
``y0``'s cells that the next such step overwrites.  A workspace is
scratch for one caller at a time: a SolverConfig must not be stepped,
nor passed to ``stable_dt``, from two threads at once.
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


def _is_count(x) -> bool:
    """Whether ``x`` is an integer, NumPy's included (a float is not)."""
    return isinstance(x, (int, np.integer))


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [0, ell]."""

    ell: float
    n_cells: int

    def __post_init__(self):
        if not _is_count(self.n_cells):
            raise ValueError("the cell count must be an integer")
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
        if not _is_count(self.seed):
            raise ValueError("the seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


PRNG_NAME = "numpy PCG64 (default_rng)"


@dataclass(frozen=True)
class SolverConfig:
    """A run's models, grid, start and output schedule.

    The series is sampled at ``series_count`` times from 0 to t_end
    (``series_times``); rows before ``series_from`` are not recorded.
    ``integrate`` leaves them in the ``TimeSeries`` with their schedule
    time and NaN in every other column, and sets each step before them
    from the state it starts from (see there).  The default 0.0 records
    every row.
    """

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
    series_from: float = 0.0

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0 < self.D < math.inf:
            raise ValueError("D must be positive and finite")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not (_is_count(self.snapshot_count) and _is_count(self.series_count)):
            raise ValueError("output counts must be integers")
        if self.snapshot_count < 2 or self.series_count < 2:
            raise ValueError("need at least two output points")
        if not 0.0 <= self.series_from <= self.t_end:
            raise ValueError("series_from must lie in [0, t_end]")

    def series_times(self) -> np.ndarray:
        """The series schedule: ``series_count`` equally spaced times from 0
        to t_end."""
        return np.linspace(0.0, self.t_end, self.series_count)

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
    """Buffers, views and bound kernels for RK4 on one SolverConfig, built once.

    Every buffer is one C-contiguous (2, n + 1) block: row 0 holds the
    predator u, row 1 the prey v, each as its n cells and then one pad
    lane that starts at +0.0 and stays +0.0.  ``y0`` holds the step's
    start state, and ``cells`` is the view of its (2, n) cells that a step
    on ``y0``'s own rows ``u0`` and ``v0`` returns.  ``y`` holds the stage
    state, ``acc`` the k1 + 2k2 + 2k3 + k4 sum, ``tmp`` scratch, ``dy``
    the stage derivative, ``react`` the reaction and ``flux`` the face
    flux (its ends are the zero-flux boundaries).  NumPy runs a ufunc
    over a whole contiguous block as one 1-D loop, so a stage build or a
    step of the sum is one fast call for both fields.  The face sums and differences and the flux divergence,
    which pair each lane with the next, run on flat views of the blocks,
    [u, pad, v, pad], as one contiguous 1-D call each; on strided (2, .)
    views NumPy goes through its general iterator.  Two lanes of those
    calls are junk: the faces that touch a pad, which no flux reads, and
    the divergence lane between the rows, (+0.0) - (-0.0) = +0.0, which
    lands on row 0's pad.

    Two right-hand-side kernels are bound: ``start`` reads ``y0`` and
    writes k1 straight into ``acc``, and ``stage`` reads ``y`` and writes
    ``dy``; each returns the (2, n) cells of what it wrote, ``k1`` or
    ``k``.  ``stable_dt`` is a kernel of its own, in buffers of its own,
    and ``dt_bracket`` brackets its result from the prey row's range (see
    ``_bind_dt_bracket``).  Each kernel is a closure over every buffer,
    view, 0-d operand, ufunc and model kernel it uses, so a call makes no
    attribute lookup and no dispatch on the model kinds.
    """

    def __init__(self, cfg: SolverConfig):
        n = cfg.grid.n_cells
        h, D, self.two = _operands(cfg.grid.h, cfg.D, 2.0)
        # 0.5*dt, dt and dt/6 of the step size ``dt``, set when it changes
        self.dt = None
        self.c_half, self.c_full, self.c_sixth = np.empty(()), np.empty(()), np.empty(())
        # np.zeros gives every pad lane its +0.0
        self.blocks = np.zeros((6, 2, n + 1))
        self.y0, self.y, self.dy, self.acc, self.tmp, react = self.blocks
        self.cells = self.y0[:, :n]
        self.u0, self.v0 = self.cells
        self.u, self.v = self.y[:, :n]
        self.k, self.k1 = self.dy[:, :n], self.acc[:, :n]
        # face sums hold (su, sv) = (2uf, 2vf) and face differences
        # (du/h, dv/h) in lanes [:n - 1] of each row; the flat calls also
        # fill row 0's last two lanes and row 1's lane n - 1, with junk.
        # The motility kernel reads sv and writes d(vf) and chi(vf)/2, and
        # su * (chi/2) is uf * chi, so the sums are not halved.
        face_sum, face_diff = np.zeros((2, 2, n + 1))
        sums, diffs = face_sum.reshape(-1)[:-1], face_diff.reshape(-1)[:-1]
        su, sv = face_sum[:, : n - 1]
        dudx, dvdx = face_diff[:, : n - 1]
        d, chi_half, taxis = np.empty((3, n - 1))
        motility = cfg.mot._kernel(sv, d, chi_half, scale=self.two)
        self.flux = _padded_flux(2, n)
        flux_u, flux_v = self.flux[:, 1:-1]
        flat_flux = self.flux.reshape(-1)
        flux_r, flux_l = flat_flux[1:], flat_flux[:-1]
        ru, rv = react[:, :n]
        Fv = np.empty(n)  # the reaction's F(v) scratch
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide

        def bind_rhs(y, dy, cells):
            """(du/dt, dv/dt) of the state block ``y`` into the block ``dy``:
            the fluxes of the module docstring and the reaction.  The kernel
            returns ``cells``, the (2, n) cells of ``dy``."""
            flat = y.reshape(-1)
            y_r, y_l = flat[1:], flat[:-1]
            div = dy.reshape(-1)[:-1]  # the flux has one lane fewer than dy
            u, v = y[:, :n]
            reaction = cfg.kin._kernel(v, F=Fv, f=rv, scratch=ru, u=u, du=ru)

            def rhs():
                add(y_r, y_l, sums)
                subtract(y_r, y_l, diffs)
                divide(diffs, h, diffs)
                motility()
                # flux_u = d(vf) * (du/h) - (uf * chi(vf)) * dvdx; flux_v = D * dvdx
                multiply(dudx, d, flux_u)
                multiply(su, chi_half, taxis)
                multiply(taxis, dvdx, taxis)
                subtract(flux_u, taxis, flux_u)
                multiply(D, dvdx, flux_v)
                subtract(flux_r, flux_l, div)
                divide(div, h, div)
                reaction()
                add(dy, react, dy)
                return cells

            return rhs

        self.start = bind_rhs(self.y0, self.acc, self.k1)
        self.stage = bind_rhs(self.y, self.dy, self.k)
        self.stable_dt = _bind_stable_dt(cfg)
        self.dt_bracket = _bind_dt_bracket(cfg)


def _bind_stable_dt(cfg: SolverConfig):
    """The workspace's ``stable_dt`` kernel: v in, the CFL step out.

    The motility input holds the n cells, then the n - 1 face sums
    v[i] + v[i+1], with a scale of 1 on the cells and 2 on the faces: d
    lands on the cells and chi/2 on the faces (see
    ``MotilityModel._kernel``), and ``speed`` holds
    |chi/2 * (v[1:] - v[:-1])|, each half of |chi * (v[1:] - v[:-1])|
    exactly.  Its maximum is doubled (exact) and divided by h once: IEEE
    division by h > 0 is correctly rounded and monotone, so that is the
    maximum of the speeds divided by h, to the bit.
    """
    n = cfg.grid.n_cells
    h, D, safety = cfg.grid.h, cfg.D, cfg.cfl_safety
    v_cf, dt_d, dt_chi = np.empty((3, 2 * n - 1))
    v_cells, v_faces = v_cf[:n], v_cf[n:]
    v_r, v_l = v_cells[1:], v_cells[:-1]
    d_cells, chi_faces = dt_d[:n], dt_chi[n:]
    speed = np.empty(n - 1)
    scale = np.ones(2 * n - 1)
    scale[n:] = 2.0
    motility = cfg.mot._kernel(v_cf, dt_d, dt_chi, scale=scale)
    add, subtract, multiply, absolute = np.add, np.subtract, np.multiply, np.absolute
    largest = np.maximum.reduce

    def stable_dt(v):
        v_cells[...] = v
        add(v_r, v_l, v_faces)
        motility()
        d_max = float(largest(d_cells))
        subtract(v_r, v_l, speed)
        multiply(chi_faces, speed, speed)
        absolute(speed, speed)
        w_max = float(largest(speed)) * 2.0 / h
        dt_diff = h * h / (2.0 * max(d_max, D))
        dt_adv = h / (w_max + 1e-300)
        return safety * min(dt_diff, dt_adv)

    return stable_dt


# Relative margin of the bracket's ends on ``stable_dt``: it covers the
# few roundings (each <= 1.1e-16 relative) by which the computed chi and
# the bracket's own arithmetic can stray from the exact bounds, and the gap
# between NumPy's exp and the C library's in the bracket's d (1 ulp where
# measured; the margin is about 4500).
_BRACKET_MARGIN = 1e-12


def _bind_dt_bracket(cfg: SolverConfig):
    """The workspace's bracket on the ``stable_dt`` kernel's result:
    ``dt_bracket(v_min, v_max)`` gives ``(lower, upper)`` from the prey
    row's min and max.

    d1-d3 decrease in v, and so does the kernel's d up to its exp: v - 1,
    the product with r > 0, the cap and the operations after exp are
    correctly rounded and monotone.  So no cell's d is above d at v_min
    by more than exp's error, and the kernel's largest d is at least the
    d of the cell that holds v_min.  ``MotilityModel._scalar_d`` gives d
    at v_min up to the gap between NumPy's exp and ``math.exp``; for the
    constant kind it is d_const exactly.

    The upper end is safety*h^2/(2 max(d(v_min), D)) in the kernel's order
    of operations, with d(v_min) lowered by ``_BRACKET_MARGIN``: the max
    is then at most the kernel's, every later operation is correctly
    rounded and monotone, and the kernel's advective bound only lowers its
    result, so the end is >= that result to the bit.  The lower end is
    safety*min(h^2/(2 max(d(v_min), D)), h/(sup|chi|*(v_max - v_min)/h))
    with d(v_min) and the motility model's ``sup_chi`` raised and the
    result lowered by the margin: v_max - v_min bounds every prey face
    difference, so it is <= the kernel's result.

    For an interval of length delta and n = max(1, ceil(delta/upper)),
    delta <= n*lower means the kernel's count max(1, ceil(delta/dt_cfl)) is
    n as well: the lower end's margin keeps delta/dt_cfl below n through
    the rounding of n*lower.
    """
    h, D, safety = cfg.grid.h, cfg.D, cfg.cfl_safety
    d_at = cfg.mot._scalar_d()
    rate = cfg.mot.sup_chi * (1.0 + _BRACKET_MARGIN) / h
    shrink = safety * (1.0 - _BRACKET_MARGIN)
    d_low, d_high = 1.0 - _BRACKET_MARGIN, 1.0 + _BRACKET_MARGIN

    def dt_bracket(v_min, v_max):
        d_max = d_at(v_min)
        return (
            shrink * min(
                h * h / (2.0 * max(d_max * d_high, D)),
                h / (rate * (v_max - v_min) + 1e-300),
            ),
            safety * (h * h / (2.0 * max(d_max * d_low, D))),
        )

    return dt_bracket


def _rhs_arrays(cfg: SolverConfig, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(du/dt, dv/dt) as the (2, n) cells of a workspace block: divergence
    of the fluxes in the module docstring plus the reaction terms.

    The workspace's rows ``u0`` and ``v0`` (the step's start state) run the
    ``start`` kernel, whose result is ``k1``, the cells of the step's sum
    ``acc``; any other arrays run the ``stage`` kernel on ``u`` and ``v``,
    into which arrays other than those rows are copied first, and give
    ``k``, the cells of ``dy``.  The result is overwritten by the next call
    on the same config.  Every element takes the operations of the plain
    expressions in their order, so the result is the same to the last bit.
    """
    ws = cfg._workspace
    if u is ws.u0 and v is ws.v0:
        return ws.start()
    if u is not ws.u:
        ws.u[...] = u
    if v is not ws.v:
        ws.v[...] = v
    return ws.stage()


def rhs(state: State, cfg: SolverConfig):
    """Time derivatives (du/dt, dv/dt) of the semi-discrete system."""
    if not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))):
        raise ValueError("state contains non-finite values")
    du, dv = _rhs_arrays(cfg, state.u, state.v)
    return du.copy(), dv.copy()


def stable_dt(state: State, cfg: SolverConfig) -> float:
    """CFL-limited explicit step: the diffusive bound h^2/(2 max(d, D))
    and the taxis-advection bound h/w_max, scaled by cfl_safety.

    It runs the workspace's ``stable_dt`` kernel.  One motility evaluation
    covers the cells (for d) and the faces (for chi) together.  Every
    temporary is a buffer of the config's workspace, and the result has the
    bits of the plain expressions 0.5*(v[1:] + v[:-1]) and
    abs(chi*(v[1:] - v[:-1])/h), with the face halving folded into chi as
    the module docstring says.  ``integrate`` calls it on
    the output intervals whose step count the workspace's bracket leaves
    open."""
    return cfg._workspace.stable_dt(state.v)


def rk4_step(cfg: SolverConfig, u: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """One classic RK4 step; returns the new state as one (2, n) array,
    which callers unpack as ``u, v``.

    The stages run in the config's workspace, from its start block ``y0``.
    Given ``y0``'s own rows (``u`` is ``ws.u0`` and ``v`` is ``ws.v0``, the
    identity test ``_rhs_arrays`` makes), the step advances that state in
    place: it copies nothing in, writes the new state over ``y0`` and
    returns ``ws.cells``, the view of ``y0``'s cells, which the next step
    overwrites.  ``integrate`` steps this way.  Any other arrays are copied
    into ``y0`` first, and the result is the cells of a new (2, n + 1)
    block that no later call touches.  k1 is evaluated on ``y0`` in place,
    straight into the sum ``acc``.  Each stage build and the
    k1 + 2k2 + 2k3 + k4 sum take one call on whole (2, n + 1) blocks, pads
    included, with the operation order of u + 0.5*dt*k1u, ...,
    u + dt/6*(k1u + 2*k2u + 2*k3u + k4u).
    0.5*dt, dt and dt/6 are refilled only when ``dt`` is not the object the
    last step was given; ``integrate`` gives one object to every step of an
    output interval.  ``_rhs_arrays`` is looked up at call time; a result
    of it other than the workspace's own (a ``(du, dv)`` pair from a
    wrapper) is copied into the cells of ``acc`` or ``dy``.
    """
    ws = cfg._workspace
    if dt is not ws.dt:
        ws.dt = dt
        ws.c_half[...] = 0.5 * dt
        ws.c_full[...] = dt
        ws.c_sixth[...] = dt / 6.0
    y0, y, dy, acc, tmp, two = ws.y0, ws.y, ws.dy, ws.acc, ws.tmp, ws.two
    u0, v0, u1, v1, k1, k_cells = ws.u0, ws.v0, ws.u, ws.v, ws.k1, ws.k
    c_half = ws.c_half
    multiply, add = np.multiply, np.add
    in_place = u is u0 and v is v0
    if not in_place:
        u0[...] = u
        v0[...] = v
    k = _rhs_arrays(cfg, u0, v0)  # k1
    if k is not k1:
        k1[...] = k
    multiply(c_half, acc, y)
    add(y0, y, y)
    k = _rhs_arrays(cfg, u1, v1)  # k2
    if k is not k_cells:
        k_cells[...] = k
    multiply(two, dy, tmp)
    add(acc, tmp, acc)
    multiply(c_half, dy, y)
    add(y0, y, y)
    k = _rhs_arrays(cfg, u1, v1)  # k3
    if k is not k_cells:
        k_cells[...] = k
    multiply(two, dy, tmp)
    add(acc, tmp, acc)
    multiply(ws.c_full, dy, y)
    add(y0, y, y)
    k = _rhs_arrays(cfg, u1, v1)  # k4
    if k is not k_cells:
        k_cells[...] = k
    add(acc, dy, acc)
    multiply(ws.c_sixth, acc, acc)
    if in_place:
        add(y0, acc, y0)
        return ws.cells
    return add(y0, acc)[:, : u0.size]


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
    gamma <= 0, or no coexistence base for V2).  A row before the config's
    ``series_from`` is not recorded: it holds its schedule time in ``t``
    and NaN in every other column.
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
    """Snapshots and series of a run, with ``stats``: what ``integrate``
    did to make them (see there)."""

    grid: Grid1D
    snapshots: list[State]
    series: TimeSeries
    status: str = "ok"
    stats: dict = field(default_factory=dict)


# States per recorder block: a (2, 64, n) buffer is 128 KiB at 128 cells
# and 256 KiB at 256.  A 500-row series took least time at 64 states per
# block at 256 cells and within 0.5 ms of the least (at 128) at 128 cells;
# 128 doubles the block and the temporaries of a flush, which raised the
# peak memory of an eight-member sweep by 1.3 MB.
_SERIES_BLOCK = 64


class _SeriesRecorder:
    """TimeSeries rows, computed a block of states at a time.

    ``record`` stores t and copies the state's u and v rows into a
    field-major (2, _SERIES_BLOCK, n) buffer, in one copy.  When the buffer
    fills, and in ``finalize`` (which a guard error reaches too), each
    quantity takes one NumPy call over the block's stacked states, reducing
    along the contiguous cell axis, so every row gets the pairwise sums a
    single state would.  The squared deviations from the base and from the
    mean (the operations ``np.std`` makes) go into one block-sized scratch.
    V1 and V2 take one call each on the rows that meet their
    preconditions, as contiguous (rows, n) views of the block when every
    row does; they are looked up in this module at call time.

    The recorder starts at ``first``, the first row at or after the
    config's ``series_from``: the rows before it hold their schedule time
    and NaN, and are never recorded.
    """

    def __init__(self, cfg: SolverConfig):
        self.h = cfg.grid.h
        self.kin = cfg.kin
        self.base = np.stack(cfg.base_arrays())[:, None]
        self.co = cfg.coexistence_base()
        self.block = np.empty((2, _SERIES_BLOCK, cfg.grid.n_cells))
        self.dev = np.empty_like(self.block)  # deviations scratch of a flush
        self.cols = np.empty((13, cfg.series_count))  # one row per TimeSeries field
        times = cfg.series_times()
        self.first = int(np.searchsorted(times, cfg.series_from))
        self.cols[0, : self.first] = times[: self.first]
        self.cols[1:, : self.first] = math.nan
        self.count = self.first  # rows recorded, or passed before the first
        self.flushed = self.first  # rows whose diagnostics are in cols

    def record(self, t: float, y: np.ndarray):
        """Store the (2, n) state ``y`` (rows u and v) at time t."""
        row = self.count - self.flushed
        self.cols[0, self.count] = t
        self.block[:, row] = y
        self.count += 1
        if row + 1 == _SERIES_BLOCK:
            self._flush()

    def _flush(self):
        lo, hi = self.flushed, self.count
        self.flushed = hi
        if hi == lo:
            return
        h, y, dev = self.h, self.block[:, : hi - lo], self.dev[:, : hi - lo]
        n = y.shape[-1]
        # c's rows are TimeSeries' fields: t, mass_u, mass_v, min_u, max_u,
        # min_v, max_v, l2_dev_u, l2_dev_v, std_u, std_v, V1, V2
        c = self.cols[:, lo:hi]
        lows = np.min(y, axis=-1)
        sums = np.sum(y, axis=-1)
        c[1:3] = h * sums
        c[3:7:2] = lows
        c[4:7:2] = np.max(y, axis=-1)
        np.subtract(y, self.base, out=dev)
        np.square(dev, out=dev)
        c[7:9] = np.sqrt(h * np.sum(dev, axis=-1))
        # np.std's operations: the sum over n as the mean, the squared
        # deviations from it, their sum over n, the square root
        np.subtract(y, (sums / n)[..., None], out=dev)
        np.square(dev, out=dev)
        c[9:11] = np.sqrt(np.sum(dev, axis=-1) / n)
        c[11:13] = math.nan
        # with every row qualifying, (rows, n) views of the block stand in
        # for masked copies, so a flush holds no copy beside the scratch
        ok = lows[1] > 0.0
        if ok.any():
            rows = slice(None) if ok.all() else ok
            try:
                c[11, rows] = lyapunov_v1(y[0, rows], y[1, rows], self.kin, h)
            except ValueError:
                pass
        if self.co is not None:
            ok &= lows[0] > 0.0
            if ok.any():
                rows = slice(None) if ok.all() else ok
                try:
                    c[12, rows] = lyapunov_v2(y[0, rows], y[1, rows], self.kin, self.co, h)
                except ValueError:
                    pass

    def finalize(self, t_fail: float = math.inf) -> TimeSeries:
        """The rows so far.  A run that failed at ``t_fail`` before recording
        the first row keeps the rows before that time."""
        self._flush()
        rows = self.count
        if rows == self.first:
            rows = int(np.searchsorted(self.cols[0, :rows], t_fail))
        return TimeSeries(*self.cols[:, :rows])


def _run_stats(steps: int, rhs_per_step: int, dt_calls: int, dt_min: float, dt_max: float) -> dict:
    """``Trajectory.stats`` of a run whose steps each evaluate the
    right-hand side ``rhs_per_step`` times; dt_min and dt_max are None
    before the first step."""
    return {
        "steps": steps,
        "rhs_evals": rhs_per_step * steps,
        "stable_dt_calls": dt_calls,
        "dt_min": dt_min if steps else None,
        "dt_max": dt_max if steps else None,
    }


def _guard_error(t, u, v, grid, snapshots, rec, stats) -> _GuardError:
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
    traj = Trajectory(grid, snapshots, rec.finalize(t), error.status, stats)
    return error(t, traj, guard, name, cell, float(fields[name][cell]))


def integrate(cfg: SolverConfig) -> Trajectory:
    """Advance the system to t_end, recording snapshots and scalar series.

    Each output interval is split into n_sub = max(1, ceil(interval /
    dt_cfl)) equal steps, with dt_cfl the CFL step of the interval's start
    state, so steps land exactly on output times.  The workspace's bracket
    on dt_cfl, from the prey row's min and max (two reductions), gives
    n_sub without the ``stable_dt`` kernel when its two ends agree: it is
    the kernel's count then, so the result keeps every bit.  ``stable_dt``
    runs only on intervals where the ends differ.

    The run's state lives in the workspace's start block ``y0``: the start
    state is copied into its cells once, and every step is given its rows
    ``u0`` and ``v0``, so ``rk4_step`` advances it in place and returns the
    view ``ws.cells``.  A step result that is not that view (a ``(u, v)``
    pair from a wrapper, or IMEX's) is copied into it.  Snapshots and the
    series recorder copy the state out.

    Rows before the config's ``series_from`` are not output times (see
    ``SolverConfig``), and up to the window's first row the step follows
    the state: each step is remaining/ceil(remaining/dt_lo), where
    remaining is the time left to the next output time (a snapshot, or the
    window's first row) and dt_lo is the lower end of the workspace's
    bracket on the state the step starts from, a proven lower bound on
    that state's CFL step.  The last step to an output time is the
    remaining time itself, so steps land on it exactly.  From the window's
    first row on, each output interval takes its n_sub as above; with
    ``series_from`` = 0 every row is an output time and no step is set
    this way.

    The trajectory's ``stats`` hold ``steps`` (steps taken),
    ``rhs_evals`` (right-hand-side evaluations: 4 per RK4 step, 1 per IMEX
    step), ``stable_dt_calls`` and the smallest and largest step,
    ``dt_min`` and ``dt_max`` (None before the first step).  A failed
    run's trajectory has them too, up to the failing step.

    Raises BlowUpError (fields beyond 1e6 or non-finite) or
    NonPhysicalError (densities below -1e-8); both carry the partial
    trajectory, the time the failing step reached (0 for a start state that
    fails the guard), and the guard, cell and value that tripped.
    """
    state = init_state(cfg)
    rec = _SeriesRecorder(cfg)
    snapshots: list[State] = []
    ws = cfg._workspace
    y, u, v = ws.cells, ws.u0, ws.v0
    u[...] = state.u
    v[...] = state.v
    # maximum and minimum propagate NaN, which fails every comparison, and
    # +-inf fail the limits: two reductions over both fields catch every
    # non-finite value.  _guard_error works out which guard tripped.  The
    # start state is checked like a step's result, before it is recorded.
    largest, smallest = np.maximum.reduce, np.minimum.reduce
    hi, lo = largest(y, None), smallest(y, None)
    steps = dt_calls = 0
    dt_min, dt_max = math.inf, 0.0
    rhs_per_step = 4 if cfg.scheme == "rk4" else 1
    if not (hi <= BLOWUP_LIMIT and lo >= NEGATIVITY_LIMIT):
        stats = _run_stats(0, rhs_per_step, 0, dt_min, dt_max)
        raise _guard_error(0.0, u, v, cfg.grid, snapshots, rec, stats)
    dt_bracket = ws.dt_bracket

    window = cfg.series_times()[rec.first :]
    t_free = float(window[0])  # steps follow the state up to the window
    snap_t = np.linspace(0.0, cfg.t_end, cfg.snapshot_count)
    events = np.union1d(window, snap_t)
    in_series = np.isin(events, window).tolist()
    in_snap = np.isin(events, snap_t).tolist()
    events = events.tolist()

    if in_series[0]:
        rec.record(0.0, y)
    snapshots.append(State(0.0, u.copy(), v.copy()))

    step = rk4_step if cfg.scheme == "rk4" else imex_step
    t = 0.0
    for t_next, series_row, snap_row in zip(events[1:], in_series[1:], in_snap[1:]):
        if t_next <= t_free:
            # before the window each step is set from the state it starts
            # from: the remaining time over ceil(remaining / dt_lo), dt_lo
            # the bracket's lower end on that state
            while True:
                remaining = t_next - t
                m = math.ceil(remaining / dt_bracket(float(smallest(v)), float(largest(v)))[0])
                dt = remaining / m
                dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
                new = step(cfg, u, v, dt)
                if new is not y:
                    y[...] = new
                steps += 1
                hi, lo = largest(y, None), smallest(y, None)
                if not (hi <= BLOWUP_LIMIT and lo >= NEGATIVITY_LIMIT):
                    stats = _run_stats(steps, rhs_per_step, dt_calls, dt_min, dt_max)
                    raise _guard_error(t + dt, u, v, cfg.grid, snapshots, rec, stats)
                if m == 1:
                    break
                t += dt
        else:
            delta = t_next - t
            # dt depends on stable_dt only through n_sub, and where the
            # bracket fixes n_sub the kernel would give the same count
            lower, upper = dt_bracket(float(smallest(v)), float(largest(v)))
            n_sub = max(1, math.ceil(delta / upper))
            if delta > n_sub * lower:
                dt_calls += 1
                n_sub = max(1, math.ceil(delta / stable_dt(State(t, u, v), cfg)))
            dt = delta / n_sub
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            for i in range(n_sub):
                new = step(cfg, u, v, dt)
                # rk4_step advances y in place; imex_step, and a wrapper bound
                # over rk4_step, may return a new array or a (u, v) pair
                if new is not y:
                    y[...] = new
                hi, lo = largest(y, None), smallest(y, None)
                if not (hi <= BLOWUP_LIMIT and lo >= NEGATIVITY_LIMIT):
                    stats = _run_stats(steps + i + 1, rhs_per_step, dt_calls, dt_min, dt_max)
                    raise _guard_error(t + (i + 1) * dt, u, v, cfg.grid, snapshots, rec, stats)
            steps += n_sub
        t = t_next
        if series_row:
            rec.record(t, y)
        if snap_row:
            snapshots.append(State(t, u.copy(), v.copy()))
    stats = _run_stats(steps, rhs_per_step, dt_calls, dt_min, dt_max)
    return Trajectory(cfg.grid, snapshots, rec.finalize(), stats=stats)
