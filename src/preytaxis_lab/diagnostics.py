"""Trajectory diagnostics: Lyapunov functionals, convexity bounds for the
prey energy density, pattern-regime classification and decay-rate fits.

Two energy functionals certify global convergence in the stable regimes:

    V1 = (1/gamma) int u + int Z_K(v),      Z_w(v) = int_w^v (F(s)-F(w))/F(s) ds
    V2 = (1/gamma) int (u - u* - u* ln(u/u*)) + int Z_{v*}(v)

Both are nonnegative and nonincreasing along solutions in their respective
regimes; here they are evaluated on discrete states as monitoring
quantities.  Builtin kinetics use the closed antiderivative of Z; custom
kinetics fall back to adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .model import Equilibrium, EquilibriumKind, KineticsKind, KineticsModel

if TYPE_CHECKING:  # pragma: no cover
    from .solver import TimeSeries, Trajectory

__all__ = [
    "PatternLabel",
    "PatternClass",
    "DecayVerdict",
    "DecayFit",
    "ZetaBoundsReport",
    "InsufficientDataError",
    "zeta",
    "zeta_by_quadrature",
    "zeta_bounds_check",
    "lyapunov_v1",
    "lyapunov_v2",
    "classify_pattern",
    "decay_fit",
]

QUAD_TOL = 1e-10
SPATIAL_STD_THRESHOLD = 1e-2
OSCILLATION_THRESHOLD = 1e-2
PERIODICITY_THRESHOLD = 0.95
MIN_TAIL_POINTS = 50


class InsufficientDataError(ValueError):
    pass


def _zeta_closed(kin: KineticsModel, omega: float, v):
    """Closed antiderivative of (F(s)-F(omega))/F(s) from omega to v for
    the builtin kinetics; both reduce to c * [(v-omega) - omega ln(v/omega)]."""
    core = (v - omega) - omega * np.log(v / omega)
    if kin.kind is KineticsKind.LOTKA_VOLTERRA:
        return core
    return kin.lam / (kin.lam + omega) * core


def zeta_by_quadrature(kin: KineticsModel, omega: float, v: float) -> float:
    """Z_omega(v) by adaptive quadrature (absolute tolerance 1e-10)."""
    # Imported here: only custom kinetics reach this, and SciPy would
    # otherwise dominate the start-up of every CLI call.
    from scipy.integrate import quad

    F_omega = float(kin.F(omega))
    val, _ = quad(
        lambda s: 1.0 - F_omega / float(kin.F(s)), omega, v, epsabs=QUAD_TOL, limit=200
    )
    return val


def zeta(kin: KineticsModel, omega_star: float, v):
    """Prey energy density Z_omega(v) = int_omega^v (F(s)-F(omega))/F(s) ds.

    Convex, nonnegative, zero at v = omega.  Scalar or array v of any
    shape; requires omega and v positive (F must not vanish on the
    integration path).
    """
    if omega_star <= 0:
        raise ValueError("omega_star must be positive")
    varr = np.asarray(v, dtype=float)
    if np.any(varr <= 0.0):
        raise ValueError("v must be positive (F vanishes at 0)")
    if kin.kind is KineticsKind.CUSTOM:
        if varr.ndim == 0:
            return zeta_by_quadrature(kin, omega_star, float(varr))
        vals = [zeta_by_quadrature(kin, omega_star, x) for x in varr.ravel()]
        return np.array(vals).reshape(varr.shape)
    out = _zeta_closed(kin, omega_star, varr)
    return float(out) if varr.ndim == 0 else out


@dataclass(frozen=True)
class ZetaBoundsReport:
    """Sampled check of the two-sided quadratic bound

        F'(w)/(4F(w)) (v-w)^2  <=  Z_w(v)  <=  F'(w)/F(w) (v-w)^2

    on the neighborhood [w - delta, w + delta]."""

    holds_lower: bool
    holds_upper: bool
    worst_lower_violation: float
    worst_upper_violation: float
    delta: float
    n_samples: int


def zeta_bounds_check(
    kin: KineticsModel, omega_star: float, delta: float | None = None, n_samples: int = 1000
) -> ZetaBoundsReport:
    """Verify the quadratic sandwich bounds for Z near omega_star."""
    if delta is None:
        delta = 0.2 * omega_star
    lo = max(omega_star - delta, 1e-12 * omega_star)
    v = np.linspace(lo, omega_star + delta, n_samples)
    z = np.asarray(zeta(kin, omega_star, v), dtype=float)
    Fw = float(kin.F(omega_star))
    Fpw = float(kin.F_prime(omega_star))
    quad_term = (v - omega_star) ** 2
    lower = Fpw / (4.0 * Fw) * quad_term
    upper = Fpw / Fw * quad_term
    viol_lo = float(np.max(lower - z))
    viol_hi = float(np.max(z - upper))
    tol = 1e-12
    return ZetaBoundsReport(viol_lo <= tol, viol_hi <= tol, viol_lo, viol_hi, delta, n_samples)


def _energy(h: float, kin: KineticsModel, pred: np.ndarray, inner: np.ndarray):
    """(1/gamma) h sum(pred) + h sum(inner) along the cell (last) axis: a
    float for one state, an array for stacked states."""
    out = h * np.sum(pred, axis=-1) / kin.gamma + h * np.sum(inner, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def lyapunov_v1(u: np.ndarray, v: np.ndarray, kin: KineticsModel, h: float):
    """Prey-only energy (1/gamma) h sum(u) + h sum(Z_K(v_i)).

    Requires gamma > 0 and all v_i > 0 (the energy density diverges
    logarithmically as v -> 0 for the builtin kinetics).  States may be
    stacked, shape (..., n): the sums run along the last axis, and one
    state gives a float.
    """
    if kin.gamma <= 0:
        raise ValueError("V1 requires gamma > 0")
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("V1 requires all v_i > 0")
    return _energy(h, kin, u, zeta(kin, kin.K, v))


def lyapunov_v2(u: np.ndarray, v: np.ndarray, kin: KineticsModel, eq: Equilibrium, h: float):
    """Coexistence energy; zero exactly at (u*, v*), positive elsewhere.

    Stacked states as for lyapunov_v1.
    """
    if eq.kind is not EquilibriumKind.COEXISTENCE:
        raise ValueError("V2 is defined relative to a coexistence state")
    if kin.gamma <= 0:
        raise ValueError("V2 requires gamma > 0")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("V2 requires all u_i > 0")
    if np.any(v <= 0.0):
        raise ValueError("V2 requires all v_i > 0")
    u_star = eq.u
    pred = u - u_star - u_star * np.log(u / u_star)
    return _energy(h, kin, pred, zeta(kin, eq.v, v))


class PatternLabel(Enum):
    HOMOGENEOUS_STATIONARY = "homogeneous_stationary"
    HOMOGENEOUS_PERIODIC = "homogeneous_periodic"
    STATIONARY_INHOMOGENEOUS = "stationary_inhomogeneous"
    SPATIO_TEMPORAL = "spatio_temporal"


@dataclass(frozen=True)
class PatternClass:
    """Regime classification from tail-window statistics of a trajectory.

    Two booleans drive the label (spatial inhomogeneity of u, temporal
    oscillation of predator mass: a tail range above 1% of its mean and at
    least two turns); the periodicity flag, set only for an oscillatory
    tail, refines the class via the tail autocorrelation of the mass.
    """

    label: PatternLabel
    spatially_inhomogeneous: bool
    temporally_oscillatory: bool
    periodic: bool
    tail_spatial_std: float
    final_spatial_std: float
    oscillation_amplitude: float
    max_autocorrelation: float


def _max_lag_correlation(x: np.ndarray) -> float:
    """Largest Pearson correlation between the series and its lagged copy
    over positive lags up to half the window; NaN if degenerate."""
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


def classify_pattern(traj: "Trajectory", tail_fraction: float = 0.2) -> PatternClass:
    """Classify the asymptotic regime from the trajectory's tail window."""
    s = traj.series
    n = s.t.size
    m = int(math.ceil(tail_fraction * n))
    if m < MIN_TAIL_POINTS:
        raise InsufficientDataError(
            f"tail window has {m} points; need >= {MIN_TAIL_POINTS}"
        )
    std_tail = s.std_u[-m:]
    mass_tail = s.mass_u[-m:]
    tail_std = float(np.mean(std_tail))
    inhomog = tail_std > SPATIAL_STD_THRESHOLD
    ptp = float(mass_tail.max() - mass_tail.min())
    mean_mass = abs(float(np.mean(mass_tail)))
    # a monotone drift (a decay) also spans > 1% of its mean: the mass must
    # turn, i.e. its nonzero steps must change sign at least twice
    steps = np.sign(np.diff(mass_tail))
    turns = int(np.count_nonzero(np.diff(steps[steps != 0])))
    oscillatory = ptp > OSCILLATION_THRESHOLD * mean_mass and turns >= 2
    maxcorr = _max_lag_correlation(mass_tail - np.mean(mass_tail))
    periodic = oscillatory and maxcorr >= PERIODICITY_THRESHOLD  # False for a NaN maxcorr
    if inhomog and oscillatory:
        label = PatternLabel.SPATIO_TEMPORAL
    elif inhomog:
        label = PatternLabel.STATIONARY_INHOMOGENEOUS
    elif oscillatory:
        label = PatternLabel.HOMOGENEOUS_PERIODIC
    else:
        label = PatternLabel.HOMOGENEOUS_STATIONARY
    return PatternClass(
        label,
        inhomog,
        oscillatory,
        periodic,
        tail_std,
        float(s.std_u[-1]),
        ptp,
        maxcorr,
    )


class DecayVerdict(Enum):
    EXPONENTIAL = "exponential"
    ALGEBRAIC = "algebraic"
    NO_DECAY = "no_decay"


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay fit of the deviation norm over the tail window.

    An exponential verdict requires r^2 >= 0.99 and a positive rate; the
    winning hypothesis is the one with the larger r^2.
    """

    rate: float
    r_squared: float
    verdict: DecayVerdict


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and r^2 of an ordinary least-squares line."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def decay_fit(series: "TimeSeries", eq: Equilibrium, tail_fraction: float = 0.5) -> DecayFit:
    """Fit the decay of the deviation from eq over the tail of a run.

    Uses the sup-norm of u toward a prey-only or extinction state and the
    L2 deviation of u toward a coexistence state; compares the exponential
    hypothesis (log norm vs t) against the algebraic one (log norm vs
    log(1+t)).
    """
    if eq.kind is EquilibriumKind.COEXISTENCE:
        norm = np.asarray(series.l2_dev_u, dtype=float)
    else:
        norm = np.maximum(np.abs(series.max_u), np.abs(series.min_u))
    t = np.asarray(series.t, dtype=float)
    m = int(math.ceil(tail_fraction * t.size))
    t, norm = t[-m:], norm[-m:]
    keep = norm > 0.0
    if int(np.sum(keep)) < 100:
        raise InsufficientDataError("need >= 100 tail points with positive norms")
    t, y = t[keep], np.log(norm[keep])
    slope_exp, r2_exp = _linfit(t, y)
    slope_alg, r2_alg = _linfit(np.log1p(t), y)
    rate_exp, rate_alg = -slope_exp, -slope_alg
    if r2_exp >= r2_alg:
        if rate_exp > 0.0 and r2_exp >= 0.99:
            return DecayFit(rate_exp, r2_exp, DecayVerdict.EXPONENTIAL)
        if rate_alg > 0.0:
            return DecayFit(rate_alg, r2_alg, DecayVerdict.ALGEBRAIC)
        return DecayFit(rate_exp, r2_exp, DecayVerdict.NO_DECAY)
    if rate_alg > 0.0:
        return DecayFit(rate_alg, r2_alg, DecayVerdict.ALGEBRAIC)
    return DecayFit(rate_alg, r2_alg, DecayVerdict.NO_DECAY)
