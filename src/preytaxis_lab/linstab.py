"""Linear stability analysis around homogeneous steady states.

Perturbations proportional to cos(k x) evolve under the 2x2 matrix
M_k = -k^2 A + B, where A collects diffusion/taxis coefficients and B is
the reaction Jacobian.  Temporal eigenvalues rho solve

    rho^2 + a(D, k^2) rho + b(D, k^2) = 0,

with a = -trace(M_k) and b = det(M_k), that is

    a = (d* + D) k^2 - beta1,
    b = d* D k^4 - beta2 k^2 + beta3.

`LinearizedSystem.coefficients` (from the Jacobian, at any steady state) and
`beta_coefficients` (closed form, at the Rosenzweig-MacArthur coexistence
state without predator competition) give the same `BetaCoefficients` triple.
One root finder gives its k^2 bands, where b or a^2 - 4b is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .model import (
    Equilibrium,
    EquilibriumKind,
    KineticsKind,
    KineticsModel,
    MotilityModel,
)

__all__ = [
    "LinearizedSystem",
    "StabilityClass",
    "DispersionPoint",
    "BetaCoefficients",
    "BifurcationCurve",
    "Mode",
    "MinStabilizingD",
    "linearize",
    "dispersion",
    "beta_coefficients",
    "bifurcation_curves",
    "steady_band",
    "steady_band_threshold",
    "hopf_band",
    "unstable_modes",
    "grid_decay_rate",
    "min_stabilizing_D",
]

MARGINAL_TOL = 1e-12


@dataclass(frozen=True)
class LinearizedSystem:
    """Diffusion/taxis matrix A and reaction Jacobian B at a steady state.

    A = [[d(v_s), -u_s*chi(v_s)], [0, D]]; B is the exact Jacobian of the
    reaction terms, valid at any of the three homogeneous states.
    """

    A: np.ndarray
    B: np.ndarray
    eq: Equilibrium

    @property
    def d_star(self) -> float:
        return float(self.A[0, 0])

    @property
    def D(self) -> float:
        return float(self.A[1, 1])

    @property
    def taxis(self) -> float:
        """u_s * chi(v_s), the cross-diffusion strength."""
        return -float(self.A[0, 1])

    @cached_property
    def coefficients(self) -> BetaCoefficients:
        """(trace B, d* B4 + taxis B3 + B1 D, det B): the triple that
        `beta_coefficients` gives in closed form, from the Jacobian."""
        d, D = self.d_star, self.D
        B1, B2 = float(self.B[0, 0]), float(self.B[0, 1])
        B3, B4 = float(self.B[1, 0]), float(self.B[1, 1])
        return BetaCoefficients(
            B1 + B4, d * B4 + self.taxis * B3 + B1 * D, B1 * B4 - B2 * B3
        )

    def M(self, k: float) -> np.ndarray:
        return -(k * k) * self.A + self.B


def linearize(
    kin: KineticsModel, mot: MotilityModel, D: float, eq: Equilibrium
) -> LinearizedSystem:
    """Linearize the reaction-diffusion-taxis system at a steady state."""
    if eq.residual >= 1e-10:
        raise ValueError(f"equilibrium residual {eq.residual:.3e} too large")
    u_s, v_s = eq.u, eq.v
    Fv = float(kin.F(v_s))
    Fpv = float(kin.F_prime(v_s))
    B = np.array(
        [
            [kin.gamma * Fv - kin.theta - 2.0 * kin.alpha * u_s, kin.gamma * u_s * Fpv],
            [-Fv, -u_s * Fpv + float(kin.f_prime(v_s))],
        ]
    )
    d, chi = mot.d_and_chi(v_s)
    A = np.array([[float(d), -u_s * float(chi)], [0.0, D]])
    return LinearizedSystem(A, B, eq)


class StabilityClass(Enum):
    STABLE = "stable"
    HOPF_UNSTABLE = "hopf_unstable"
    STEADY_UNSTABLE = "steady_unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class DispersionPoint:
    """Characteristic-polynomial data of M_k at one wavenumber."""

    k: float
    a: float
    b: float
    delta: float
    rho: tuple[complex, complex]
    klass: StabilityClass


def _quadratic_roots(a: float, b: float, delta: float) -> tuple[complex, complex]:
    """Roots of rho^2 + a rho + b = 0 without subtractive cancellation."""
    if delta >= 0.0:
        s = math.sqrt(delta)
        q = -0.5 * (a + math.copysign(s, a) if a != 0.0 else s)
        if q == 0.0:
            return (complex(0.0), complex(0.0))
        return (complex(q), complex(b / q))
    half = math.sqrt(-delta) / 2.0
    return (complex(-a / 2.0, half), complex(-a / 2.0, -half))


def dispersion(sys: LinearizedSystem, k: float) -> DispersionPoint:
    """Eigenvalue pair and instability class at wavenumber k >= 0."""
    if k < 0:
        raise ValueError("wavenumber must be >= 0")
    d, D, coef = sys.d_star, sys.D, sys.coefficients
    k2 = k * k
    a = coef.a(D, d, k2)
    b = coef.b(D, d, k2)
    delta = a * a - 4.0 * b
    rho = _quadratic_roots(a, b, delta)
    max_re = max(rho[0].real, rho[1].real)
    if abs(max_re) <= MARGINAL_TOL:
        klass = StabilityClass.MARGINAL
    elif max_re < 0.0:
        klass = StabilityClass.STABLE
    elif delta < 0.0 and a < 0.0:
        klass = StabilityClass.HOPF_UNSTABLE
    else:
        klass = StabilityClass.STEADY_UNSTABLE
    return DispersionPoint(k, a, b, delta, rho, klass)


@dataclass(frozen=True)
class BetaCoefficients:
    """Coefficients of a(D,k^2) = (d*+D)k^2 - beta1 and
    b(D,k^2) = d*D k^4 - beta2 k^2 + beta3.  beta2 holds a term B1 D, so the
    triple is tied to one D unless B1 = 0, as at the coexistence state of
    the Rosenzweig-MacArthur interaction without predator competition."""

    beta1: float
    beta2: float
    beta3: float

    def a(self, D: float, d_star: float, k2) -> float:
        return (d_star + D) * k2 - self.beta1

    def b(self, D: float, d_star: float, k2):
        return d_star * D * k2 * k2 - self.beta2 * k2 + self.beta3

    def _b_quadratic(self, D: float, d_star: float):
        """(A, c1, c0) of b = A x^2 - 2 c1 x + c0, x = k^2 (halving is exact)."""
        return d_star * D, self.beta2 / 2.0, self.beta3

    def _discriminant_quadratic(self, D: float, d_star: float):
        """(A, c1, c0) of a^2 - 4b = A x^2 - 2 c1 x + c0, x = k^2."""
        return (
            (D - d_star) ** 2,
            (D + d_star) * self.beta1 - 2.0 * self.beta2,
            self.beta1**2 - 4.0 * self.beta3,
        )

    def discriminant(self, D: float, d_star: float, k2):
        A, c1, c0 = self._discriminant_quadratic(D, d_star)
        return A * k2 * k2 - 2.0 * c1 * k2 + c0

    def curves(self, d_star: float, eta_grid) -> "BifurcationCurve":
        """The D roots of a and b on a grid of eta = k^2 > 0."""
        eta = np.asarray(eta_grid, dtype=float)
        if np.any(eta <= 0):
            raise ValueError("eta grid must be positive")
        D_H = self.beta1 / eta - d_star
        D_S = self.beta2 / (d_star * eta) - self.beta3 / (d_star * eta * eta)
        return BifurcationCurve(eta, D_H, D_S)


def beta_coefficients(
    kin: KineticsModel, mot: MotilityModel, eq: Equilibrium
) -> BetaCoefficients:
    """Closed-form dispersion coefficients for the RM coexistence state.

    Requires Rosenzweig-MacArthur kinetics with alpha = 0 and a coexistence
    equilibrium.
    """
    if kin.kind is not KineticsKind.ROSENZWEIG_MACARTHUR or kin.alpha != 0.0:
        raise ValueError("beta coefficients require RM kinetics with alpha = 0")
    if eq.kind is not EquilibriumKind.COEXISTENCE:
        raise ValueError("beta coefficients are defined at the coexistence state")
    mu, K, lam = kin.mu, kin.K, kin.lam
    v = eq.v
    d, chi = mot.d_and_chi(v)
    beta1 = mu * v * (K - lam - 2.0 * v) / (K * (lam + v))
    beta2 = beta1 * float(d) - mu * v * (K - v) * float(chi) / K
    beta3 = lam * kin.theta * mu * (K - v) / (K * (lam + v))
    return BetaCoefficients(beta1, beta2, beta3)


@dataclass(frozen=True)
class BifurcationCurve:
    """Loci in (D, eta = k^2) space of zero-real-part eigenvalues.

    D_H solves a(D, eta) = 0 (oscillatory onset), D_S solves b(D, eta) = 0
    (stationary onset).  Negative values simply mean no positive D lies on
    the curve at that eta.
    """

    eta: np.ndarray
    D_H: np.ndarray
    D_S: np.ndarray


def bifurcation_curves(
    kin: KineticsModel, mot: MotilityModel, eq: Equilibrium, eta_grid
) -> BifurcationCurve:
    """Evaluate both bifurcation curves on a grid of eta = k^2 > 0."""
    return beta_coefficients(kin, mot, eq).curves(float(mot.d(eq.v)), eta_grid)


def _negative_interval(A: float, c1: float, c0: float) -> tuple[float, float] | None:
    """The x >= 0 interval where A x^2 - 2 c1 x + c0 < 0 (A >= 0), or None.

    A = 0 leaves a linear function, whose interval may be unbounded above.
    """
    if A == 0.0:
        if c1 > 0.0:
            return (max(0.0, c0 / (2.0 * c1)), math.inf)
        if c1 < 0.0:
            return (0.0, c0 / (2.0 * c1)) if c0 < 0.0 else None
        return (0.0, math.inf) if c0 < 0.0 else None
    disc = c1 * c1 - A * c0
    if disc <= 0.0:
        return None
    q = c1 + math.copysign(math.sqrt(disc), c1)  # no cancellation in q
    lo, hi = sorted((q / A, c0 / q))
    return (max(0.0, lo), hi) if hi > 0.0 else None


def steady_band(
    beta: BetaCoefficients, D: float, d_star: float
) -> tuple[float, float] | None:
    """k^2 interval where b(D, k^2) < 0 (stationary instability band).

    Present iff beta3 < 0, or beta2 > 0 and
    Lambda = beta2^2 - 4 beta3 D d* > 0; it starts at k^2 = 0 when
    beta3 <= 0.  The sign of b inside the band is verified before returning.
    """
    if D <= 0 or d_star <= 0:
        raise ValueError("D and d* must be positive")
    band = _negative_interval(*beta._b_quadratic(D, d_star))
    if band is None:
        return None
    if not beta.b(D, d_star, 0.5 * (band[0] + band[1])) < 0.0:
        raise RuntimeError("band endpoints inconsistent with the sign of b")
    return band


def steady_band_threshold(beta: BetaCoefficients, d_star: float) -> float | None:
    """Diffusivity D0 = beta2^2 / (4 beta3 d*) at which the stationary band
    closes: for beta3 > 0, Lambda(D) = beta2^2 - 4 beta3 D d* falls
    linearly in D and vanishes there.  None when beta2 <= 0 or beta3 <= 0,
    where no positive D closes a band: there is either none at any D or,
    for beta3 < 0 or beta3 = 0 < beta2, one at every D."""
    if beta.beta2 <= 0.0 or beta.beta3 <= 0.0:
        return None
    return beta.beta2**2 / (4.0 * beta.beta3 * d_star)


def hopf_band(
    beta: BetaCoefficients, D: float, d_star: float
) -> tuple[float, float] | None:
    """k^2 interval where the discriminant of the characteristic polynomial
    is negative (complex eigenvalue pair).

    The discriminant is the quadratic (in x = k^2)

        (D - d*)^2 x^2 - 2[(D + d*) beta1 - 2 beta2] x + beta1^2 - 4 beta3,

    clipped to x >= 0; the degenerate case D = d* reduces to a linear
    equation and may yield an interval unbounded above.  The sign of the
    discriminant inside the band is verified before returning.
    """
    if D <= 0 or d_star <= 0:
        raise ValueError("D and d* must be positive")
    band = _negative_interval(*beta._discriminant_quadratic(D, d_star))
    if band is None:
        return None
    lo, hi = band
    inside = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo + 1.0
    if not beta.discriminant(D, d_star, inside) < 0.0:
        raise RuntimeError("band endpoints inconsistent with the discriminant sign")
    return band


@dataclass(frozen=True)
class Mode:
    """Classification of one Neumann mode k = n*pi/ell on [0, ell]."""

    n: int
    k: float
    klass: StabilityClass
    point: DispersionPoint


def _instability_cutoff(sys: LinearizedSystem) -> float:
    """Upper bound (in k^2) past which every mode is provably stable.

    Instability requires a < 0 or b < 0; a < 0 only below
    beta1/(d*+D) and b < 0 only inside the stationary band.
    """
    d, D, coef = sys.d_star, sys.D, sys.coefficients
    cut = max(0.0, coef.beta1 / (d + D))
    band = _negative_interval(*coef._b_quadratic(D, d))
    return cut if band is None else max(cut, band[1])


def unstable_modes(
    kin: KineticsModel, mot: MotilityModel, D: float, eq: Equilibrium, ell: float
) -> list[Mode]:
    """Non-stable Neumann modes on an interval of length ell.

    Modes are classified through the dispersion relation up to two modes
    past every instability band.
    """
    if ell <= 0:
        raise ValueError("interval length must be positive")
    sys = linearize(kin, mot, D, eq)
    n_max = math.floor(ell * math.sqrt(_instability_cutoff(sys)) / math.pi) + 3
    points = (dispersion(sys, n * math.pi / ell) for n in range(n_max + 1))
    return [
        Mode(n, pt.k, pt.klass, pt)
        for n, pt in enumerate(points)
        if pt.klass is not StabilityClass.STABLE
    ]


def grid_decay_rate(sys: LinearizedSystem, ell: float, n_cells: int) -> float:
    """-max Re lambda over the Neumann modes n = 0..N-1 of an N-cell grid
    on [0, ell]: the decay rate of the slowest linear mode of the
    semi-discrete system.

    Mode n enters at its grid symbol kappa_n = (4/h^2) sin^2(n pi h/(2 ell)),
    the discrete Neumann Laplacian's eigenvalue, in place of k^2.  All
    modes take one vectorised pass with the roots of ``dispersion``.
    """
    h = ell / n_cells
    kappa = 4.0 / h**2 * np.sin(np.arange(n_cells) * math.pi * h / (2.0 * ell)) ** 2
    d, D, coef = sys.d_star, sys.D, sys.coefficients
    a = coef.a(D, d, kappa)
    b = coef.b(D, d, kappa)
    delta = a * a - 4.0 * b
    real = delta >= 0.0
    s = np.sqrt(np.where(real, delta, 0.0))
    # _quadratic_roots: q and b/q for real roots (both 0 where q is), or
    # the real part -a/2 of a complex pair
    q = -0.5 * np.where(a != 0.0, a + np.copysign(s, a), s)
    other = np.divide(b, q, out=np.zeros_like(q), where=q != 0.0)
    return -float(np.max(np.where(real, np.maximum(q, other), -a / 2.0)))


@dataclass(frozen=True)
class MinStabilizingD:
    """Supremum of the bifurcation curves over the interval's spectrum.

    Every D > D_min renders all modes n >= 1 linearly stable.  When the
    homogeneous mode n = 0 is unstable independently of D (beta1 > 0),
    no finite diffusivity stabilizes the state and D_min is None.
    """

    D_min: float | None
    homogeneous_mode_unstable: bool


def min_stabilizing_D(
    kin: KineticsModel, mot: MotilityModel, eq: Equilibrium, ell: float
) -> MinStabilizingD:
    """Threshold diffusivity for linear stability of all interval modes.

    The supremum over eta in {(n pi/ell)^2 : n >= 1} of max(D_H, D_S) is
    computed by evaluating every mode up to the curves' last interior
    feature and closing the tail with the analytic limits (D_H -> -d*,
    D_S -> 0 from below when beta2 <= 0).
    """
    if ell <= 0:
        raise ValueError("interval length must be positive")
    beta = beta_coefficients(kin, mot, eq)
    if beta.beta1 > 0.0:
        return MinStabilizingD(None, True)
    d = float(mot.d(eq.v))
    eta1 = (math.pi / ell) ** 2

    # Features beyond which both curves are monotone toward their limits.
    eta_stop = eta1
    if beta.beta2 > 0.0:
        eta_stop = max(eta_stop, 4.0 * beta.beta3 / beta.beta2)
    n_stop = max(16, math.ceil(ell * math.sqrt(eta_stop) / math.pi) + 2)
    n = np.arange(1, n_stop + 1)
    curve = beta.curves(d, (n * math.pi / ell) ** 2)
    best = float(np.max(np.maximum(curve.D_H, curve.D_S)))

    # Tail suprema of the discrete sets (approached, not attained).
    tail = -d if beta.beta1 <= 0.0 else math.inf
    if beta.beta2 <= 0.0:
        tail = max(tail, 0.0)
    return MinStabilizingD(max(best, tail), False)
