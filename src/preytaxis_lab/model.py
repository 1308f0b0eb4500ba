"""Kinetics and motility function families, homogeneous steady states, and
global-stability thresholds for the predator-prey system

    u_t = div(d(v) grad u) - div(u chi(v) grad v) + gamma*u*F(v) - theta*u - alpha*u^2
    v_t = D lap v - u*F(v) + f(v)

with zero-flux boundaries.  F is the functional response of the predator,
f the prey kinetics, d the prey-density-dependent motility and chi the
prey-taxis coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "KineticsKind",
    "KineticsModel",
    "MotilityKind",
    "MotilityModel",
    "EquilibriumKind",
    "Equilibrium",
    "EquilibriumSet",
    "HypothesisStatus",
    "HypothesisFinding",
    "HypothesisReport",
    "Regime",
    "StabilityThresholds",
    "reaction",
    "eval_reaction",
    "compute_equilibria",
    "coexistence_by_bisection",
    "check_hypotheses",
    "k0_bound",
    "global_stability_report",
]

RESIDUAL_TOL = 1e-10
SAMPLING_TOL = 1e-12
FD_STEP = 1e-6

# Cap for exponent arguments: keeps exp finite so the motility evaluators
# degrade gracefully on blown-up states instead of emitting inf/nan.
_EXP_CAP = 700.0


def _operands(*values):
    """Read-only 0-d float arrays of ``values``.

    As ufunc operands they give the float64 arithmetic of the Python
    floats, without the conversion NumPy makes of a Python scalar on every
    call, which on 256-cell arrays costs about half as much as the call.
    """
    arrays = tuple(np.array(x, dtype=float) for x in values)
    for a in arrays:
        a.flags.writeable = False
    return arrays


_ZERO, _ONE, _CAP = _operands(0.0, 1.0, _EXP_CAP)


def _allocating(bind, v):
    """Run the kernel ``bind(v, out)`` binds, with ``out`` a new float array
    shaped like ``v``: ``v`` is taken as a float array, and a scalar ``v``
    gives a Python float."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape)
    bind(v, out)()
    return float(out) if out.ndim == 0 else out


def _evaluated(evaluator, v, out):
    """Copy ``evaluator(v)`` into ``out``: custom kinetics as a kernel step."""
    np.copyto(out, evaluator(v))


class KineticsKind(Enum):
    LOTKA_VOLTERRA = "lotka_volterra"
    ROSENZWEIG_MACARTHUR = "rosenzweig_macarthur"
    CUSTOM = "custom"


@dataclass(frozen=True)
class KineticsModel:
    """Predator-prey interaction terms and their parameters.

    Builtin kinds evaluate F and f in closed form:
      lotka_volterra:        F(v) = v,            f(v) = mu*v*(1 - v/K)
      rosenzweig_macarthur:  F(v) = v/(lam + v),  f(v) = mu*v*(1 - v/K)

    Custom kinetics supply F, F', f, f' explicitly (no automatic
    differentiation); evaluators must accept numpy arrays.

    ``F``, ``f`` and ``reaction`` all evaluate through one private
    factory, ``_kernel``, which dispatches on the kind once and binds a
    zero-argument closure over the input, the output buffers, the 0-d
    parameter operands and the ufuncs; the solver binds it once per
    workspace.  So each closed form is written once, as the kernel's list
    of ufunc calls, and each element takes the operations of the closed
    forms above in their order, less the exact folds ``_kernel`` makes of
    its parameters.  Custom kinds bind their evaluators and
    copy the results in.  ``F`` and ``f`` return a new array; scalar ``v``
    gives a Python float.
    """

    kind: KineticsKind
    gamma: float
    theta: float
    alpha: float
    mu: float
    K: float
    lam: float = 1.0
    F_eval: Callable | None = field(default=None, repr=False)
    Fp_eval: Callable | None = field(default=None, repr=False)
    f_eval: Callable | None = field(default=None, repr=False)
    fp_eval: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        rates = (self.gamma, self.theta, self.mu)
        if not 0 < self.K < math.inf:
            raise ValueError("carrying capacity K must be positive and finite")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("competition coefficient alpha must be finite and >= 0")
        if self.kind is KineticsKind.CUSTOM:
            # Zero rates are allowed for custom kinetics so that pure
            # transport (all reactions off) is expressible.
            if not all(0 <= r < math.inf for r in rates):
                raise ValueError("rates gamma, theta, mu must be finite and >= 0")
            for name in ("F_eval", "Fp_eval", "f_eval", "fp_eval"):
                if getattr(self, name) is None:
                    raise ValueError(f"custom kinetics require {name}")
        else:
            if not all(0 < r < math.inf for r in rates):
                raise ValueError("rates gamma, theta, mu must be positive and finite")
            if self.kind is KineticsKind.ROSENZWEIG_MACARTHUR and not 0 < self.lam < math.inf:
                raise ValueError("half-saturation lam must be positive and finite")

    @staticmethod
    def lotka_volterra(gamma, theta, alpha, mu, K) -> "KineticsModel":
        return KineticsModel(KineticsKind.LOTKA_VOLTERRA, gamma, theta, alpha, mu, K)

    @staticmethod
    def rosenzweig_macarthur(gamma, theta, mu, K, lam, alpha=0.0) -> "KineticsModel":
        return KineticsModel(
            KineticsKind.ROSENZWEIG_MACARTHUR, gamma, theta, alpha, mu, K, lam
        )

    @staticmethod
    def custom(gamma, theta, alpha, mu, K, F, F_prime, f, f_prime) -> "KineticsModel":
        return KineticsModel(
            KineticsKind.CUSTOM, gamma, theta, alpha, mu, K, 1.0, F, F_prime, f, f_prime
        )

    @cached_property
    def _rate_operands(self):
        """(gamma, theta, alpha) as ufunc operands for the reaction terms;
        alpha is None when it is +0.0, whose term ``_kernel`` leaves out."""
        gamma, theta, alpha = _operands(self.gamma, self.theta, self.alpha)
        plus_zero = self.alpha == 0.0 and math.copysign(1.0, self.alpha) > 0.0
        return gamma, theta, None if plus_zero else alpha

    @cached_property
    def _shape_operands(self):
        """(mu, K, lam, 1/K) as ufunc operands for the closed forms of F and
        f; 1/K is None unless K is a power of two with a finite inverse,
        the only K for which v*(1/K) is v/K for every double v."""
        inv_K = None
        if math.frexp(self.K)[0] == 0.5 and 1.0 / self.K < math.inf:
            (inv_K,) = _operands(1.0 / self.K)
        return (*_operands(self.mu, self.K, self.lam), inv_K)

    def _kernel(self, v, F=None, f=None, scratch=None, u=None, du=None):
        """Bind a zero-argument closure that evaluates these kinetics at ``v``
        into float buffers shaped like the result, which share no memory
        with ``v`` or ``u``.

        It writes f(v) into ``f`` and F(v) into ``F``, each when given; a
        builtin f with mu != 1 keeps mu*v in ``scratch``, allocated here
        when not given.
        With ``u`` and ``du`` as well (and both ``F`` and ``f``), it goes on
        to the reaction terms of ``reaction``: du = gamma*u*F - theta*u -
        alpha*u*u and f(v) - u*F(v) in ``f``, with ``F`` then scratch for
        the loss terms.  The kind is dispatched here, once: the closure
        makes a fixed list of ufunc calls with every operand bound.

        Operations whose result the parameters fix are folded out when the
        kernel is bound.  A factor mu or theta that is exactly 1.0 is not
        multiplied, since x*1 == x for every double, signed zeros and NaN
        included.  v/K is formed as v*(1/K) when K is a power of two 2^k:
        x/2^k and x*2^-k are the same real, rounded once, so the two agree
        for every double, subnormal results included.  gamma*u*F is formed
        from u*F, which the prey row needs anyway: as u*F itself when
        gamma == 1, and as gamma*(u*F) when gamma is another power of two,
        which equals (gamma*u)*F unless a product is subnormal or
        overflows.  Every other element takes the operations of the closed
        forms in their order, to the bit.
        """
        steps = []
        if self.kind is KineticsKind.CUSTOM:
            for evaluator, out in ((self.f_eval, f), (self.F_eval, F)):
                if out is not None:
                    steps.append((_evaluated, (evaluator, v, out)))
        else:
            mu, K, lam, inv_K = self._shape_operands
            if f is not None:
                # f = mu*v * (1 - v/K), with v for mu*v when mu == 1
                mu_v = v
                if self.mu != 1.0:
                    mu_v = np.empty_like(f) if scratch is None else scratch
                    steps.append((np.multiply, (mu, v, mu_v)))
                if inv_K is None:
                    steps.append((np.divide, (v, K, f)))
                else:
                    steps.append((np.multiply, (v, inv_K, f)))
                steps += [
                    (np.subtract, (_ONE, f, f)),
                    (np.multiply, (mu_v, f, f)),
                ]
            if F is not None and self.kind is KineticsKind.LOTKA_VOLTERRA:
                steps.append((np.add, (v, _ZERO, F)))  # F = v + 0.0
            elif F is not None:
                steps += [(np.add, (lam, v, F)), (np.divide, (v, F, F))]  # F = v/(lam + v)
        if u is not None:
            gamma, theta, alpha = self._rate_operands
            steps += [
                (np.multiply, (u, F, du)),
                (np.subtract, (f, du, f)),  # f - u*F
            ]
            # du = gamma*u*F: du holds u*F
            if math.frexp(self.gamma)[0] != 0.5:
                steps += [(np.multiply, (gamma, u, du)), (np.multiply, (du, F, du))]
            elif self.gamma != 1.0:
                steps.append((np.multiply, (gamma, du, du)))
            # du = gamma*u*F - theta*u
            if self.theta == 1.0:
                steps.append((np.subtract, (du, u, du)))
            else:
                steps += [(np.multiply, (theta, u, F)), (np.subtract, (du, F, du))]
            # alpha = +0.0 makes alpha*u*u +0.0 for finite u, and x - (+0.0)
            # is x to the bit; a non-finite u has already made du NaN
            if alpha is not None:
                steps += [
                    (np.multiply, (alpha, u, F)),
                    (np.multiply, (F, u, F)),
                    (np.subtract, (du, F, du)),
                ]
        steps = tuple(steps)

        def kernel():
            for ufunc, operands in steps:
                ufunc(*operands)

        return kernel

    # Functional response and prey kinetics -------------------------------

    def F(self, v):
        return _allocating(lambda v, out: self._kernel(v, F=out), v)

    def F_prime(self, v):
        if self.kind is KineticsKind.LOTKA_VOLTERRA:
            return np.ones_like(v, dtype=float) if isinstance(v, np.ndarray) else 1.0
        if self.kind is KineticsKind.ROSENZWEIG_MACARTHUR:
            return self.lam / (self.lam + v) ** 2
        return self.Fp_eval(v)

    def f(self, v):
        return _allocating(lambda v, out: self._kernel(v, f=out), v)

    def f_prime(self, v):
        if self.kind is KineticsKind.CUSTOM:
            return self.fp_eval(v)
        return self.mu * (1.0 - 2.0 * v / self.K)

    # Prey growth per unit predation pressure phi = f/F -------------------

    def phi(self, v):
        """f(v)/F(v); closed form for builtins (removable singularity at 0)."""
        if self.kind is KineticsKind.LOTKA_VOLTERRA:
            return self.mu * (1.0 - v / self.K)
        if self.kind is KineticsKind.ROSENZWEIG_MACARTHUR:
            return self.mu * (1.0 - v / self.K) * (self.lam + v)
        return self.f(v) / self.F(v)

    def phi_prime(self, v):
        """Derivative of f/F; central differences (step 1e-6) for custom."""
        if self.kind is KineticsKind.LOTKA_VOLTERRA:
            if np.ndim(v) == 0:
                return -self.mu / self.K
            return np.full_like(np.asarray(v, dtype=float), -self.mu / self.K)
        if self.kind is KineticsKind.ROSENZWEIG_MACARTHUR:
            return self.mu * (1.0 - self.lam / self.K - 2.0 * v / self.K)
        return (self.phi(v + FD_STEP) - self.phi(v - FD_STEP)) / (2.0 * FD_STEP)


class MotilityKind(Enum):
    D1 = "d1"
    D2 = "d2"
    D3 = "d3"
    CONSTANT = "constant"


# Builtin motilities d(v) = 1/(m + exp(r*(v-1))) with chi = -d', as 0-d
# operands (m, r).
_LOGISTIC_OPERANDS = {
    MotilityKind.D1: _operands(1.0, 2.0),
    MotilityKind.D2: _operands(1.0, 0.1),
    MotilityKind.D3: _operands(9.0, 2.0),
}


@dataclass(frozen=True)
class MotilityModel:
    """Predator motility d(v) > 0 and prey-taxis coefficient chi(v).

    The builtin kinds d1, d2, d3 are decreasing logistic-type motilities
    with the taxis coefficient tied to the motility slope (chi = -d').
    The constant kind has d = ``d_const`` and chi = ``chi_const``, which
    the other kinds ignore.  ``d_and_chi`` evaluates every kind; ``d``,
    ``chi`` and the builtin kinds' ``d_prime`` read their values from it.
    """

    kind: MotilityKind
    d_const: float = 1.0
    chi_const: float = 0.0

    def __post_init__(self):
        if self.kind is MotilityKind.CONSTANT:
            if not 0 < self.d_const < math.inf:
                raise ValueError("constant motility must be positive and finite")
            if not math.isfinite(self.chi_const):
                raise ValueError("constant taxis coefficient must be finite")

    @cached_property
    def _logistic_operands(self):
        """(m, r) of a builtin kind, None for the constant kind; looked up once."""
        return _LOGISTIC_OPERANDS.get(self.kind)

    @cached_property
    def sup_d_chi(self) -> tuple[float, float]:
        """(sup d, sup |chi|) over every v, as floats.

        The builtin kinds have d = 1/(m + w) and chi = r*w/(m + w)^2 with
        w = exp(.) >= 0, so d <= 1/m and chi <= r/(4m), its value at w = m.
        The computed d is <= 1/m to the bit (m + w >= m, and division is
        correctly rounded and monotone); the computed chi can exceed r/(4m)
        by a few roundings, which a caller that needs a strict bound covers
        with a margin.  The constant kind has d_const and |chi_const|.
        """
        params = self._logistic_operands
        if params is None:
            return float(self.d_const), abs(float(self.chi_const))
        m, r = map(float, params)
        return 1.0 / m, r / (4.0 * m)

    def _scalar_d(self):
        """Bind d(v) of one Python float v, in the operations of the
        kernel's d at scale 1 (see ``_kernel``) with ``math.exp`` for
        NumPy's exp; the solver binds it once per workspace.

        Every other operation is correctly rounded in both, so the two
        differ only where the exps do.  NumPy's exp need not be the C
        library's, nor monotone to the ulp: with NumPy 2.4 on an x86_64
        CPU with AVX-512, the two were 1 ulp apart on about 4.5% of 2M
        arguments in [-740, 700], and never further.  A relative error e
        in w = exp(.) gives d = 1/(m + w), m > 0, a relative error of at
        most e, before the last two roundings.  The constant kind gives
        ``d_const``, which its kernel fills in exactly.
        """
        params = self._logistic_operands
        if params is None:
            d_const = float(self.d_const)
            return lambda v: d_const
        m, r = map(float, params)
        exp = math.exp

        def d(v):
            return 1.0 / (m + exp(min(r * (v - 1.0), _EXP_CAP)))

        return d

    @staticmethod
    def d1() -> "MotilityModel":
        return MotilityModel(MotilityKind.D1)

    @staticmethod
    def d2() -> "MotilityModel":
        return MotilityModel(MotilityKind.D2)

    @staticmethod
    def d3() -> "MotilityModel":
        return MotilityModel(MotilityKind.D3)

    @staticmethod
    def constant(d_const, chi_const=0.0) -> "MotilityModel":
        return MotilityModel(
            MotilityKind.CONSTANT, d_const=d_const, chi_const=chi_const
        )

    def d(self, v):
        return self.d_and_chi(v)[0]

    def d_prime(self, v):
        if self.kind is MotilityKind.CONSTANT:
            return 0.0 if np.ndim(v) == 0 else np.zeros_like(np.asarray(v, dtype=float))
        return -self.d_and_chi(v)[1]

    def chi(self, v):
        return self.d_and_chi(v)[1]

    def d_and_chi(self, v):
        """(d(v), chi(v)): the one evaluator of every kind, bound by
        ``_kernel``.  Scalar ``v`` gives Python floats."""
        v = np.asarray(v, dtype=float)
        d, chi = np.empty(v.shape), np.empty(v.shape)
        self._kernel(v, d, chi)()
        if v.ndim == 0:
            return float(d), float(chi)
        return d, chi

    def _kernel(self, v, d, chi, scale=_ONE):
        """Bind a zero-argument closure that writes d(x) into ``d`` and
        chi(x)/scale into ``chi``, where ``v`` holds scale*x: float buffers
        shaped like ``v`` that share no memory with it.

        ``scale`` is 1 or 2, as a 0-d operand or one per element of ``v``,
        so the solver can pass face sums v[i] + v[i+1] for the face values
        x and get chi/2 to multiply by the sum of u.  The kind is dispatched
        here, once, and the closure holds ``v``, the buffers, the 0-d
        operands and the ufuncs, so a call reads ``v`` anew and makes only
        ufunc calls.  The builtin kinds share one exponential between d and
        chi; the constant kind fills in its pair.  A builtin kind binds
        (r/scale, scale) for (r, 1): (r/2)*(2x - 2) == r*(x - 1) and
        (r/2)*q == (r*q)/2 unless a result is subnormal or overflows, so d,
        and chi times scale, keep the bits that scale 1 gives.  Where
        r/scale is exactly 1.0 at every element (d1 and d3, r = 2, on the
        solver's face sums), both multiplies by it are dropped, since
        x*1 == x for every double: the kernel makes 8 ufunc calls, not 10.
        """
        params = self._logistic_operands
        if params is None:
            d_const, chi_const = self.d_const, np.divide(self.chi_const, scale)

            def constant():
                d[...] = d_const
                chi[...] = chi_const

            return constant
        m, r = params
        if scale is not _ONE:
            r = np.divide(r, scale, out=np.empty(np.shape(scale)))
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        minimum, exp, sqrt = np.minimum, np.exp, np.sqrt

        if np.all(r == 1.0):

            def logistic_unit_r():
                # logistic below, less its two multiplies by r == 1
                subtract(v, scale, chi)
                minimum(chi, _CAP, out=chi)
                exp(chi, chi)
                add(m, chi, d)
                sqrt(chi, chi)
                divide(chi, d, chi)
                multiply(chi, chi, chi)
                divide(_ONE, d, d)

            return logistic_unit_r

        def logistic():
            # chi holds w = exp(min(r*(x - 1), cap)) and d holds s = m + w
            subtract(v, scale, chi)
            multiply(r, chi, chi)
            minimum(chi, _CAP, out=chi)
            exp(chi, chi)
            add(m, chi, d)
            # chi = -d' = r*w/(m+w)^2 as r*(sqrt(w)/s)**2; -(-r*x) == r*x exactly
            sqrt(chi, chi)
            divide(chi, d, chi)
            multiply(chi, chi, chi)
            multiply(r, chi, chi)
            divide(_ONE, d, d)

        return logistic


class EquilibriumKind(Enum):
    EXTINCTION = "extinction"
    PREY_ONLY = "prey_only"
    COEXISTENCE = "coexistence"


@dataclass(frozen=True)
class Equilibrium:
    """A spatially homogeneous steady state with its algebraic residual."""

    u: float
    v: float
    kind: EquilibriumKind
    residual: float


@dataclass(frozen=True)
class EquilibriumSet:
    """The up-to-three homogeneous steady states of the reaction system.

    ``coexistence`` is None when gamma*F(K) <= theta (no positive state).
    """

    extinction: Equilibrium
    prey_only: Equilibrium
    coexistence: Equilibrium | None
    gamma_F_K: float

    @property
    def states(self) -> tuple[Equilibrium, ...]:
        if self.coexistence is None:
            return (self.extinction, self.prey_only)
        return (self.extinction, self.prey_only, self.coexistence)


def reaction(kin: KineticsModel, u: np.ndarray, v: np.ndarray):
    """Reaction rates (du, dv) on float arrays, without a domain guard.

        du = gamma*u*F(v) - theta*u - alpha*u*u
        dv = f(v) - u*F(v)

    The integrator's stages may carry round-off-level negativity; its
    completed steps are checked separately.  ``eval_reaction`` is the
    guarded form for arbitrary inputs.  The rates are evaluated by a
    kernel of ``KineticsModel._kernel``, the one the solver binds once per
    workspace, with F and f included; each element takes the operations of
    the expressions above in their order.
    """
    shape = np.broadcast(u, v).shape
    du, dv, Fv = np.empty(shape), np.empty(shape), np.empty(shape)
    kin._kernel(v, F=Fv, f=dv, scratch=du, u=u, du=du)()
    return du, dv


def eval_reaction(kin: KineticsModel, u, v):
    """Reaction rates (du, dv) of the space-free interaction at (u, v).

    du = gamma*u*F(v) - theta*u - alpha*u^2
    dv = f(v) - u*F(v)

    Inputs may be scalars or arrays; negative densities beyond round-off
    (-1e-12) are rejected.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < -SAMPLING_TOL) or np.any(v < -SAMPLING_TOL):
        raise ValueError("densities must be nonnegative")
    du, dv = reaction(kin, u, v)
    if du.ndim == 0:
        return float(du), float(dv)
    return du, dv


def _residual(kin: KineticsModel, u: float, v: float) -> float:
    Fv = float(kin.F(v))
    r1 = abs(kin.gamma * Fv * u - kin.theta * u - kin.alpha * u * u)
    r2 = abs(float(kin.f(v)) - u * Fv)
    return max(r1, r2)


def coexistence_by_bisection(kin: KineticsModel) -> Equilibrium:
    """Positive steady state by bisection of gamma*F(v) - theta - alpha*phi(v)
    on (0, K), followed by one Newton polish.

    Raises if the root is not bracketed (requires gamma*F(K) > theta).
    """
    g = lambda v: kin.gamma * float(kin.F(v)) - kin.theta - kin.alpha * float(kin.phi(v))
    eps = 1e-12 * kin.K
    lo, hi = eps, kin.K - eps
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        v_star = lo
    elif ghi == 0.0:
        v_star = hi
    else:
        if glo * ghi > 0.0:
            raise ValueError(
                "coexistence root not bracketed on (0, K); "
                "check gamma*F(K) > theta and the sign structure of F, f"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm == 0.0:
                lo = hi = mid
                break
            if glo * gm < 0.0:
                hi = mid
            else:
                lo, glo = mid, gm
            if hi - lo <= 1e-16 * kin.K:
                break
        v_star = 0.5 * (lo + hi)
        gp = kin.gamma * float(kin.F_prime(v_star)) - kin.alpha * float(
            kin.phi_prime(v_star)
        )
        if gp != 0.0 and math.isfinite(gp):
            v_new = v_star - g(v_star) / gp
            if 0.0 < v_new < kin.K:
                v_star = v_new
    u_star = float(kin.phi(v_star))
    res = _residual(kin, u_star, v_star)
    if res >= RESIDUAL_TOL:
        raise ValueError(f"coexistence residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return Equilibrium(u_star, v_star, EquilibriumKind.COEXISTENCE, res)


def compute_equilibria(kin: KineticsModel) -> EquilibriumSet:
    """All homogeneous steady states: (0,0), (0,K) and, when
    gamma*F(K) > theta, the coexistence state.

    Builtins use closed forms (Lotka-Volterra for any alpha, Rosenzweig-
    MacArthur for alpha = 0); other cases are solved by bisection.
    """
    ext = Equilibrium(0.0, 0.0, EquilibriumKind.EXTINCTION, _residual(kin, 0.0, 0.0))
    prey = Equilibrium(
        0.0, kin.K, EquilibriumKind.PREY_ONLY, _residual(kin, 0.0, kin.K)
    )
    for eq in (ext, prey):
        if eq.residual >= RESIDUAL_TOL:
            raise ValueError(
                f"{eq.kind.value} state has residual {eq.residual:.3e}; "
                "custom kinetics must satisfy F(0)=f(0)=0 and f(K)=0"
            )
    gFK = kin.gamma * float(kin.F(kin.K))
    if gFK <= kin.theta:
        return EquilibriumSet(ext, prey, None, gFK)

    if kin.kind is KineticsKind.LOTKA_VOLTERRA:
        denom = kin.gamma * kin.K + kin.mu * kin.alpha
        u_star = kin.mu * (kin.gamma * kin.K - kin.theta) / denom
        v_star = kin.K * (kin.mu * kin.alpha + kin.theta) / denom
        co = Equilibrium(
            u_star, v_star, EquilibriumKind.COEXISTENCE, _residual(kin, u_star, v_star)
        )
    elif kin.kind is KineticsKind.ROSENZWEIG_MACARTHUR and kin.alpha == 0.0:
        v_star = kin.theta * kin.lam / (kin.gamma - kin.theta)
        u_star = float(kin.phi(v_star))
        co = Equilibrium(
            u_star, v_star, EquilibriumKind.COEXISTENCE, _residual(kin, u_star, v_star)
        )
    else:
        co = coexistence_by_bisection(kin)
    if co.residual >= RESIDUAL_TOL:
        raise ValueError(f"coexistence residual {co.residual:.3e} too large")
    return EquilibriumSet(ext, prey, co, gFK)


class HypothesisStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_CHECKED = "not_checked"


@dataclass(frozen=True)
class HypothesisFinding:
    status: HypothesisStatus
    witness: float | None = None
    inequality: str | None = None
    violation: float | None = None


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled verification of the structural hypotheses on d, chi, F, f.

    H1: d > 0, chi >= 0, d' <= 0        (motility/taxis signs)
    H2: F(0) = 0, F > 0, F' > 0          (functional response)
    H3: f(0) = 0, f(K) = 0, f <= mu*v, f < 0 beyond K   (prey kinetics)
    H4: phi(0+) > 0 and phi' < 0 with phi = f/F          (compound decay)

    Statuses reflect the sampled range only; an unsampled clause (for
    example f < 0 beyond K when v_max <= K) yields NOT_CHECKED rather
    than a silent pass.
    """

    h1: HypothesisFinding
    h2: HypothesisFinding
    h3: HypothesisFinding
    h4: HypothesisFinding
    v_max: float
    n_samples: int


def _first_violation(values, samples, inequality, tol=SAMPLING_TOL):
    """Finding for 'values satisfy inequality <= tol'; None when satisfied.

    Non-finite samples are reported as NOT_CHECKED, never passed silently.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return HypothesisFinding(
            HypothesisStatus.NOT_CHECKED,
            inequality=f"{inequality} (non-finite samples)",
        )
    bad = values > tol
    if not np.any(bad):
        return None
    i = int(np.argmax(values))
    return HypothesisFinding(
        HypothesisStatus.FAILS,
        witness=float(np.asarray(samples, dtype=float)[i]),
        inequality=inequality,
        violation=float(values[i]),
    )


def check_hypotheses(
    kin: KineticsModel, mot: MotilityModel, v_max: float, n_samples: int = 400
) -> HypothesisReport:
    """Check H1-H4 on a uniform sample of [0, v_max].

    Closed forms are used for builtin phi'; custom kinetics fall back to
    central differences (and avoid probing below v = 1e-6).
    """
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    v = np.linspace(0.0, v_max, n_samples)
    holds = HypothesisFinding(HypothesisStatus.HOLDS)

    d, chi = mot.d_and_chi(v)
    # the builtin kinds tie chi to the slope, so d' = -chi as d_prime has it
    d_prime = -chi if mot.kind in _LOGISTIC_OPERANDS else mot.d_prime(v)
    h1 = (
        _first_violation(-np.asarray(d), v, "d(v) > 0")
        or _first_violation(-np.asarray(chi), v, "chi(v) >= 0")
        or _first_violation(np.asarray(d_prime), v, "d'(v) <= 0")
        or holds
    )

    vpos = v[1:]
    h2 = (
        _first_violation([abs(float(kin.F(0.0)))], [0.0], "F(0) = 0")
        or _first_violation(-np.asarray(kin.F(vpos)), vpos, "F(v) > 0")
        or _first_violation(-np.asarray(kin.F_prime(v)), v, "F'(v) > 0")
        or holds
    )

    h3 = (
        _first_violation([abs(float(kin.f(0.0)))], [0.0], "f(0) = 0")
        or _first_violation([abs(float(kin.f(kin.K)))], [kin.K], "f(K) = 0")
        or _first_violation(
            np.asarray(kin.f(v)) - kin.mu * v, v, "f(v) <= mu*v"
        )
    )
    if h3 is None:
        beyond = v[v > kin.K]
        if beyond.size == 0:
            h3 = HypothesisFinding(
                HypothesisStatus.NOT_CHECKED,
                inequality="f(v) < 0 for v > K (no samples beyond K)",
            )
        else:
            h3 = (
                _first_violation(np.asarray(kin.f(beyond)), beyond, "f(v) < 0 for v > K")
                or holds
            )

    if kin.kind is KineticsKind.CUSTOM:
        # keep the central-difference stencil strictly inside (0, v_max]
        v_phi = np.maximum(v, 2.0 * FD_STEP)
        phi0 = float(kin.phi(max(1e-8, 1e-8 * v_max)))
    else:
        v_phi = v
        phi0 = float(kin.phi(0.0))
    h4 = (
        _first_violation([-phi0], [0.0], "phi(0+) > 0")
        or _first_violation(np.asarray(kin.phi_prime(v_phi)), v_phi, "phi'(v) < 0")
        or holds
    )

    return HypothesisReport(h1, h2, h3, h4, v_max, n_samples)


def k0_bound(kin: KineticsModel, v0_max: float) -> float:
    """Uniform upper bound for the prey field: max(v0_max, K)."""
    if v0_max < 0:
        raise ValueError("v0_max must be >= 0")
    return max(v0_max, kin.K)


class Regime(Enum):
    PREY_ONLY_EXPONENTIAL = "prey_only_exponential"
    PREY_ONLY_ALGEBRAIC = "prey_only_algebraic"
    COEXISTENCE = "coexistence"


@dataclass(frozen=True)
class StabilityThresholds:
    """Global-stability regime and (for coexistence) the diffusivity bound.

    In the coexistence regime the coexistence state is globally stable
    once D >= D_min, where D_min maximises

        u* F(v)^2 chi(v)^2 / (4 gamma F(v*) F'(v) d(v))

    over v in [0, K0].
    """

    regime: Regime
    gamma_F_K: float
    D: float
    K0: float
    D_min: float | None = None
    v_argmax: float | None = None
    satisfied: bool | None = None


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximisation of fn on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def global_stability_report(
    kin: KineticsModel,
    mot: MotilityModel,
    D: float,
    v0_max: float,
) -> StabilityThresholds:
    """Classify the global-stability regime and compute the coexistence
    diffusivity threshold D_min by grid search with local refinement.

    The maximisation grid on [0, K0] has 10 001 points; the
    discrete maximiser is refined by golden-section search.
    """
    if D <= 0:
        raise ValueError("D must be positive")
    gFK = kin.gamma * float(kin.F(kin.K))
    K0 = k0_bound(kin, v0_max)

    if abs(gFK - kin.theta) <= SAMPLING_TOL:
        if kin.alpha > 0:
            return StabilityThresholds(Regime.PREY_ONLY_ALGEBRAIC, gFK, D, K0)
        # alpha = 0 equality sits outside both decay statements; fall back
        # to the sign of the float comparison.
        regime = Regime.PREY_ONLY_EXPONENTIAL if gFK <= kin.theta else Regime.COEXISTENCE
        if regime is Regime.PREY_ONLY_EXPONENTIAL:
            return StabilityThresholds(regime, gFK, D, K0)
    elif gFK < kin.theta:
        return StabilityThresholds(Regime.PREY_ONLY_EXPONENTIAL, gFK, D, K0)

    eqs = compute_equilibria(kin)
    co = eqs.coexistence
    u_star, v_star = co.u, co.v
    denom_const = 4.0 * kin.gamma * float(kin.F(v_star))

    def coefficients(x):
        """F, F', d and chi at x, each evaluated once, as float arrays."""
        d, chi = mot.d_and_chi(x)
        return (np.asarray(a, dtype=float) for a in (kin.F(x), kin.F_prime(x), d, chi))

    def threshold(F, Fp, d, chi):
        return u_star * F**2 * chi**2 / (denom_const * Fp * d)

    v = np.linspace(0.0, K0, 10_001)
    Fv, Fp, dv, chi = coefficients(v)
    if np.any(Fp <= 0.0) or np.any(dv <= 0.0):
        raise ValueError("F'(v) and d(v) must stay positive on [0, K0]")
    vals = threshold(Fv, Fp, dv, chi)
    i = int(np.argmax(vals))
    lo = v[max(0, i - 1)]
    hi = v[min(v.size - 1, i + 1)]
    x_ref, f_ref = _golden_max(lambda x: float(threshold(*coefficients(x))), lo, hi)
    if f_ref >= vals[i]:
        d_min, v_arg = float(f_ref), float(x_ref)
    else:
        d_min, v_arg = float(vals[i]), float(v[i])
    return StabilityThresholds(
        Regime.COEXISTENCE, gFK, D, K0, d_min, v_arg, D >= d_min
    )
