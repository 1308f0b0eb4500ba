"""The analysis quantities against references computed here with one
evaluation per coefficient: the linearization, the beta coefficients, the
dispersion relation and mode census, the hypothesis checks and the global
stability threshold.  The builtin motility and kinetics formulas are written
out in this file, and custom kinetics use their own evaluators, so these pins
hold however the library shares evaluations between coefficients."""

import math
from collections import Counter

import numpy as np
import pytest

from preytaxis_lab.linstab import (
    MARGINAL_TOL,
    StabilityClass,
    _quadratic_roots,
    beta_coefficients,
    dispersion,
    linearize,
    unstable_modes,
)
from preytaxis_lab.model import (
    FD_STEP,
    HypothesisFinding,
    HypothesisReport,
    HypothesisStatus,
    KineticsKind,
    KineticsModel,
    MotilityModel,
    Regime,
    StabilityThresholds,
    _first_violation,
    _golden_max,
    check_hypotheses,
    compute_equilibria,
    global_stability_report,
)


def logistic(m, r):
    """(d, chi, d') of d = 1/(m + w), chi = -d' = r*(sqrt(w)/(m + w))**2,
    w = exp(min(r*(v - 1), 700))."""

    def evaluate(v):
        w = np.exp(np.minimum(r * (np.asarray(v, dtype=float) - 1.0), 700.0))
        x = np.sqrt(w) / (m + w)
        return 1.0 / (m + w), r * (x * x), -r * (x * x)

    return evaluate


def constant(d0, c0):
    def evaluate(v):
        v = np.asarray(v, dtype=float)
        return np.full_like(v, d0), np.full_like(v, c0), np.zeros_like(v)

    return evaluate


# name -> (model, reference (d, chi, d') evaluator)
MOTILITIES = {
    "d1": (MotilityModel.d1(), logistic(1.0, 2.0)),
    "d2": (MotilityModel.d2(), logistic(1.0, 0.1)),
    "d3": (MotilityModel.d3(), logistic(9.0, 2.0)),
    "constant": (MotilityModel.constant(0.7, 0.3), constant(0.7, 0.3)),
    "constant-negative-chi": (MotilityModel.constant(1.0, -0.5), constant(1.0, -0.5)),
}

RM = KineticsModel.rosenzweig_macarthur(2.0, 1.0, 1.0, 4.0, 1.0)
RM_CUSTOM = KineticsModel.custom(
    3.0, 1.0, 0.0, 1.0, 4.0,
    F=lambda v: v / (5.0 + v),
    F_prime=lambda v: 5.0 / (5.0 + v) ** 2,
    f=lambda v: 1.0 * v * (1.0 - v / 4.0),
    f_prime=lambda v: 1.0 * (1.0 - 2.0 * v / 4.0),
)
# name -> (model, reference (F, F', f, f'))
KINETICS = {
    "rm": (
        RM,
        (
            lambda v: v / (1.0 + v),
            lambda v: 1.0 / (1.0 + v) ** 2,
            lambda v: 1.0 * v * (1.0 - v / 4.0),
            lambda v: 1.0 * (1.0 - 2.0 * v / 4.0),
        ),
    ),
    "rm-custom": (
        RM_CUSTOM,
        (RM_CUSTOM.F_eval, RM_CUSTOM.Fp_eval, RM_CUSTOM.f_eval, RM_CUSTOM.fp_eval),
    ),
}

D_VALUES = (1.0 / 4800.0, 0.1, 2.0)
ETA = np.geomspace(1e-2, 1e3, 300)

motility_names = pytest.mark.parametrize("mot_name", list(MOTILITIES))
kinetics_names = pytest.mark.parametrize("kin_name", list(KINETICS))


def reference_linearization(kin, ref_kin, ref_mot, D, eq):
    F, Fp, _, fp = ref_kin
    u, v = eq.u, eq.v
    Fv, Fpv = float(F(v)), float(Fp(v))
    d, chi, _ = ref_mot(v)
    B = np.array(
        [
            [kin.gamma * Fv - kin.theta - 2.0 * kin.alpha * u, kin.gamma * u * Fpv],
            [-Fv, -u * Fpv + float(fp(v))],
        ]
    )
    A = np.array([[float(d), -u * float(chi)], [0.0, D]])
    return A, B


def reference_dispersion(A, B, k):
    """(k, a, b, delta, rho, class) of M_k = -k^2 A + B."""
    d, D, taxis = float(A[0, 0]), float(A[1, 1]), -float(A[0, 1])
    B1, B2, B3, B4 = (float(x) for x in B.ravel())
    k2 = k * k
    a = (d + D) * k2 - (B1 + B4)
    b = d * D * k2 * k2 - (d * B4 + taxis * B3 + B1 * D) * k2 + (B1 * B4 - B2 * B3)
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
    return (k, a, b, delta, rho, klass)


def reference_modes(A, B, ell):
    """Non-stable modes up to two past the last instability band."""
    d, D, taxis = float(A[0, 0]), float(A[1, 1]), -float(A[0, 1])
    B1, B2, B3, B4 = (float(x) for x in B.ravel())
    cut = 0.0
    if B1 + B4 > 0.0:
        cut = (B1 + B4) / (d + D)
    c1 = d * B4 + taxis * B3 + B1 * D
    disc = c1 * c1 - 4.0 * d * D * (B1 * B4 - B2 * B3)
    if disc >= 0.0:
        cut = max(cut, (c1 + math.sqrt(disc)) / (2.0 * d * D))
    n_max = math.floor(ell * math.sqrt(cut) / math.pi) + 3
    out = []
    for n in range(n_max + 1):
        pt = reference_dispersion(A, B, n * math.pi / ell)
        if pt[-1] is not StabilityClass.STABLE:
            out.append((n, *pt))
    return out


@kinetics_names
@motility_names
@pytest.mark.parametrize("D", D_VALUES)
def test_linearization_dispersion_and_modes(kin_name, mot_name, D):
    kin, ref_kin = KINETICS[kin_name]
    mot, ref_mot = MOTILITIES[mot_name]
    co = compute_equilibria(kin).coexistence
    A, B = reference_linearization(kin, ref_kin, ref_mot, D, co)
    sys = linearize(kin, mot, D, co)
    assert np.array_equal(sys.A, A) and np.array_equal(sys.B, B)
    for eta in ETA:
        k = math.sqrt(eta)
        pt = dispersion(sys, k)
        assert (pt.k, pt.a, pt.b, pt.delta, pt.rho, pt.klass) == reference_dispersion(A, B, k)
    ell = 4.0 * math.pi
    modes = [
        (m.n, m.point.k, m.point.a, m.point.b, m.point.delta, m.point.rho, m.klass)
        for m in unstable_modes(kin, mot, D, co, ell)
    ]
    assert modes == reference_modes(A, B, ell)


@motility_names
def test_beta_coefficients(mot_name):
    mot, ref_mot = MOTILITIES[mot_name]
    co = compute_equilibria(RM).coexistence
    mu, K, lam, v = RM.mu, RM.K, RM.lam, co.v
    d, chi, _ = ref_mot(v)
    beta1 = mu * v * (K - lam - 2.0 * v) / (K * (lam + v))
    beta2 = beta1 * float(d) - mu * v * (K - v) * float(chi) / K
    beta3 = lam * RM.theta * mu * (K - v) / (K * (lam + v))
    beta = beta_coefficients(RM, mot, co)
    assert (beta.beta1, beta.beta2, beta.beta3) == (beta1, beta2, beta3)


def reference_hypotheses(kin, ref_kin, ref_mot, v_max, n):
    F, Fp, f, _ = ref_kin
    v = np.linspace(0.0, v_max, n)
    holds = HypothesisFinding(HypothesisStatus.HOLDS)
    d, chi, dp = ref_mot(v)
    h1 = (
        _first_violation(-d, v, "d(v) > 0")
        or _first_violation(-chi, v, "chi(v) >= 0")
        or _first_violation(dp, v, "d'(v) <= 0")
        or holds
    )
    vpos = v[1:]
    h2 = (
        _first_violation([abs(float(F(0.0)))], [0.0], "F(0) = 0")
        or _first_violation(-F(vpos), vpos, "F(v) > 0")
        or _first_violation(-Fp(v), v, "F'(v) > 0")
        or holds
    )
    h3 = (
        _first_violation([abs(float(f(0.0)))], [0.0], "f(0) = 0")
        or _first_violation([abs(float(f(kin.K)))], [kin.K], "f(K) = 0")
        or _first_violation(f(v) - kin.mu * v, v, "f(v) <= mu*v")
    )
    if h3 is None:
        beyond = v[v > kin.K]
        h3 = (
            _first_violation(f(beyond), beyond, "f(v) < 0 for v > K") or holds
            if beyond.size
            else HypothesisFinding(
                HypothesisStatus.NOT_CHECKED,
                inequality="f(v) < 0 for v > K (no samples beyond K)",
            )
        )
    if kin.kind is KineticsKind.CUSTOM:
        v_phi, x0 = np.maximum(v, 2.0 * FD_STEP), max(1e-8, 1e-8 * v_max)
    else:
        v_phi, x0 = v, 0.0
    h4 = (
        _first_violation([-float(kin.phi(x0))], [0.0], "phi(0+) > 0")
        or _first_violation(kin.phi_prime(v_phi), v_phi, "phi'(v) < 0")
        or holds
    )
    return HypothesisReport(h1, h2, h3, h4, v_max, n)


@kinetics_names
@motility_names
@pytest.mark.parametrize("v_max", [4.0, 9.0])
def test_check_hypotheses(kin_name, mot_name, v_max):
    kin, ref_kin = KINETICS[kin_name]
    mot, ref_mot = MOTILITIES[mot_name]
    want = reference_hypotheses(kin, ref_kin, ref_mot, v_max, 400)
    assert check_hypotheses(kin, mot, v_max, 400) == want


def reference_stability(kin, ref_kin, ref_mot, D, v0_max):
    """The coexistence threshold with F, F', d and chi each evaluated on
    their own, on the grid and at every golden-section point."""
    F, Fp, _, _ = ref_kin
    co = compute_equilibria(kin).coexistence
    K0 = max(v0_max, kin.K)
    denom = 4.0 * kin.gamma * float(F(co.v))

    def threshold(x):
        x = np.asarray(x, dtype=float)
        d, chi, _ = ref_mot(x)
        Fx, Fpx = np.asarray(F(x), dtype=float), np.asarray(Fp(x), dtype=float)
        return co.u * Fx**2 * np.asarray(chi) ** 2 / (denom * Fpx * np.asarray(d))

    v = np.linspace(0.0, K0, 10_001)
    vals = threshold(v)
    i = int(np.argmax(vals))
    x_ref, f_ref = _golden_max(
        lambda x: float(threshold(x)), v[max(0, i - 1)], v[min(v.size - 1, i + 1)]
    )
    if f_ref >= vals[i]:
        d_min, v_arg = float(f_ref), float(x_ref)
    else:
        d_min, v_arg = float(vals[i]), float(v[i])
    gFK = kin.gamma * float(F(kin.K))
    return StabilityThresholds(Regime.COEXISTENCE, gFK, D, K0, d_min, v_arg, D >= d_min)


@kinetics_names
@motility_names
@pytest.mark.parametrize("v0_max", [3.0, 6.5])
def test_global_stability_report(kin_name, mot_name, v0_max):
    kin, ref_kin = KINETICS[kin_name]
    mot, ref_mot = MOTILITIES[mot_name]
    want = reference_stability(kin, ref_kin, ref_mot, 0.3, v0_max)
    assert global_stability_report(kin, mot, 0.3, v0_max) == want


def test_global_stability_report_evaluates_each_coefficient_once_on_the_grid(monkeypatch):
    grid_calls = Counter()

    def counted(name, fn):
        def evaluate(v):
            if np.size(v) == 10_001:
                grid_calls[name] += 1
            return fn(v)

        return evaluate

    kin = KineticsModel.custom(
        3.0, 1.0, 0.0, 1.0, 4.0,
        F=counted("F", RM_CUSTOM.F_eval),
        F_prime=counted("Fp", RM_CUSTOM.Fp_eval),
        f=RM_CUSTOM.f_eval,
        f_prime=RM_CUSTOM.fp_eval,
    )
    d_and_chi = MotilityModel.d_and_chi

    def counted_d_and_chi(self, v, out=None):
        if np.size(v) == 10_001:
            grid_calls["d_and_chi"] += 1
        return d_and_chi(self, v, out)

    monkeypatch.setattr(MotilityModel, "d_and_chi", counted_d_and_chi)
    rep = global_stability_report(kin, MotilityModel.d1(), 0.3, 4.0)
    assert rep.regime is Regime.COEXISTENCE and rep.D_min > 0.0
    assert grid_calls == {"F": 1, "Fp": 1, "d_and_chi": 1}


def test_check_hypotheses_evaluates_builtin_motility_once(monkeypatch):
    calls = []
    d_and_chi = MotilityModel.d_and_chi

    def counted(self, v, out=None):
        calls.append(np.shape(v))
        return d_and_chi(self, v, out)

    monkeypatch.setattr(MotilityModel, "d_and_chi", counted)
    rep = check_hypotheses(KINETICS["rm"][0], MotilityModel.d1(), 4.0, 400)
    assert rep.h1.status is HypothesisStatus.HOLDS
    assert calls == [(400,)]
