import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bisect_coexistence_oracle
from preytaxis_lab.model import (
    EquilibriumKind,
    HypothesisStatus,
    KineticsModel,
    MotilityModel,
    Regime,
    check_hypotheses,
    compute_equilibria,
    coexistence_by_bisection,
    eval_reaction,
    global_stability_report,
    k0_bound,
    reaction,
)

CP = dict(gamma=2.0, theta=1.0, mu=1.0, K=4.0, lam=1.0)


def rm(**over):
    return KineticsModel.rosenzweig_macarthur(**{**CP, **over})


def zero_kinetics():
    z = lambda v: np.zeros_like(np.asarray(v, dtype=float))
    return KineticsModel.custom(0.0, 0.0, 0.0, 0.0, 1.0, z, z, z, z)


class TestEvalReaction:
    def test_vanishes_at_rm_coexistence(self):
        du, dv = eval_reaction(rm(), 1.5, 1.0)
        assert du == pytest.approx(0.0, abs=1e-14)
        assert dv == pytest.approx(0.0, abs=1e-14)

    def test_origin_is_stationary(self):
        for kin in (rm(), KineticsModel.lotka_volterra(2, 1, 1, 1, 4)):
            assert eval_reaction(kin, 0.0, 0.0) == (0.0, 0.0)

    def test_lv_point_value(self):
        # direct substitution: du = 2*1*1-1-1 = 0, dv = 1*(1-1/4)-1 = -0.25
        kin = KineticsModel.lotka_volterra(2, 1, 1, 1, 4)
        du, dv = eval_reaction(kin, 1.0, 1.0)
        assert du == pytest.approx(0.0, abs=1e-15)
        assert dv == pytest.approx(-0.25, abs=1e-15)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            eval_reaction(rm(), -1.0, 1.0)
        with pytest.raises(ValueError):
            eval_reaction(rm(), 1.0, -1.0)

    def test_array_inputs(self):
        u = np.array([0.0, 1.5, 2.0])
        v = np.array([0.0, 1.0, 3.0])
        du, dv = eval_reaction(rm(), u, v)
        assert du.shape == (3,)
        assert du[1] == pytest.approx(0.0, abs=1e-14)


def rm_as_custom(gamma=2.0, theta=1.0, mu=1.0, K=4.0, lam=5.0):
    """Holling-II kinetics routed through the custom-evaluator interface."""
    return KineticsModel.custom(
        gamma, theta, 0.0, mu, K,
        F=lambda v: v / (lam + v),
        F_prime=lambda v: lam / (lam + v) ** 2,
        f=lambda v: mu * v * (1.0 - v / K),
        f_prime=lambda v: mu * (1.0 - 2.0 * v / K),
    )


def same_bits(a, b):
    """Equal as float64 arrays to the last bit, signs of zero and NaN
    payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# zeros of both signs, subnormals, huge values, negatives and NaN
V_SAMPLES = np.array(
    [0.0, -0.0, 5e-324, 1e-300, 0.1, 0.7, 1.0, 3.9999, 4.0, 17.5, 1e150, 1e300, -0.3, -2.0, np.nan]
)
LV_KIN = KineticsModel.lotka_volterra(2.0, 1.0, 0.1, 1.3, 4.0)
RM_KIN = KineticsModel.rosenzweig_macarthur(2.0, 1.0, 1.3, 4.0, 0.7)


def bound_F(kin, v, out):
    """F(v) into ``out`` through the kernel the solver binds."""
    kin._kernel(v, F=out)()
    return out


def bound_f(kin, v, out, scratch=None):
    """f(v) into ``out`` through the kernel the solver binds."""
    kin._kernel(v, f=out, scratch=scratch)()
    return out


class TestKineticsOut:
    """The kinetics kernel writes the closed forms of F and f into the
    caller's buffers bit for bit, and the allocating calls agree with it;
    the scalar path keeps returning Python floats."""

    # the closed forms, written out with the models' float parameters
    CLOSED_F = {
        "lv": lambda v: v + 0.0,
        "rm": lambda v: v / (0.7 + v),
    }
    CLOSED_f = {
        "lv": lambda v: 1.3 * v * (1.0 - v / 4.0),
        "rm": lambda v: 1.3 * v * (1.0 - v / 4.0),
    }
    BUILTIN = {"lv": LV_KIN, "rm": RM_KIN}

    @pytest.mark.parametrize("name", ["lv", "rm"])
    def test_builtin_out_matches_closed_forms(self, name):
        kin, v = self.BUILTIN[name], V_SAMPLES.copy()
        with np.errstate(all="ignore"):
            F_ref, f_ref = self.CLOSED_F[name](v), self.CLOSED_f[name](v)
            out, scratch = np.full_like(v, 9.0), np.full_like(v, 9.0)
            assert same_bits(bound_F(kin, v, out), F_ref)
            assert same_bits(bound_f(kin, v, out, scratch), f_ref)
            assert same_bits(bound_f(kin, v, np.full_like(v, 9.0)), f_ref)
            # the allocating path agrees with both
            assert same_bits(kin.F(v), F_ref) and same_bits(kin.f(v), f_ref)
        assert same_bits(v, V_SAMPLES)  # the input is left alone

    @pytest.mark.parametrize("name", ["lv", "rm"])
    def test_scalar_input_keeps_python_floats(self, name):
        kin = self.BUILTIN[name]
        out = np.empty(1)
        for x in (0.0, 0.37, 1.0, 2.5, 4.0, 11.0):
            F, f = kin.F(x), kin.f(x)
            assert type(F) is float and F == self.CLOSED_F[name](x)
            assert type(f) is float and f == self.CLOSED_f[name](x)
            assert same_bits(bound_F(kin, np.array([x]), out), [F])
            assert same_bits(bound_f(kin, np.array([x]), out, np.empty(1)), [f])

    # F(x) and f(x) at x = 0, 0.7, 2.5 and the coexistence state (u, v),
    # as float.hex, from the release before the scalar path let the
    # closed forms' ufuncs allocate
    STORED = {
        "lv": (
            [("0x0.0p+0", "0x0.0p+0"), ("0x1.6666666666666p-1", "0x1.27ae147ae147ap-1"),
             ("0x1.4000000000000p+1", "0x1.e000000000000p-1")],
            ("0x1.c000000000000p-1", "0x1.0000000000000p-1"),
        ),
        "rm": (
            [("0x0.0p+0", "0x0.0p+0"), ("0x1.a5a5a5a5a5a5ap-2", "0x1.27ae147ae147ap-1"),
             ("0x1.6db6db6db6db7p-1", "0x1.e000000000000p-1")],
            ("0x1.8000000000000p+0", "0x1.0000000000000p+0"),
        ),
        "rm-alpha": (
            [("0x0.0p+0", "0x0.0p+0"), ("0x1.a5a5a5a5a5a5ap-2", "0x1.27ae147ae147ap-1"),
             ("0x1.6db6db6db6db7p-1", "0x1.e000000000000p-1")],
            ("0x1.5d8f4fbfe6ea3p+0", "0x1.31a24e8d2022fp+1"),
        ),
    }
    SCALAR_KIN = {
        "lv": lambda: KineticsModel.lotka_volterra(2.0, 1.0, 0.0, 1.0, 4.0),
        "rm": lambda: rm(),
        "rm-alpha": lambda: rm(alpha=0.3),
    }

    @pytest.mark.parametrize("name", ["lv", "rm", "rm-alpha"])
    def test_scalar_calls_match_the_array_path_and_stored_values(self, name, monkeypatch):
        from preytaxis_lab import model

        kin = self.SCALAR_KIN[name]()
        values, (u_star, v_star) = self.STORED[name]
        for x, (F_hex, f_hex) in zip((0.0, 0.7, 2.5), values):
            F, f = kin.F(x), kin.f(x)
            assert type(F) is float and F == float.fromhex(F_hex)
            assert type(f) is float and f == float.fromhex(f_hex)
            out = np.empty(1)
            assert same_bits(bound_F(kin, np.array([x]), out), [F])
            assert same_bits(bound_f(kin, np.array([x]), out), [f])
        co = compute_equilibria(kin).coexistence
        assert (co.u, co.v) == (float.fromhex(u_star), float.fromhex(v_star))

        def through_out(bind, v):
            # every scalar F and f evaluated on a one-cell buffer
            out = np.empty(1)
            bind(np.array([v], dtype=float), out)()
            return float(out[0])

        monkeypatch.setattr(model, "_allocating", through_out)
        assert compute_equilibria(kin).coexistence == co

    def test_custom_kinds_copy_their_evaluators(self):
        # evaluators that return Python scalars whatever v is
        flat = KineticsModel.custom(
            1.0, 0.5, 0.0, 1.0, 2.0,
            F=lambda v: 0.25, F_prime=lambda v: 0.0, f=lambda v: -0.0, f_prime=lambda v: 0.0,
        )
        v = np.abs(V_SAMPLES[:-1])
        for kin in (rm_as_custom(), flat):
            with np.errstate(over="ignore"):
                F_ref = np.broadcast_to(kin.F_eval(v), v.shape)
                f_ref = np.broadcast_to(kin.f_eval(v), v.shape)
                out, scratch = np.full_like(v, 9.0), np.full_like(v, 9.0)
                assert same_bits(bound_F(kin, v, out), F_ref)
                assert same_bits(bound_f(kin, v, out, scratch), f_ref)
                assert same_bits(kin.F(v), F_ref) and same_bits(kin.f(v), f_ref)
        assert type(flat.F(1.0)) is float and flat.F(1.0) == 0.25

    @pytest.mark.parametrize(
        "kin", [LV_KIN, RM_KIN, rm_as_custom()], ids=["lv", "rm", "custom"]
    )
    def test_reaction_with_scratch_matches_allocating_call(self, kin):
        rng = np.random.default_rng(2)
        u, v = rng.uniform(0.0, 3.0, 64), rng.uniform(0.0, 5.0, 64)
        du_ref, dv_ref = reaction(kin, u, v)
        # the expressions of reaction's docstring, element by element
        Fv = kin.F(v)
        assert same_bits(du_ref, kin.gamma * u * Fv - kin.theta * u - kin.alpha * u * u)
        assert same_bits(dv_ref, kin.f(v) - u * Fv)
        # the kernel the solver binds, into caller buffers with F as scratch
        du, dv, Fv = np.full(64, 9.0), np.full(64, 9.0), np.full(64, 9.0)
        kin._kernel(v, F=Fv, f=dv, scratch=du, u=u, du=du)()
        assert same_bits(du, du_ref) and same_bits(dv, dv_ref)


    @pytest.mark.parametrize("alpha", [0.0, -0.0])
    def test_zero_alpha_of_either_sign_keeps_the_expression_bits(self, alpha):
        # u = +0 and v = -0 make gamma*u*F(v) - theta*u -0.0, and only a
        # -0.0 alpha term turns that into +0.0
        kin = rm(alpha=alpha)
        u = np.array([0.0, -0.0, 0.0, 1.5, 2.0])
        v = np.array([-0.0, -0.0, 0.3, 2.0, 1e-300])
        du, _ = reaction(kin, u, v)
        assert same_bits(du, kin.gamma * u * kin.F(v) - kin.theta * u - kin.alpha * u * u)
        assert (math.copysign(1.0, du[0]) > 0.0) == (math.copysign(1.0, alpha) < 0.0)


class TestEquilibria:
    def test_rm_cp_coexistence(self):
        eqs = compute_equilibria(rm())
        co = eqs.coexistence
        assert co is not None
        assert co.u == pytest.approx(1.5, abs=1e-10)
        assert co.v == pytest.approx(1.0, abs=1e-10)
        assert {e.kind for e in eqs.states} == {
            EquilibriumKind.EXTINCTION,
            EquilibriumKind.PREY_ONLY,
            EquilibriumKind.COEXISTENCE,
        }

    def test_no_coexistence_below_threshold(self):
        # gamma*F(K) = 4/5 <= theta = 1
        eqs = compute_equilibria(rm(gamma=1.0))
        assert eqs.coexistence is None
        assert len(eqs.states) == 2
        assert eqs.gamma_F_K == pytest.approx(0.8)

    def test_lv_closed_form(self):
        kin = KineticsModel.lotka_volterra(2, 1, 1, 1, 4)
        co = compute_equilibria(kin).coexistence
        assert co.u == pytest.approx(7.0 / 9.0, abs=1e-12)
        assert co.v == pytest.approx(8.0 / 9.0, abs=1e-12)
        u_o, v_o = bisect_coexistence_oracle(kin)
        assert co.u == pytest.approx(u_o, abs=1e-12)
        assert co.v == pytest.approx(v_o, abs=1e-12)

    def test_all_residuals_small(self):
        models = [
            rm(),
            rm(gamma=3.0, lam=5.0),
            KineticsModel.lotka_volterra(2, 1, 1, 1, 4),
            KineticsModel.lotka_volterra(0.5, 1, 0.3, 2, 5),
        ]
        for kin in models:
            for eq in compute_equilibria(kin).states:
                assert eq.residual < 1e-10

    def test_closed_form_matches_library_bisection(self):
        for kin in (
            KineticsModel.lotka_volterra(2, 1, 1, 1, 4),
            KineticsModel.lotka_volterra(3, 0.5, 0.2, 1.5, 2),
            rm(),
            rm(gamma=3.0, lam=5.0),
        ):
            co = compute_equilibria(kin).coexistence
            root = coexistence_by_bisection(kin)
            assert co.u == pytest.approx(root.u, abs=1e-10)
            assert co.v == pytest.approx(root.v, abs=1e-10)

    def test_rm_with_competition_uses_rootfinding(self):
        kin = rm(alpha=0.3)
        co = compute_equilibria(kin).coexistence
        assert co.residual < 1e-10
        u_o, v_o = bisect_coexistence_oracle(kin)
        assert co.v == pytest.approx(v_o, abs=1e-10)

    def test_custom_without_bracket_raises(self):
        # F bounded so gamma*F(K) < theta: no positive root to bracket
        kin = KineticsModel.custom(
            1.0, 1.0, 0.0, 1.0, 4.0,
            F=lambda v: v / (1.0 + v),
            F_prime=lambda v: 1.0 / (1.0 + v) ** 2,
            f=lambda v: v * (1.0 - v / 4.0),
            f_prime=lambda v: 1.0 - v / 2.0,
        )
        with pytest.raises(ValueError):
            coexistence_by_bisection(kin)


class TestHypotheses:
    def test_h4_fails_for_small_lambda(self):
        rep = check_hypotheses(rm(), MotilityModel.d1(), v_max=4.0, n_samples=400)
        assert rep.h4.status is HypothesisStatus.FAILS
        assert rep.h4.witness == pytest.approx(0.0)
        # phi'(0) = mu*(1 - lam/K) = 0.75
        assert rep.h4.violation == pytest.approx(0.75, abs=1e-12)

    def test_h4_holds_for_large_lambda(self):
        rep = check_hypotheses(
            rm(lam=5.0), MotilityModel.d1(), v_max=4.0, n_samples=400
        )
        assert rep.h4.status is HypothesisStatus.HOLDS

    def test_h1_holds_for_builtin_motilities(self):
        for mot in (MotilityModel.d1(), MotilityModel.d2(), MotilityModel.d3()):
            rep = check_hypotheses(rm(), mot, v_max=4.0, n_samples=400)
            assert rep.h1.status is HypothesisStatus.HOLDS

    def test_h2_h3_hold_for_builtins(self):
        rep = check_hypotheses(rm(), MotilityModel.d1(), v_max=8.0, n_samples=500)
        assert rep.h2.status is HypothesisStatus.HOLDS
        assert rep.h3.status is HypothesisStatus.HOLDS

    def test_h3_inconclusive_without_samples_beyond_K(self):
        rep = check_hypotheses(rm(), MotilityModel.d1(), v_max=4.0, n_samples=400)
        assert rep.h3.status is HypothesisStatus.NOT_CHECKED

    def test_h1_fails_for_negative_constant_taxis(self):
        mot = MotilityModel.constant(1.0, chi_const=-0.5)
        rep = check_hypotheses(rm(), mot, v_max=4.0, n_samples=400)
        assert rep.h1.status is HypothesisStatus.FAILS
        assert rep.h1.violation > 1e-12


class TestCustomEvaluators:
    def test_custom_h4_via_finite_differences(self):
        rep = check_hypotheses(
            rm_as_custom(lam=5.0), MotilityModel.d1(), v_max=4.0, n_samples=400
        )
        assert rep.h4.status is HypothesisStatus.HOLDS
        rep_bad = check_hypotheses(
            rm_as_custom(lam=1.0), MotilityModel.d1(), v_max=4.0, n_samples=400
        )
        assert rep_bad.h4.status is HypothesisStatus.FAILS

    def test_custom_equilibria_match_builtin(self):
        kin_c = rm_as_custom(gamma=3.0, lam=5.0)
        kin_b = rm(gamma=3.0, lam=5.0)
        co_c = compute_equilibria(kin_c).coexistence
        co_b = compute_equilibria(kin_b).coexistence
        assert co_c.u == pytest.approx(co_b.u, abs=1e-10)
        assert co_c.v == pytest.approx(co_b.v, abs=1e-10)


class TestMotilityIdentities:
    @pytest.mark.parametrize(
        "mot,m,r",
        [
            (MotilityModel.d1(), 1.0, 2.0),
            (MotilityModel.d2(), 1.0, 0.1),
            (MotilityModel.d3(), 9.0, 2.0),
        ],
    )
    def test_chi_plus_dprime_vanishes(self, mot, m, r):
        v = np.linspace(0.0, 6.0, 1000)
        # independent closed form for d'
        w = np.exp(r * (v - 1.0))
        dprime_closed = -r * w / (m + w) ** 2
        assert np.max(np.abs(mot.chi(v) + dprime_closed)) < 1e-12

    def test_builtin_values_at_unit_prey(self):
        assert MotilityModel.d1().d(1.0) == pytest.approx(0.5)
        assert MotilityModel.d1().chi(1.0) == pytest.approx(0.5)
        assert MotilityModel.d2().chi(1.0) == pytest.approx(1.0 / 40.0)
        assert MotilityModel.d3().d(1.0) == pytest.approx(0.1)
        assert MotilityModel.d3().chi(1.0) == pytest.approx(1.0 / 50.0)

    def test_positive_on_nonnegative_range(self):
        v = np.linspace(0.0, 50.0, 500)
        for mot in (MotilityModel.d1(), MotilityModel.d2(), MotilityModel.d3()):
            assert np.all(mot.d(v) > 0.0)

    @pytest.mark.parametrize(
        "mot,sup",
        [
            (MotilityModel.d1(), 0.5),
            (MotilityModel.d2(), 0.025),
            (MotilityModel.d3(), 2.0 / 36.0),
            (MotilityModel.constant(0.3, -2.5), 2.5),
        ],
        ids=["d1", "d2", "d3", "constant"],
    )
    def test_sup_chi_bounds_the_computed_values(self, mot, sup):
        assert mot.sup_chi == sup
        # dense around chi's peak at w = m, and out to the exponent cap
        m, r = mot._logistic_operands or (1.0, 1.0)
        peak = 1.0 + math.log(m) / r
        v = np.concatenate(
            [peak + np.linspace(-1e-3, 1e-3, 20001), np.linspace(-1e4, 1e4, 20001)]
        )
        chi = mot.chi(v)
        assert np.max(np.abs(chi)) <= sup * (1.0 + 1e-14)
        if mot._logistic_operands is not None:
            assert np.max(chi) > sup * (1.0 - 1e-12)  # the peak is attained


class TestLogisticMotilityValues:
    """d, chi and d' of the builtin kinds, bit for bit against their closed
    forms d = 1/(m + w) and chi = -d' = r*(sqrt(w)/(m + w))**2 with
    w = exp(min(r*(v - 1), 700)); the solver's reference right-hand side
    calls ``d`` and ``chi``, so these pin it."""

    # zeros of both signs, subnormals, huge values, negatives, infinities
    # and the exponent cap at 1e4 (past it) and -1e4 (w == 0)
    V = np.concatenate(
        [
            np.linspace(0.0, 10.0, 2001),
            [-0.0, 5e-324, 1e-300, -0.3, -2.0, 1e4, 3e4, -1e4, 1e300, np.inf, -np.inf],
        ]
    )

    @staticmethod
    def closed_forms(m, r, v):
        w = np.exp(np.minimum(r * (v - 1.0), 700.0))
        x = np.sqrt(w) / (m + w)
        return 1.0 / (m + w), r * (x * x), -r * (x * x)

    @pytest.mark.parametrize(
        "mot,m,r",
        [
            (MotilityModel.d1(), 1.0, 2.0),
            (MotilityModel.d2(), 1.0, 0.1),
            (MotilityModel.d3(), 9.0, 2.0),
        ],
        ids=["d1", "d2", "d3"],
    )
    def test_values_and_types(self, mot, m, r):
        assert 0.1 * (1e4 - 1.0) > 700.0 and np.exp(2.0 * (-1e4 - 1.0)) == 0.0
        d, chi, dp = self.closed_forms(m, r, self.V)
        for got, want in ((mot.d(self.V), d), (mot.chi(self.V), chi), (mot.d_prime(self.V), dp)):
            assert type(got) is np.ndarray and same_bits(got, want)
        for i in (0, 140, 200, 1000, 2000, 2001, 2006, 2007, 2008, 2010, 2011):
            x = float(self.V[i])
            for got, want in ((mot.d(x), d[i]), (mot.chi(x), chi[i]), (mot.d_prime(x), dp[i])):
                assert type(got) is float and same_bits(got, want)


class TestPhiDerivative:
    @pytest.mark.parametrize(
        "kin",
        [
            rm(),
            rm(lam=5.0),
            KineticsModel.lotka_volterra(2, 1, 1, 1, 4),
        ],
    )
    def test_closed_form_matches_central_differences(self, kin):
        v = np.linspace(0.1, k0_bound(kin, 0.0), 200)
        step = 1e-6
        fd = (kin.phi(v + step) - kin.phi(v - step)) / (2.0 * step)
        assert np.max(np.abs(kin.phi_prime(v) - fd)) < 1e-6


class TestK0Bound:
    def test_examples(self):
        assert k0_bound(rm(), 2.0) == 4.0
        assert k0_bound(rm(), 5.0) == 5.0
        assert k0_bound(rm(), 4.0) == 4.0

    @given(
        st.floats(0.0, 1e6, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
        st.floats(0.01, 1e6, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_both_arguments(self, v0a, dv0, Ka, dK):
        kin_a = rm(K=Ka)
        kin_b = rm(K=Ka + dK)
        assert k0_bound(kin_a, v0a) <= k0_bound(kin_a, v0a + dv0)
        assert k0_bound(kin_a, v0a) <= k0_bound(kin_b, v0a)


class TestGlobalStabilityReport:
    def test_prey_only_exponential(self):
        rep = global_stability_report(rm(gamma=1.0), MotilityModel.d1(), 0.5, 4.0)
        assert rep.regime is Regime.PREY_ONLY_EXPONENTIAL
        assert rep.D_min is None

    def test_prey_only_algebraic_requires_alpha(self):
        # gamma*F(K) = theta exactly, with competition
        kin = KineticsModel.lotka_volterra(0.25, 1.0, 0.5, 1.0, 4.0)
        rep = global_stability_report(kin, MotilityModel.d1(), 0.5, 4.0)
        assert rep.regime is Regime.PREY_ONLY_ALGEBRAIC

    def test_zero_taxis_gives_zero_threshold(self):
        mot = MotilityModel.constant(0.7, chi_const=0.0)
        rep = global_stability_report(rm(gamma=3.0, lam=5.0), mot, 1e-6, 4.0)
        assert rep.regime is Regime.COEXISTENCE
        assert rep.D_min == 0.0
        assert rep.satisfied

    def test_threshold_matches_brute_force_scan(self):
        kin = rm(gamma=3.0, lam=5.0)
        mot = MotilityModel.d2()
        rep = global_stability_report(kin, mot, 1.0, 4.0)
        assert rep.regime is Regime.COEXISTENCE
        co = compute_equilibria(kin).coexistence
        v = np.linspace(0.0, rep.K0, 1_000_001)
        brute = np.max(
            co.u
            * np.asarray(kin.F(v)) ** 2
            * np.asarray(mot.chi(v)) ** 2
            / (
                4.0
                * kin.gamma
                * kin.F(co.v)
                * np.asarray(kin.F_prime(v))
                * np.asarray(mot.d(v))
            )
        )
        assert rep.D_min == pytest.approx(brute, rel=1e-6)

    def test_raises_when_denominator_vanishes(self):
        flat_F = KineticsModel.custom(
            3.0, 1.0, 0.0, 1.0, 4.0,
            F=lambda v: np.minimum(v, 1.0),
            F_prime=lambda v: np.where(np.asarray(v) < 1.0, 1.0, 0.0),
            f=lambda v: v * (1.0 - v / 4.0),
            f_prime=lambda v: 1.0 - v / 2.0,
        )
        with pytest.raises(ValueError):
            global_stability_report(flat_F, MotilityModel.d1(), 1.0, 4.0)


class TestValidation:
    def test_builtin_requires_positive_rates(self):
        with pytest.raises(ValueError):
            KineticsModel.lotka_volterra(0.0, 1, 0, 1, 4)
        with pytest.raises(ValueError):
            rm(K=-1.0)
        with pytest.raises(ValueError):
            rm(lam=0.0)

    def test_custom_zero_rates_allowed(self):
        kin = zero_kinetics()
        du, dv = eval_reaction(kin, 1.0, 1.0)
        assert du == 0.0 and dv == 0.0

    def test_constant_motility_validation(self):
        with pytest.raises(ValueError):
            MotilityModel.constant(0.0)

    @pytest.mark.parametrize("key", ["gamma", "theta", "alpha", "mu", "K", "lam"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_kinetics_rejects_non_finite_parameters(self, key, value):
        with pytest.raises(ValueError):
            rm(**{key: value})
        if key != "lam":
            z = zero_kinetics()
            args = {k: getattr(z, k) for k in ("gamma", "theta", "alpha", "mu", "K")}
            with pytest.raises(ValueError):
                KineticsModel.custom(
                    **{**args, key: value}, F=z.F_eval, F_prime=z.Fp_eval,
                    f=z.f_eval, f_prime=z.fp_eval,
                )

    @pytest.mark.parametrize(
        "d_const, chi_const",
        [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)],
    )
    def test_constant_motility_rejects_non_finite(self, d_const, chi_const):
        with pytest.raises(ValueError):
            MotilityModel.constant(d_const, chi_const)
