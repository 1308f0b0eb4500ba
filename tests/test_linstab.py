import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import fd_jacobian, sign_change_intervals
from preytaxis_lab.linstab import (
    BetaCoefficients,
    StabilityClass,
    beta_coefficients,
    bifurcation_curves,
    dispersion,
    grid_decay_rate,
    hopf_band,
    linearize,
    min_stabilizing_D,
    steady_band,
    steady_band_threshold,
    unstable_modes,
)
from preytaxis_lab.model import (
    KineticsModel,
    MotilityModel,
    compute_equilibria,
    eval_reaction,
)

CP_KIN = KineticsModel.rosenzweig_macarthur(2, 1, 1, 4, 1)
CP_EQS = compute_equilibria(CP_KIN)
CP_CO = CP_EQS.coexistence
D1, D2, D3 = MotilityModel.d1(), MotilityModel.d2(), MotilityModel.d3()


class TestLinearize:
    def test_jacobian_at_cp_coexistence(self):
        sys = linearize(CP_KIN, D1, 0.1, CP_CO)
        expected = np.array([[0.0, 0.75], [-0.5, 0.125]])
        assert np.allclose(sys.B, expected, atol=1e-12)
        # finite-difference Jacobian of the reaction terms as oracle
        J = fd_jacobian(
            lambda x: eval_reaction(CP_KIN, x[0], x[1]), [CP_CO.u, CP_CO.v]
        )
        assert np.max(np.abs(sys.B - J)) < 1e-6
        # B4 equals the trace coefficient beta1 = 1/8 here
        assert sys.B[1, 1] == pytest.approx(0.125, abs=1e-12)

    def test_jacobian_at_extinction(self):
        ext = CP_EQS.extinction
        sys = linearize(CP_KIN, D1, 0.1, ext)
        # F(0) = 0 leaves only the death and prey-growth rates
        expected = np.array([[-1.0, 0.0], [0.0, CP_KIN.f_prime(0.0)]])
        assert np.allclose(sys.B, expected, atol=1e-14)

    def test_prey_only_is_triangular(self):
        kin = KineticsModel.rosenzweig_macarthur(1, 1, 1, 4, 1)
        eqs = compute_equilibria(kin)
        sys = linearize(kin, D1, 0.1, eqs.prey_only)
        assert sys.B[0, 1] == 0.0
        eig = np.linalg.eigvals(sys.B)
        assert sorted(eig.real) == pytest.approx([-1.0, -0.2], abs=1e-12)
        assert np.allclose(sorted(eig.real), sorted(np.diag(sys.B)), atol=1e-14)

    def test_diffusion_matrix_structure(self):
        sys = linearize(CP_KIN, D1, 0.1, CP_CO)
        assert sys.A[1, 0] == 0.0
        assert sys.A[0, 0] > 0 and sys.A[1, 1] > 0
        assert sys.A[0, 1] == pytest.approx(-CP_CO.u * D1.chi(CP_CO.v), abs=1e-15)

    def test_rejects_sloppy_equilibrium(self):
        from preytaxis_lab.model import Equilibrium, EquilibriumKind

        bad = Equilibrium(1.5, 1.01, EquilibriumKind.COEXISTENCE, 1e-3)
        with pytest.raises(ValueError):
            linearize(CP_KIN, D1, 0.1, bad)


class TestDispersion:
    def test_case1_band_edge(self):
        sys = linearize(CP_KIN, D1, 0.1, CP_CO)
        pt = dispersion(sys, math.sqrt(5.0 / 24.0))
        assert pt.a == pytest.approx(0.0, abs=1e-12)

    def test_case1_values_at_unit_wavenumber(self):
        sys = linearize(CP_KIN, D1, 0.1, CP_CO)
        pt = dispersion(sys, 1.0)
        assert pt.a == pytest.approx(0.475, abs=1e-12)
        assert pt.b == pytest.approx(0.7375, abs=1e-12)

    def test_large_wavenumber_is_stable(self):
        sys = linearize(CP_KIN, D1, 0.1, CP_CO)
        pt = dispersion(sys, 10.0)
        assert pt.a > 0 and pt.b > 0
        assert pt.klass is StabilityClass.STABLE

    def test_roots_satisfy_polynomial_and_match_eigensolver(self):
        rng = np.random.default_rng(7)
        sys = linearize(CP_KIN, D1, 0.1, CP_CO)
        for _ in range(200):
            k = rng.uniform(0.0, 20.0)
            pt = dispersion(sys, k)
            for r in pt.rho:
                resid = abs(r * r + pt.a * r + pt.b)
                scale = max(1.0, abs(r) ** 2, abs(pt.a * r), abs(pt.b))
                assert resid / scale < 1e-12
            eig = sorted(np.linalg.eigvals(sys.M(k)), key=lambda z: (z.real, z.imag))
            mine = sorted(pt.rho, key=lambda z: (z.real, z.imag))
            for a, b in zip(eig, mine):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_trace_determinant_identity(self):
        rng = np.random.default_rng(3)
        for D in (0.01, 0.1, 1.0):
            sys = linearize(CP_KIN, D2, D, CP_CO)
            for _ in range(50):
                k = rng.uniform(0.0, 10.0)
                pt = dispersion(sys, k)
                M = sys.M(k)
                assert pt.a == pytest.approx(-np.trace(M), abs=1e-12)
                assert pt.b == pytest.approx(np.linalg.det(M), rel=1e-12, abs=1e-12)


class TestBetaCoefficients:
    def test_case_values(self):
        b1 = beta_coefficients(CP_KIN, D1, CP_CO)
        assert b1.beta1 == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert b1.beta2 == pytest.approx(-5.0 / 16.0, abs=1e-12)
        assert b1.beta3 == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert beta_coefficients(CP_KIN, D2, CP_CO).beta2 == pytest.approx(
            7.0 / 160.0, abs=1e-12
        )
        assert beta_coefficients(CP_KIN, D3, CP_CO).beta2 == pytest.approx(
            -1.0 / 400.0, abs=1e-12
        )

    def test_beta3_positive_inside_carrying_capacity(self):
        for gamma in (1.5, 2.0, 3.0, 6.0):
            kin = KineticsModel.rosenzweig_macarthur(gamma, 1, 1, 4, 1)
            co = compute_equilibria(kin).coexistence
            beta = beta_coefficients(kin, D1, co)
            assert 0 < co.v < kin.K
            assert beta.beta3 > 0

    def test_consistency_with_dispersion(self):
        rng = np.random.default_rng(11)
        for mot in (D1, D2, D3):
            beta = beta_coefficients(CP_KIN, mot, CP_CO)
            d_star = mot.d(CP_CO.v)
            for _ in range(100):
                D = rng.uniform(1e-4, 1.0)
                k = rng.uniform(0.0, 10.0)
                sys = linearize(CP_KIN, mot, D, CP_CO)
                pt = dispersion(sys, k)
                assert beta.a(D, d_star, k * k) == pytest.approx(pt.a, abs=1e-12)
                assert beta.b(D, d_star, k * k) == pytest.approx(
                    pt.b, rel=1e-12, abs=1e-12
                )

    def test_requires_rm_without_competition(self):
        lv = KineticsModel.lotka_volterra(2, 1, 1, 1, 4)
        lv_co = compute_equilibria(lv).coexistence
        with pytest.raises(ValueError):
            beta_coefficients(lv, D1, lv_co)
        rm_a = KineticsModel.rosenzweig_macarthur(2, 1, 1, 4, 1, alpha=0.1)
        co_a = compute_equilibria(rm_a).coexistence
        with pytest.raises(ValueError):
            beta_coefficients(rm_a, D1, co_a)
        with pytest.raises(ValueError):
            beta_coefficients(CP_KIN, D1, CP_EQS.prey_only)


class TestBifurcationCurves:
    def test_defining_identities_on_grid(self):
        eta = np.append(np.geomspace(1e-2, 1e2, 200), 1.0)
        for mot in (D1, D2, D3):
            curve = bifurcation_curves(CP_KIN, mot, CP_CO, eta)
            beta = beta_coefficients(CP_KIN, mot, CP_CO)
            d_star = mot.d(CP_CO.v)
            a_resid = np.abs(
                np.asarray(
                    [beta.a(DH, d_star, e) for DH, e in zip(curve.D_H, curve.eta)]
                )
            )
            b_resid = np.abs(
                np.asarray(
                    [beta.b(DS, d_star, e) for DS, e in zip(curve.D_S, curve.eta)]
                )
            )
            assert np.max(a_resid) < 1e-10
            assert np.max(b_resid) < 1e-10

    def test_hopf_curve_root(self):
        # D_H vanishes at eta = beta1/d* = 1/4 for the slow-decay motility
        curve = bifurcation_curves(CP_KIN, D1, CP_CO, np.array([0.25]))
        assert curve.D_H[0] == pytest.approx(0.0, abs=1e-14)

    def test_hopf_curve_negative_beyond_root(self):
        eta = np.linspace(0.2505, 10.0, 300)
        curve = bifurcation_curves(CP_KIN, D1, CP_CO, eta)
        assert np.all(curve.D_H < 0.0)


class TestSteadyBand:
    def test_threshold_closes_band(self):
        beta = beta_coefficients(CP_KIN, D2, CP_CO)
        d_star = D2.d(CP_CO.v)
        thresh = steady_band_threshold(beta, d_star)
        assert thresh == pytest.approx(49.0 / 19200.0, abs=1e-9)
        assert steady_band(beta, thresh * 1.01, d_star) is None
        assert steady_band(beta, thresh * 0.99, d_star) is not None

    def test_band_against_sign_scan(self):
        beta = beta_coefficients(CP_KIN, D2, CP_CO)
        d_star = D2.d(CP_CO.v)
        D = 1.0 / 4800.0
        band = steady_band(beta, D, d_star)
        assert band is not None
        lo, hi = band
        assert lo == pytest.approx(8.7539, abs=2e-4)
        assert hi == pytest.approx(411.246, abs=1e-2)
        xs = np.arange(0.0, 500.0, 0.01)
        changes = sign_change_intervals(lambda x: beta.b(D, d_star, x), xs)
        assert len(changes) == 2
        assert changes[0][0] <= lo <= changes[0][1]
        assert changes[1][0] <= hi <= changes[1][1]
        mid = 0.5 * (lo + hi)
        assert beta.b(D, d_star, mid) < 0.0
        assert abs(beta.b(D, d_star, lo)) < 1e-10
        assert abs(beta.b(D, d_star, hi)) < 1e-10

    def test_no_band_for_negative_beta2(self):
        beta = beta_coefficients(CP_KIN, D1, CP_CO)
        assert steady_band(beta, 0.1, D1.d(CP_CO.v)) is None
        assert steady_band_threshold(beta, D1.d(CP_CO.v)) is None

    def test_band_from_the_origin_when_beta3_negative(self):
        # b = x^2 + x - 1 at D = d* = 1 is negative on [0, (sqrt 5 - 1)/2)
        # although beta2 < 0
        beta = BetaCoefficients(0.0, -1.0, -1.0)
        assert beta.b(1.0, 1.0, 0.5) == -0.25
        band = steady_band(beta, 1.0, 1.0)
        assert band is not None
        assert band[0] == 0.0
        root = (math.sqrt(5.0) - 1.0) / 2.0
        assert band[1] == pytest.approx(root, rel=1e-15, abs=0.0)

    def test_small_root_without_cancellation(self):
        # b = x^2 - x + 1e-20: the lower root 1e-20 (to 1e-20 relative) is
        # lost to cancellation in (beta2 - sqrt(beta2^2 - 4 beta3)) / 2
        lo, hi = steady_band(BetaCoefficients(0.0, 1.0, 1e-20), 1.0, 1.0)
        assert lo == pytest.approx(1e-20, rel=1e-15, abs=0.0)
        assert hi == 1.0

    @pytest.mark.parametrize("beta3", [-1.0, 0.0])
    def test_no_threshold_when_beta3_nonpositive(self, beta3):
        # b(D, 0) = beta3 <= 0 < beta2: a band from the origin at every D
        beta = BetaCoefficients(0.0, 1.0, beta3)
        assert steady_band_threshold(beta, 1.0) is None
        for D in (1e-3, 1.0, 1e3):
            band = steady_band(beta, D, 1.0)
            assert band is not None and band[0] == 0.0


class TestHopfBand:
    def test_case1_contains_origin(self):
        beta = beta_coefficients(CP_KIN, D1, CP_CO)
        d_star = D1.d(CP_CO.v)
        assert beta.beta1**2 - 4.0 * beta.beta3 == pytest.approx(
            -95.0 / 64.0, abs=1e-12
        )
        band = hopf_band(beta, 0.1, d_star)
        assert band is not None and band[0] == 0.0

    def test_case1_upper_edge_against_scan(self):
        beta = beta_coefficients(CP_KIN, D1, CP_CO)
        d_star = D1.d(CP_CO.v)
        lo, hi = hopf_band(beta, 0.1, d_star)
        assert hi == pytest.approx((0.7 + math.sqrt(0.7275)) / 0.16, rel=1e-12)
        xs = np.arange(0.0, 20.0, 1e-3)
        changes = sign_change_intervals(
            lambda x: beta.discriminant(0.1, d_star, x), xs
        )
        assert len(changes) == 1
        assert changes[0][0] <= hi <= changes[0][1]

    def test_constructed_empty_band(self):
        beta = BetaCoefficients(2.0, 2.0, 0.1)
        # beta1^2 - 4 beta3 > 0 and (D+d)beta1 - 2 beta2 < 0: no band
        D, d_star = 0.3, 0.5
        assert (D + d_star) * beta.beta1 - 2.0 * beta.beta2 < 0.0
        assert beta.discriminant(D, d_star, 0.0) > 0.0
        assert hopf_band(beta, D, d_star) is None
        xs = np.arange(0.0, 100.0, 0.05)
        assert not sign_change_intervals(
            lambda x: beta.discriminant(D, d_star, x), xs
        )

    def test_degenerate_equal_diffusivities_is_linear(self):
        beta = beta_coefficients(CP_KIN, D3, CP_CO)
        d_star = D3.d(CP_CO.v)
        assert d_star == 0.1
        band = hopf_band(beta, 0.1, d_star)
        assert band == (0.0, math.inf)
        for x in (0.0, 1.0, 100.0, 1e4):
            assert beta.discriminant(0.1, d_star, x) < 0.0

    def test_unbounded_band_far_from_the_origin(self):
        # D = d*: a^2 - 4b = -4e-20 x + 4 is negative past x = 1e20, where
        # x + 1 == x in floating point
        beta = BetaCoefficients(0.0, -1e-20, -1.0)
        band = hopf_band(beta, 1.0, 1.0)
        assert band == (pytest.approx(1e20, rel=1e-15), math.inf)
        assert beta.discriminant(1.0, 1.0, 2.0 * band[0]) < 0.0


class TestUnstableModes:
    def test_case1_mode_set(self):
        modes = unstable_modes(CP_KIN, D1, 0.1, CP_CO, 8 * math.pi)
        assert [m.n for m in modes] == [0, 1, 2, 3]
        assert all(m.klass is StabilityClass.HOPF_UNSTABLE for m in modes)

    def test_case3_mode_set(self):
        modes = unstable_modes(CP_KIN, D3, 0.1, CP_CO, 8 * math.pi)
        assert [m.n for m in modes] == [0, 1, 2, 3, 4, 5, 6]

    def test_case2_steady_modes_match_band(self):
        D = 1.0 / 4800.0
        modes = unstable_modes(CP_KIN, D2, D, CP_CO, 4 * math.pi)
        steady = [m.n for m in modes if m.klass is StabilityClass.STEADY_UNSTABLE]
        assert steady == list(range(12, 82))
        # oracle: per-mode sign of the determinant coefficient
        beta = beta_coefficients(CP_KIN, D2, CP_CO)
        d_star = D2.d(CP_CO.v)
        expected = [
            n
            for n in range(0, 120)
            if beta.b(D, d_star, (n / 4.0) ** 2) < 0.0
        ]
        assert steady == expected

    def test_case2_band_races_the_homogeneous_mode(self):
        # the README's case 2 numbers: the band's fastest mode grows at
        # 0.0626, at n = 31, barely faster than the n = 0 rate 1/16
        sys = linearize(CP_KIN, D2, 1.0 / 4800.0, CP_CO)
        ell = 4 * math.pi

        def rate(n):
            return max(r.real for r in dispersion(sys, n * math.pi / ell).rho)

        n_fast = max(range(12, 82), key=rate)
        assert rate(n_fast) == pytest.approx(0.06260, abs=1e-5)
        assert abs(n_fast - 31) <= 1
        assert rate(0) == pytest.approx(0.0625, abs=1e-12)
        assert 0.0 < rate(n_fast) - rate(0) < 2e-4

    def test_classification_stable_under_longer_scan(self):
        # the default cutoff drops no non-stable mode: scan twice as far
        for mot, D, ell in ((D1, 0.1, 8 * math.pi), (D2, 1 / 4800, 4 * math.pi)):
            base = unstable_modes(CP_KIN, mot, D, CP_CO, ell)
            default_cutoff = max(m.n for m in base) + 3
            sys = linearize(CP_KIN, mot, D, CP_CO)
            ks = [n * math.pi / ell for n in range(2 * default_cutoff + 1)]
            points = [dispersion(sys, k) for k in ks]
            wider = [
                (n, pt.klass)
                for n, pt in enumerate(points)
                if pt.klass is not StabilityClass.STABLE
            ]
            assert [(m.n, m.klass) for m in base] == wider


def _grid_rates(sys, ell, n_cells):
    """Re lambda of every grid mode, one ``dispersion`` call per mode at
    k = sqrt(kappa_n), kappa_n = (4/h^2) sin^2(n pi h/(2 ell))."""
    h = ell / n_cells
    return [
        max(r.real for r in dispersion(sys, 2.0 / h * math.sin(n * math.pi * h / (2.0 * ell))).rho)
        for n in range(n_cells)
    ]


class TestGridDecayRate:
    """grid_decay_rate is -max Re lambda over the grid's Neumann modes, in
    one vectorised pass; the per-mode dispersion loop is the oracle."""

    RM_PREY_ONLY = KineticsModel.rosenzweig_macarthur(1, 1, 1, 4, 1)
    LV_NODE = KineticsModel.lotka_volterra(1, 0.9, 0, 1, 1)

    @pytest.mark.parametrize(
        "kin, eq_kind, mot, D, ell, n_cells, slowest",
        [
            # case 2: the steady band's n = 31 grows faster than n = 0
            (CP_KIN, "coexistence", D2, 1.0 / 4800.0, 4 * math.pi, 256, 31),
            # case 1: Hopf modes n = 0..3, n = 0 fastest
            (CP_KIN, "coexistence", D1, 0.1, 8 * math.pi, 128, 0),
            # decay.ini: the predator's flat mode decays slowest
            (RM_PREY_ONLY, "prey_only", D1, 0.1, 4 * math.pi, 128, 0),
            # an LV node under d3: taxis makes n = 1 decay slower than n = 0
            (LV_NODE, "coexistence", D3, 1.0, 4 * math.pi, 64, 1),
        ],
        ids=["case2", "case1", "decay", "lv_node"],
    )
    def test_matches_the_per_mode_loop(self, kin, eq_kind, mot, D, ell, n_cells, slowest):
        sys = linearize(kin, mot, D, getattr(compute_equilibria(kin), eq_kind))
        rates = _grid_rates(sys, ell, n_cells)
        assert int(np.argmax(rates)) == slowest
        assert grid_decay_rate(sys, ell, n_cells) == pytest.approx(-max(rates), rel=1e-12)

    def test_prey_only_rate_is_theta_minus_gamma_F_K(self):
        kin = self.RM_PREY_ONLY
        sys = linearize(kin, D1, 0.1, compute_equilibria(kin).prey_only)
        rate = grid_decay_rate(sys, 4 * math.pi, 128)
        assert rate == pytest.approx(kin.theta - kin.gamma * float(kin.F(kin.K)), rel=1e-14)


class TestMinStabilizingD:
    def test_absent_when_homogeneous_mode_unstable(self):
        res = min_stabilizing_D(CP_KIN, D1, CP_CO, 8 * math.pi)
        assert res.D_min is None
        assert res.homogeneous_mode_unstable

    def test_degenerate_supremum_when_curves_negative(self):
        kin = KineticsModel.rosenzweig_macarthur(1.4, 1, 1, 4, 1)
        co = compute_equilibria(kin).coexistence
        res = min_stabilizing_D(kin, D1, co, 4 * math.pi)
        assert not res.homogeneous_mode_unstable
        assert res.D_min == 0.0
        # oracle: every curve value on a dense eta scan is negative, and a
        # tiny diffusivity already stabilizes every interval mode
        curve = bifurcation_curves(kin, D1, co, np.geomspace(1e-3, 1e4, 2000))
        assert np.all(np.maximum(curve.D_H, curve.D_S) < 0.0)
        assert unstable_modes(kin, D1, 1e-6, co, 4 * math.pi) == []

    def test_shrinking_interval_never_raises_threshold(self):
        kin = KineticsModel.rosenzweig_macarthur(1.4, 1, 1, 4, 1)
        co = compute_equilibria(kin).coexistence
        small = min_stabilizing_D(kin, D1, co, 0.1)
        large = min_stabilizing_D(kin, D1, co, 4 * math.pi)
        assert small.D_min <= large.D_min + 1e-15


@st.composite
def stable_rm_draw(draw):
    theta = draw(st.floats(0.2, 2.0))
    lam = draw(st.floats(0.3, 6.0))
    K = draw(st.floats(0.5, 8.0))
    frac = draw(st.floats(0.05, 0.95))
    lo = max((K - lam) / 2.0, 0.02 * K)
    v_star = lo + frac * (K - lo)
    assume(0.0 < v_star < 0.98 * K)
    gamma = theta * (lam + v_star) / v_star
    kin = KineticsModel.rosenzweig_macarthur(gamma, theta, 1.0, K, lam)
    co = compute_equilibria(kin).coexistence
    assume(co is not None)
    beta = beta_coefficients(kin, MotilityModel.d1(), co)
    assume(beta.beta1 < -1e-6)
    return kin, co


class TestStabilityProperties:
    @given(stable_rm_draw(), st.floats(1e-3, 2.0), st.floats(1.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_rm_stable_range_has_no_unstable_modes(self, kin_co, D, ell):
        kin, co = kin_co
        assert unstable_modes(kin, MotilityModel.d1(), D, co, ell) == []

    @given(
        st.floats(0.5, 4.0),
        st.floats(0.1, 1.5),
        st.floats(0.0, 1.0),
        st.floats(0.2, 3.0),
        st.floats(0.5, 6.0),
        st.floats(1e-3, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_lv_coexistence_stable_at_all_wavenumbers(
        self, gamma, theta, alpha, mu, K, D
    ):
        assume(gamma * K > 1.05 * theta)
        kin = KineticsModel.lotka_volterra(gamma, theta, alpha, mu, K)
        co = compute_equilibria(kin).coexistence
        sys = linearize(kin, MotilityModel.d1(), D, co)
        for k in np.linspace(0.0, 10.0, 60):
            assert dispersion(sys, k).klass is StabilityClass.STABLE


def _check_band(band, fn, tol, root_bound):
    """Inside a band fn is negative, and just past each finite end it is
    not; None only when a dense scan of [0, 10 * root_bound] finds no
    negative value.  tol(x), the rounding floor of fn(x), bounds each
    sign test."""
    if band is None:
        xs = np.linspace(0.0, 10.0 * max(root_bound, 1.0), 4001)
        assert np.all(fn(xs) >= -tol(xs))
        return
    lo, hi = band
    assert 0.0 <= lo < hi
    if math.isfinite(hi):
        inside = lo + (hi - lo) * np.linspace(0.1, 0.9, 9)
        step = 1e-6 * hi
        assert fn(hi + step) >= -tol(hi + step)
    else:
        inside = lo + max(lo, 1.0) * np.geomspace(1e-3, 1e3, 9)
        step = 1e-6 * max(lo, 1.0)
    assert np.all(fn(inside) < tol(inside))
    if lo > 0.0:
        past = lo - min(step, lo)
        assert fn(past) >= -tol(past)


def _root_bound(A, c1, c0):
    """Bound on |x| over the real roots of A x^2 - 2 c1 x + c0."""
    if A > 0.0:
        return 2.0 * abs(c1) / A + math.sqrt(abs(c0) / A)
    return abs(c0) / (2.0 * abs(c1)) if c1 != 0.0 else 0.0


# zero or of magnitude >= 1e-6, so that the roots, and the scan of a^2 - 4b
# past them, stay far below float overflow
BETA = st.one_of(st.just(0.0), st.floats(1e-6, 4.0), st.floats(-4.0, -1e-6))


class TestBandProperties:
    """steady_band and hopf_band against the sign of b and a^2 - 4b."""

    @given(
        BETA,
        BETA,
        BETA,
        st.floats(1e-3, 10.0),
        st.floats(1e-3, 10.0),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bands_match_sign_scans(self, beta1, beta2, beta3, D, d_star, equal):
        if equal:
            D = d_star
        beta = BetaCoefficients(beta1, beta2, beta3)

        def b(x):
            return beta.b(D, d_star, x)

        def b_tol(x):
            return 1e-12 * (d_star * D * x * x + abs(beta2) * x + abs(beta3))

        _check_band(
            steady_band(beta, D, d_star),
            b,
            b_tol,
            _root_bound(d_star * D, beta2 / 2.0, beta3),
        )

        def delta(x):
            return beta.a(D, d_star, x) ** 2 - 4.0 * b(x)

        def delta_tol(x):
            return 1e-12 * ((d_star + D) * x + abs(beta1)) ** 2 + 4.0 * b_tol(x)

        _check_band(
            hopf_band(beta, D, d_star),
            delta,
            delta_tol,
            _root_bound(
                (D - d_star) ** 2,
                (D + d_star) * beta1 - 2.0 * beta2,
                beta1**2 - 4.0 * beta3,
            ),
        )
