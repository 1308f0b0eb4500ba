import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import (
    SERIES_COLUMNS,
    modal_growth_rate,
    reference_lyapunov_v1,
    reference_lyapunov_v2,
    reference_rk4_step,
    reference_series,
    reference_stable_dt,
)
from preytaxis_lab.diagnostics import lyapunov_v1, lyapunov_v2
from preytaxis_lab.model import (
    _EXP_CAP,
    Equilibrium,
    EquilibriumKind,
    KineticsModel,
    MotilityModel,
    compute_equilibria,
)
from preytaxis_lab import solver
from preytaxis_lab._pcg64 import PCG64
from preytaxis_lab.solver import (
    BlowUpError,
    Grid1D,
    NonPhysicalError,
    Perturbation,
    SolverConfig,
    State,
    init_state,
    integrate,
    rhs,
    rk4_step,
    imex_step,
    stable_dt,
)

CP_KIN = KineticsModel.rosenzweig_macarthur(2, 1, 1, 4, 1)
CP_CO = compute_equilibria(CP_KIN).coexistence
D1 = MotilityModel.d1()


def zero_kinetics():
    z = lambda v: np.zeros_like(np.asarray(v, dtype=float))
    return KineticsModel.custom(0.0, 0.0, 0.0, 0.0, 1.0, z, z, z, z)


def cp_config(**over):
    base = dict(
        kin=CP_KIN,
        mot=D1,
        D=0.1,
        grid=Grid1D(8 * math.pi, 64),
        t_end=1.0,
        base_state=CP_CO,
        perturbation=Perturbation(0.01, 0),
    )
    base.update(over)
    return SolverConfig(**base)


class TestInitState:
    def test_zero_epsilon_reproduces_base(self):
        cfg = cp_config(perturbation=Perturbation(0.0, 99))
        st = init_state(cfg)
        assert np.all(st.u == CP_CO.u)
        assert np.all(st.v == CP_CO.v)

    def test_seed_determinism(self):
        a = init_state(cp_config(perturbation=Perturbation(0.01, 42)))
        b = init_state(cp_config(perturbation=Perturbation(0.01, 42)))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        c = init_state(cp_config(perturbation=Perturbation(0.01, 43)))
        assert not np.array_equal(a.u, c.u)

    def test_amplitude_bound(self):
        st = init_state(cp_config(perturbation=Perturbation(0.01, 5)))
        assert np.max(np.abs(st.u - 1.5)) <= 0.015 + 1e-15
        assert np.max(np.abs(st.v - 1.0)) <= 0.01 + 1e-15

    def test_zero_base_component_gets_additive_floor(self):
        kin = KineticsModel.rosenzweig_macarthur(1, 1, 1, 4, 1)
        prey = compute_equilibria(kin).prey_only
        cfg = cp_config(kin=kin, base_state=prey, perturbation=Perturbation(0.01, 7))
        st = init_state(cfg)
        assert np.all(st.u >= 0.0)
        assert 0.0 < st.u.max() <= 0.01 * kin.K
        assert np.max(np.abs(st.v - 4.0)) <= 0.04 + 1e-15

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 5, 42, 12345, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0xFEDCBA987654321],
    )
    def test_perturbation_is_numpy_default_rng_stream(self, seed):
        kin = KineticsModel.rosenzweig_macarthur(1, 1, 1, 4, 1)
        prey = compute_equilibria(kin).prey_only
        for n in (8, 128, 256):
            rng = np.random.default_rng(seed)
            xi = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
            gen = PCG64(seed)
            assert np.array_equal(gen.uniform(-1.0, 1.0, n), xi[0])
            assert np.array_equal(gen.uniform(-1.0, 1.0, n), xi[1])
            grid = Grid1D(8 * math.pi, n)
            st = init_state(cp_config(grid=grid, perturbation=Perturbation(0.3, seed)))
            assert np.array_equal(st.u, CP_CO.u * (1.0 + 0.3 * xi[0]))
            assert np.array_equal(st.v, CP_CO.v * (1.0 + 0.3 * xi[1]))
            # a zero predator base takes the additive branch
            st = init_state(
                cp_config(kin=kin, grid=grid, base_state=prey, perturbation=Perturbation(0.3, seed))
            )
            assert np.array_equal(st.u, 0.0 + 0.3 * kin.K * 0.5 * (1.0 + xi[0]))
            assert np.array_equal(st.v, prey.v * (1.0 + 0.3 * xi[1]))

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            init_state(cp_config(perturbation=Perturbation(0.01, -1)))


class TestRhs:
    def test_zero_at_equilibrium(self):
        cfg = cp_config(perturbation=Perturbation(0.0, 0))
        du, dv = rhs(init_state(cfg), cfg)
        assert np.max(np.abs(du)) < 1e-14
        assert np.max(np.abs(dv)) < 1e-14

    def test_flux_form_conserves_mass_without_kinetics(self):
        grid = Grid1D(4 * math.pi, 64)
        x = grid.centers()
        u0 = 1.0 + 0.5 * np.cos(2 * math.pi * x / grid.ell)
        v0 = 2.0 + 0.3 * np.cos(math.pi * x / grid.ell)
        cfg = SolverConfig(
            kin=zero_kinetics(),
            mot=D1,
            D=0.1,
            grid=grid,
            t_end=1.0,
            base_state=(u0, v0),
            perturbation=Perturbation(0.0, 0),
        )
        du, dv = rhs(State(0.0, u0, v0), cfg)
        assert abs(grid.h * np.sum(du)) < 1e-13
        assert abs(grid.h * np.sum(dv)) < 1e-13

    def test_rejects_nonfinite_state(self):
        cfg = cp_config()
        u = np.full(64, np.nan)
        with pytest.raises(ValueError):
            rhs(State(0.0, u, np.ones(64)), cfg)

    def test_single_mode_growth_matches_dispersion(self):
        # n = 1 mode on [0, 8 pi]: measured modal growth vs eigenvalue
        slope, rho = modal_growth_rate(
            CP_KIN, D1, 0.1, CP_CO, 8 * math.pi, 256, n_mode=1, horizon=20.0
        )
        h = 8 * math.pi / 256
        tol = max(0.05, 10 * h * h) * abs(rho.real)
        assert abs(slope - rho.real) <= tol

    def test_stable_mode_decay_depends_on_taxis(self):
        # real-eigenvalue mode whose rate is set by the determinant
        # coefficient, hence by the taxis term: a sign error in the taxis
        # flux would turn this decay into growth
        mot = MotilityModel.d2()
        slope, rho = modal_growth_rate(
            CP_KIN, mot, 1.0 / 4800.0, CP_CO, 4 * math.pi, 256,
            n_mode=10, horizon=30.0,
        )
        assert rho.real < 0
        assert slope < 0
        assert abs(slope - rho.real) <= 0.1 * abs(rho.real)

    def test_flux_equals_motility_laplacian_when_chi_is_minus_dprime(self):
        # with chi = -d' the u-flux is algebraically d(v) du/dx + u d(v)'
        # = d/dx (d(v) u); compare against that form under grid refinement
        def flux_mismatch(n):
            grid = Grid1D(2 * math.pi, n)
            x = grid.centers()
            u = 1.5 + 0.4 * np.cos(x)
            v = 1.0 + 0.3 * np.cos(2 * x)
            h = grid.h
            vf = 0.5 * (v[1:] + v[:-1])
            uf = 0.5 * (u[1:] + u[:-1])
            generic = D1.d(vf) * np.diff(u) / h - uf * D1.chi(vf) * np.diff(v) / h
            product = np.diff(D1.d(v) * u) / h
            return np.max(np.abs(generic - product))

        coarse, fine = flux_mismatch(64), flux_mismatch(128)
        assert coarse / fine > 3.5  # second-order agreement
        assert fine < 1e-3


class TestStableDt:
    def test_diffusion_limited_example(self):
        grid = Grid1D(1.6, 16)
        cfg = SolverConfig(
            kin=CP_KIN, mot=D1, D=0.1, grid=grid, t_end=1.0,
            base_state=(np.ones(16), np.zeros(16)),
            perturbation=Perturbation(0.0, 0),
        )
        st = State(0.0, np.ones(16), np.zeros(16))
        d_max = D1.d(0.0)
        expected = 0.4 * 0.01 / (2 * d_max)
        assert stable_dt(st, cfg) == pytest.approx(expected, rel=1e-12)
        assert stable_dt(st, cfg) == pytest.approx(2.27e-3, rel=2e-2)

    def test_halving_h_quarters_dt(self):
        st16 = State(0.0, np.ones(16), np.ones(16))
        st32 = State(0.0, np.ones(32), np.ones(32))
        cfg16 = cp_config(grid=Grid1D(1.6, 16))
        cfg32 = cp_config(grid=Grid1D(1.6, 32))
        assert stable_dt(st16, cfg16) == pytest.approx(
            4 * stable_dt(st32, cfg32), rel=1e-12
        )

    def test_advective_bound_activates(self):
        # steep prey gradient: w = chi * dv/h large
        grid = Grid1D(1.6, 16)
        v = np.zeros(16)
        v[8:] = 40.0  # jump makes |dv|/h = 400 at one face
        chi_const = 10.0 * grid.h / 40.0  # w_max = chi * 400 = 10
        mot = MotilityModel.constant(0.05, chi_const=chi_const)
        cfg = SolverConfig(
            kin=CP_KIN, mot=mot, D=0.01, grid=grid, t_end=1.0,
            base_state=(np.ones(16), v), perturbation=Perturbation(0.0, 0),
        )
        st = State(0.0, np.ones(16), v)
        assert stable_dt(st, cfg) == pytest.approx(0.4 * grid.h / 10.0, rel=1e-12)


class TestIntegrate:
    def test_mass_conservation_without_kinetics(self):
        grid = Grid1D(4 * math.pi, 64)
        x = grid.centers()
        u0 = 1.0 + 0.5 * np.cos(2 * math.pi * x / grid.ell)
        v0 = 2.0 + 0.3 * np.cos(math.pi * x / grid.ell)
        cfg = SolverConfig(
            kin=zero_kinetics(), mot=D1, D=0.1, grid=grid, t_end=1.0,
            base_state=(u0, v0), perturbation=Perturbation(0.0, 0),
        )
        dt = stable_dt(State(0.0, u0, v0), cfg)
        u, v = u0.copy(), v0.copy()
        m_u0, m_v0 = grid.h * np.sum(u), grid.h * np.sum(v)
        for _ in range(10_000):
            u, v = rk4_step(cfg, u, v, dt)
        assert abs(grid.h * np.sum(u) - m_u0) < 1e-11
        assert abs(grid.h * np.sum(v) - m_v0) < 1e-11
        assert u.min() > -1e-12 and v.min() > -1e-12

    def test_homogeneous_stays_homogeneous_and_matches_ode(self):
        cfg = cp_config(
            base_state=(np.full(64, 1.2), np.full(64, 0.8)),
            perturbation=Perturbation(0.0, 0),
            t_end=10.0,
            series_count=100,
            snapshot_count=5,
        )
        traj = integrate(cfg)
        for st in traj.snapshots:
            assert np.std(st.u) < 1e-10
            assert np.std(st.v) < 1e-10
        sol = solve_ivp(
            lambda t, y: [
                CP_KIN.gamma * y[0] * CP_KIN.F(y[1])
                - CP_KIN.theta * y[0],
                CP_KIN.f(y[1]) - y[0] * CP_KIN.F(y[1]),
            ],
            (0.0, 10.0),
            [1.2, 0.8],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        last = traj.snapshots[-1]
        ref = sol.sol(last.t)
        assert abs(last.u[0] - ref[0]) < 1e-6
        assert abs(last.v[0] - ref[1]) < 1e-6

    def test_snapshots_strictly_increasing_and_aligned(self):
        cfg = cp_config(t_end=2.0, snapshot_count=5, series_count=20)
        traj = integrate(cfg)
        ts = [s.t for s in traj.snapshots]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert ts == pytest.approx(list(np.linspace(0, 2, 5)), abs=1e-12)
        assert traj.series.t[0] == 0.0 and traj.series.t[-1] == 2.0

    def test_decay_run_drives_predators_out(self):
        kin = KineticsModel.rosenzweig_macarthur(1, 1, 1, 4, 1)
        eqs = compute_equilibria(kin)
        cfg = SolverConfig(
            kin=kin, mot=D1, D=0.1, grid=Grid1D(4 * math.pi, 64), t_end=40.0,
            base_state=eqs.prey_only, perturbation=Perturbation(0.01, 3),
            series_count=100, snapshot_count=5,
        )
        traj = integrate(cfg)
        assert traj.series.max_u[-1] < 1e-4
        assert traj.series.max_u[-1] < 1e-3 * traj.series.max_u[0]
        assert traj.series.max_v.max() <= 4.0 * (1 + 1e-6) * 1.01

    def test_v2_is_nan_without_predator_growth(self):
        # gamma = 0 makes both functionals undefined; the run still completes
        base = Equilibrium(1.0, 2.0, EquilibriumKind.COEXISTENCE, 0.0)
        traj = integrate(cp_config(kin=zero_kinetics(), base_state=base))
        assert traj.status == "ok"
        assert np.all(np.isnan(traj.series.V1)) and np.all(np.isnan(traj.series.V2))

    def test_blowup_raises_with_partial_trajectory(self):
        grow = KineticsModel.custom(
            0.0, 0.0, 0.0, 1.0, 4.0,
            F=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
            F_prime=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
            f=lambda v: np.asarray(v, dtype=float) ** 2,
            f_prime=lambda v: 2.0 * np.asarray(v, dtype=float),
        )
        cfg = SolverConfig(
            kin=grow, mot=D1, D=0.1, grid=Grid1D(4.0, 16), t_end=5.0,
            base_state=(np.ones(16), np.full(16, 4.0)),
            perturbation=Perturbation(0.0, 0), series_count=50, snapshot_count=5,
        )
        with pytest.raises(BlowUpError) as exc:
            integrate(cfg)
        assert exc.value.trajectory.status == "blowup"
        assert exc.value.trajectory.series.t.size >= 1

    def test_rk4_imex_agree_on_case1(self):
        grid = Grid1D(8 * math.pi, 128)
        kwargs = dict(
            kin=CP_KIN, mot=D1, D=0.1, grid=grid, t_end=1.0, base_state=CP_CO,
            perturbation=Perturbation(0.01, 11), series_count=10, snapshot_count=3,
        )
        t_rk4 = integrate(SolverConfig(scheme="rk4", **kwargs))
        t_imex = integrate(SolverConfig(scheme="imex", **kwargs))
        du = np.max(np.abs(t_rk4.snapshots[-1].u - t_imex.snapshots[-1].u))
        dv = np.max(np.abs(t_rk4.snapshots[-1].v - t_imex.snapshots[-1].v))
        assert max(du, dv) < 1e-4

    def test_imex_step_matches_rk4_step_to_first_order(self):
        cfg = cp_config()
        st = init_state(cfg)
        dt = 1e-5
        u_a, v_a = rk4_step(cfg, st.u, st.v, dt)
        u_b, v_b = imex_step(cfg, st.u, st.v, dt)
        assert np.max(np.abs(u_a - u_b)) < 1e-8
        assert np.max(np.abs(v_a - v_b)) < 1e-8

    def test_grid_convergence_order(self):
        # smooth single-mode start integrated to t = 1
        def solve(n):
            grid = Grid1D(4 * math.pi, n)
            x = grid.centers()
            u0 = CP_CO.u * (1.0 + 0.05 * np.cos(math.pi * x / grid.ell))
            v0 = CP_CO.v * (1.0 + 0.05 * np.cos(math.pi * x / grid.ell))
            cfg = SolverConfig(
                kin=CP_KIN, mot=D1, D=0.1, grid=grid, t_end=1.0,
                base_state=(u0, v0), perturbation=Perturbation(0.0, 0),
                series_count=4, snapshot_count=2,
            )
            return integrate(cfg).snapshots[-1]


        s64, s128, s256 = solve(64), solve(128), solve(256)
        restrict = lambda arr: 0.5 * (arr[0::2] + arr[1::2])
        e_coarse = np.max(np.abs(s64.u - restrict(s128.u)))
        e_fine = np.max(np.abs(s128.u - restrict(s256.u)))
        order = math.log2(e_coarse / e_fine)
        assert order >= 1.9


class TestGridValidation:
    def test_minimum_cells(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 4)

    @pytest.mark.parametrize("ell", [math.nan, math.inf, -math.inf])
    def test_grid_rejects_non_finite_length(self, ell):
        with pytest.raises(ValueError):
            Grid1D(ell, 16)

    @pytest.mark.parametrize("epsilon, seed", [(math.nan, 0), (math.inf, 0), (0.01, -1)])
    def test_perturbation_rejects_bad_input(self, epsilon, seed):
        with pytest.raises(ValueError):
            Perturbation(epsilon, seed)

    @pytest.mark.parametrize(
        "over", [{"t_end": math.nan}, {"t_end": math.inf}, {"D": math.nan}, {"D": math.inf}]
    )
    def test_config_rejects_non_finite_input(self, over):
        with pytest.raises(ValueError):
            cp_config(**over)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cp_config(t_end=-1.0)
        with pytest.raises(ValueError):
            cp_config(cfl_safety=1.5)
        with pytest.raises(ValueError):
            cp_config(scheme="euler")
        with pytest.raises(ValueError):
            SolverConfig(
                kin=CP_KIN, mot=D1, D=0.1, grid=Grid1D(1.0, 16), t_end=1.0,
                base_state=(np.ones(8), np.ones(8)),
                perturbation=Perturbation(0.0, 0),
            ).base_arrays()


def _holling3():
    a = lambda v: np.asarray(v, dtype=float)
    return KineticsModel.custom(
        2.0, 1.0, 0.1, 1.0, 4.0,
        F=lambda v: a(v) ** 2 / (1.0 + a(v) ** 2),
        F_prime=lambda v: 2.0 * a(v) / (1.0 + a(v) ** 2) ** 2,
        f=lambda v: a(v) * (1.0 - a(v) / 4.0),
        f_prime=lambda v: 1.0 - a(v) / 2.0,
    )


MOTILITIES = {
    "d1": D1,
    "d2": MotilityModel.d2(),
    "d3": MotilityModel.d3(),
    "constant": MotilityModel.constant(0.2, chi_const=0.4),
}

KINETICS = {
    "lv": lambda: KineticsModel.lotka_volterra(2.0, 1.0, 0.1, 1.0, 4.0),
    "rm": lambda: CP_KIN,
    "custom": _holling3,
}


class TestFusedKernel:
    """The fused right-hand side and RK4 step against a copy of the
    original np.diff / separate-d-and-chi implementation."""

    @pytest.mark.parametrize("kin_name", sorted(KINETICS))
    @pytest.mark.parametrize("mot_name", sorted(MOTILITIES))
    def test_rk4_bit_identical_after_50_steps(self, mot_name, kin_name):
        kin = KINETICS[kin_name]()
        cfg = cp_config(
            kin=kin,
            mot=MOTILITIES[mot_name],
            base_state=(np.full(64, 1.2), np.full(64, 1.5)),
            perturbation=Perturbation(0.2, 3),
        )
        st = init_state(cfg)
        dt = stable_dt(st, cfg)
        u, v = st.u, st.v
        u_ref, v_ref = st.u, st.v
        for _ in range(50):
            u, v = rk4_step(cfg, u, v, dt)
            u_ref, v_ref = reference_rk4_step(cfg, u_ref, v_ref, dt)
        assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
        assert np.max(np.abs(u - st.u)) > 1e-6  # the state did move

    @pytest.mark.parametrize("mot_name", sorted(MOTILITIES))
    def test_d_and_chi_equals_separate_evaluations(self, mot_name):
        mot = MOTILITIES[mot_name]
        # 1e4 and -1e4 drive the exponent past its cap and to 0
        assert 0.1 * (1e4 - 1.0) > _EXP_CAP
        for v in (0.0, 0.7, 1.0, 3.5, 1e4, -1e4):
            d, chi = mot.d_and_chi(v)
            assert np.ndim(d) == 0 and np.ndim(chi) == 0
            assert d == mot.d(v) and chi == mot.chi(v)
        v = np.concatenate([np.linspace(0.0, 10.0, 101), [1e4, 3e4, -1e4]])
        d, chi = mot.d_and_chi(v)
        assert np.array_equal(d, mot.d(v)) and np.array_equal(chi, mot.chi(v))

    @pytest.mark.parametrize("kin_name", sorted(KINETICS))
    @pytest.mark.parametrize("mot_name", sorted(MOTILITIES))
    def test_stable_dt_bit_identical(self, mot_name, kin_name):
        cfg = cp_config(
            kin=KINETICS[kin_name](),
            mot=MOTILITIES[mot_name],
            base_state=(np.full(64, 1.2), np.full(64, 1.5)),
            perturbation=Perturbation(0.2, 3),
        )
        st = init_state(cfg)
        u, v = st.u, st.v
        dt = reference_stable_dt(st, cfg)
        assert stable_dt(st, cfg) == dt
        for _ in range(20):
            u, v = rk4_step(cfg, u, v, dt)
        later = State(0.0, u, v)
        assert stable_dt(later, cfg) == reference_stable_dt(later, cfg)
        # a steep rough prey front centred on v = 1, where the advective
        # bound h/w_max is the smaller one for every motility
        rough = np.random.default_rng(5).uniform(-1.0, 1.0, 64)
        front = State(0.0, u, 1.0 + 150.0 * np.tanh(np.arange(64) - 31.5) + rough)
        h = cfg.grid.h
        dt_diff = h * h / (2.0 * max(np.max(cfg.mot.d(front.v)), cfg.D))
        assert reference_stable_dt(front, cfg) < cfg.cfl_safety * dt_diff
        assert stable_dt(front, cfg) == reference_stable_dt(front, cfg)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize(
        "make_kin",
        [
            lambda a: KineticsModel.lotka_volterra(2.0, 1.0, a, 1.0, 4.0),
            lambda a: KineticsModel.rosenzweig_macarthur(2.0, 1.0, 1.0, 4.0, 1.0, alpha=a),
        ],
        ids=["lv", "rm"],
    )
    def test_rk4_bit_identical_for_either_alpha(self, make_kin, alpha):
        cfg = cp_config(
            kin=make_kin(alpha),
            base_state=(np.full(64, 1.2), np.full(64, 1.5)),
            perturbation=Perturbation(0.2, 3),
        )
        st = init_state(cfg)
        dt = stable_dt(st, cfg)
        u, v = u_ref, v_ref = st.u, st.v
        for _ in range(50):
            u, v = rk4_step(cfg, u, v, dt)
            u_ref, v_ref = reference_rk4_step(cfg, u_ref, v_ref, dt)
        assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
        assert np.max(np.abs(u - st.u)) > 1e-6


class TestWorkspace:
    """The RK4 workspace is scratch: nothing a caller holds may alias it,
    and each config has its own."""

    def _start(self, cfg):
        st = init_state(cfg)
        return st.u, st.v, stable_dt(st, cfg)

    def test_results_survive_later_calls(self):
        cfg = cp_config(perturbation=Perturbation(0.2, 1))
        u, v, dt = self._start(cfg)
        u1, v1 = rk4_step(cfg, u, v, dt)
        du, dv = rhs(State(0.0, u, v), cfg)
        kept = [x.copy() for x in (u1, v1, du, dv)]
        u2, v2 = rk4_step(cfg, u1, v1, dt)
        rhs(State(0.0, u2, v2), cfg)
        rk4_step(cfg, u2, v2, dt)
        for x, x_kept in zip((u1, v1, du, dv), kept):
            assert np.array_equal(x, x_kept)
        assert not np.array_equal(u2, u1)

    def test_mutated_result_does_not_leak_into_later_steps(self):
        cfg = cp_config(perturbation=Perturbation(0.2, 1))
        u, v, dt = self._start(cfg)
        u1, v1 = rk4_step(cfg, u, v, dt)
        fresh = [x.copy() for x in (u1, v1)]
        u1[13], v1[40] = 5.0, 0.25
        u2, v2 = rk4_step(cfg, u1, v1, dt)
        u_ref, v_ref = reference_rk4_step(cfg, u1.copy(), v1.copy(), dt)
        assert np.array_equal(u2, u_ref) and np.array_equal(v2, v_ref)
        # the mutation stays in the caller's arrays
        u1_again, v1_again = rk4_step(cfg, u, v, dt)
        assert np.array_equal(u1_again, fresh[0]) and np.array_equal(v1_again, fresh[1])

    def _run(self, cfg, n_steps, other=None):
        u, v, dt = self._start(cfg)
        if other is not None:
            uo, vo, dto = self._start(other)
        for _ in range(n_steps):
            u, v = rk4_step(cfg, u, v, dt)
            if other is not None:
                uo, vo = rk4_step(other, uo, vo, dto)
        return u, v

    def test_replaced_configs_step_independently(self):
        a = cp_config(perturbation=Perturbation(0.2, 1))
        rk4_step(a, *self._start(a))  # a has built its workspace
        b = dataclasses.replace(a, D=0.7)
        alone_a = self._run(a, 30)
        alone_b = self._run(b, 30)
        assert not np.array_equal(alone_a[1], alone_b[1])
        mixed_a = self._run(a, 30, other=b)
        mixed_b = self._run(b, 30, other=a)
        assert all(np.array_equal(x, y) for x, y in zip(mixed_a, alone_a))
        assert all(np.array_equal(x, y) for x, y in zip(mixed_b, alone_b))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))])
    def test_copied_config_steps_like_the_original(self, clone):
        cfg = cp_config(perturbation=Perturbation(0.2, 1))
        expected = {n: self._run(dataclasses.replace(cfg), n) for n in (3, 10)}
        self._run(cfg, 10)  # cfg's workspace now holds the tenth step
        twin = clone(cfg)
        for n, (u, v) in expected.items():
            u_twin, v_twin = self._run(twin, n)
            assert np.array_equal(u_twin, u) and np.array_equal(v_twin, v)
        u_cfg, v_cfg = self._run(cfg, 3, other=twin)
        assert np.array_equal(u_cfg, expected[3][0]) and np.array_equal(v_cfg, expected[3][1])


class TestStableDtInTheWorkspace:
    """stable_dt shares the config's workspace with rhs and rk4_step: calls
    interleaved on one config give what separate configs give."""

    @pytest.mark.parametrize("mot", list(MOTILITIES.values()), ids=list(MOTILITIES))
    def test_interleaved_calls_match_separate_configs(self, mot):
        cfg = cp_config(mot=mot, perturbation=Perturbation(0.2, 1))
        steps_only, dt_only, rhs_only = (dataclasses.replace(cfg) for _ in range(3))
        st = init_state(cfg)
        dt = stable_dt(st, cfg)
        assert dt == stable_dt(st, dt_only) == reference_stable_dt(st, cfg)
        u, v = st.u, st.v
        u_ref, v_ref = st.u, st.v
        for _ in range(8):
            u, v = rk4_step(cfg, u, v, dt)
            dt_mid = stable_dt(State(0.0, u, v), cfg)
            du, dv = rhs(State(0.0, u, v), cfg)
            kept = [x.copy() for x in (u, v, du, dv)]
            assert stable_dt(State(0.0, u, v), cfg) == dt_mid
            u_ref, v_ref = rk4_step(steps_only, u_ref, v_ref, dt)
            assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
            assert dt_mid == stable_dt(State(0.0, u, v), dt_only)
            assert dt_mid == reference_stable_dt(State(0.0, u, v), cfg)
            du_ref, dv_ref = rhs(State(0.0, u, v), rhs_only)
            assert np.array_equal(du, du_ref) and np.array_equal(dv, dv_ref)
            # nothing the caller holds was overwritten by the later calls
            assert all(np.array_equal(x, y) for x, y in zip((u, v, du, dv), kept))
        assert not np.array_equal(u, st.u)

    def test_rhs_and_stable_dt_allocate_no_cell_arrays(self):
        import tracemalloc

        n = 4096
        cfg = cp_config(
            grid=Grid1D(8 * math.pi, n),
            base_state=(np.full(n, CP_CO.u), np.full(n, CP_CO.v)),
            perturbation=Perturbation(0.2, 1),
        )
        st = init_state(cfg)
        stable_dt(st, cfg)  # builds the workspace
        tracemalloc.start()
        try:
            solver._rhs_arrays(cfg, st.u, st.v)
            stable_dt(st, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n / 4  # far below one array of n floats

    def test_rk4_step_allocates_only_its_result(self):
        import tracemalloc

        n = 4096
        cfg = cp_config(
            grid=Grid1D(8 * math.pi, n),
            base_state=(np.full(n, CP_CO.u), np.full(n, CP_CO.v)),
            perturbation=Perturbation(0.2, 1),
        )
        st = init_state(cfg)
        dt = stable_dt(st, cfg)  # builds the workspace
        tracemalloc.start()
        try:
            y = rk4_step(cfg, st.u, st.v, dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.shape == (2, n)
        assert peak < 1.25 * 16 * n  # the (2, n) result and nothing cell-sized besides


def _injecting(monkeypatch, at_step, field, cell, value):
    """Rebind solver.rk4_step so that the given step's result carries
    ``value`` at ``field[cell]``."""
    original = solver.rk4_step
    calls = []

    def step(cfg, u, v, dt):
        u, v = original(cfg, u, v, dt)
        calls.append(dt)
        if len(calls) == at_step:
            (u if field == "u" else v)[cell] = value
        return u, v

    monkeypatch.setattr(solver, "rk4_step", step)
    return calls


class TestStepGuard:
    @pytest.mark.parametrize(
        "field,value", [("u", np.nan), ("v", np.nan), ("u", -np.inf), ("v", -np.inf), ("u", np.inf)]
    )
    def test_non_finite_state_is_a_blowup(self, monkeypatch, field, value):
        calls = _injecting(monkeypatch, 7, field, 13, value)
        with pytest.raises(BlowUpError) as exc:
            integrate(cp_config())
        err = exc.value
        assert err.trajectory.status == "blowup"
        assert (err.guard, err.field, err.cell) == ("non-finite", field, 13)
        assert err.value == value or (math.isnan(err.value) and math.isnan(value))
        assert err.t == pytest.approx(sum(calls), rel=1e-12)

    def test_non_finite_wins_over_negativity(self, monkeypatch):
        original = solver.rk4_step

        def step(cfg, u, v, dt):
            u, v = original(cfg, u, v, dt)
            u[2], v[40] = -1.0, np.nan
            return u, v

        monkeypatch.setattr(solver, "rk4_step", step)
        with pytest.raises(BlowUpError) as exc:
            integrate(cp_config())
        assert (exc.value.guard, exc.value.field, exc.value.cell) == ("non-finite", "v", 40)

    def test_negative_density_names_the_cell(self, monkeypatch):
        calls = _injecting(monkeypatch, 3, "v", 21, -1e-3)
        with pytest.raises(NonPhysicalError) as exc:
            integrate(cp_config())
        err = exc.value
        assert err.trajectory.status == "nonphysical"
        assert (err.guard, err.field, err.cell, err.value) == ("negativity", "v", 21, -1e-3)
        assert err.t == pytest.approx(sum(calls), rel=1e-12)
        assert "negativity guard tripped by v[21]" in str(err)


class TestLookupAtCallTime:
    """integrate looks up rk4_step and stable_dt, and rk4_step looks up
    _rhs_arrays, in the solver module at call time, so wrappers bound there
    by name see every call; wrappers may return (u, v) and (du, dv) pairs
    where the program returns stacked arrays."""

    def test_pair_returning_wrappers_leave_integrate_bit_identical(self, monkeypatch):
        cfg = cp_config(
            t_end=0.5, series_count=6, snapshot_count=3, perturbation=Perturbation(0.2, 1)
        )
        expected = integrate(dataclasses.replace(cfg))
        rhs_arrays, step, step_size = solver._rhs_arrays, solver.rk4_step, solver.stable_dt
        calls = {"rhs": 0, "step": 0, "dt": []}

        def rhs_pair(cfg, u, v):
            calls["rhs"] += 1
            du, dv = rhs_arrays(cfg, u, v)
            return du * 1.0, dv * 1.0

        def step_pair(cfg, u, v, dt):
            calls["step"] += 1
            u, v = step(cfg, u, v, dt)
            return u, v

        def counted_stable_dt(state, cfg):
            dt = step_size(state, cfg)
            calls["dt"].append((state.t, dt))
            return dt

        monkeypatch.setattr(solver, "_rhs_arrays", rhs_pair)
        monkeypatch.setattr(solver, "rk4_step", step_pair)
        monkeypatch.setattr(solver, "stable_dt", counted_stable_dt)
        traj = integrate(cfg)
        for got, ref in zip(traj.snapshots, expected.snapshots, strict=True):
            assert got.t == ref.t and np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v)
        _assert_series_equal(traj.series, vars(expected.series))
        # one stable_dt per output interval, ceil(interval / dt) steps in
        # it and four right-hand sides per step
        events = np.union1d(
            np.linspace(0.0, cfg.t_end, cfg.series_count),
            np.linspace(0.0, cfg.t_end, cfg.snapshot_count),
        )
        assert [t for t, _ in calls["dt"]] == list(events[:-1])
        n_steps = sum(
            max(1, math.ceil((t_next - t) / dt)) for (t, dt), t_next in zip(calls["dt"], events[1:])
        )
        assert n_steps > len(calls["dt"])
        assert calls["step"] == n_steps and calls["rhs"] == 4 * n_steps


class TestGuardErrorDetail:
    def test_blowup_reports_the_failing_substep(self):
        grow = KineticsModel.custom(
            0.0, 0.0, 0.0, 1.0, 4.0,
            F=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
            F_prime=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
            f=lambda v: np.asarray(v, dtype=float) ** 2,
            f_prime=lambda v: 2.0 * np.asarray(v, dtype=float),
        )
        cfg = SolverConfig(
            kin=grow, mot=D1, D=0.1, grid=Grid1D(4.0, 16), t_end=5.0,
            base_state=(np.ones(16), np.full(16, 4.0)),
            perturbation=Perturbation(0.0, 0), series_count=50, snapshot_count=5,
        )
        with pytest.raises(BlowUpError) as exc:
            integrate(cfg)
        err = exc.value
        t_last = err.trajectory.series.t[-1]
        interval = cfg.t_end / (cfg.series_count - 1)
        # the error names the step that failed, not the last good output
        assert t_last < err.t <= t_last + interval
        assert err.guard in ("blow-up limit", "non-finite") and err.field == "v"
        assert 0 <= err.cell < 16
        assert not err.value <= 1e6
        assert f"v[{err.cell}]" in str(err)


def _assert_series_equal(series, ref):
    for name in SERIES_COLUMNS:
        assert np.array_equal(getattr(series, name), ref[name], equal_nan=True), name


def _states(traj):
    return [(st.t, st.u, st.v) for st in traj.snapshots]


def _series_params():
    for mot in sorted(MOTILITIES):
        for kin in sorted(KINETICS):
            for count in (500, 37):
                # quadrature makes custom kinetics over 500 rows take seconds
                slow = kin == "custom" and count == 500
                yield pytest.param(mot, kin, count, marks=[pytest.mark.slow] if slow else [])


class TestSeriesRecorder:
    """The block recorder against the per-state reference in helpers:
    every column equal, NaN positions included."""

    @pytest.mark.parametrize("mot_name, kin_name, count", list(_series_params()))
    def test_integrate_series_matches_reference(self, mot_name, kin_name, count):
        kin = KINETICS[kin_name]()
        cfg = cp_config(
            kin=kin,
            mot=MOTILITIES[mot_name],
            grid=Grid1D(8 * math.pi, 8 if kin_name == "custom" else 256),
            base_state=compute_equilibria(kin).coexistence,
            perturbation=Perturbation(0.05, 3),
            series_count=count,
            snapshot_count=count,
        )
        traj = integrate(cfg)
        assert traj.series.t.size == count
        _assert_series_equal(traj.series, reference_series(cfg, _states(traj)))

    def test_partial_series_of_a_guard_trip(self):
        cfg = cp_config(
            mot=MotilityModel.constant(0.01, chi_const=1.0),
            perturbation=Perturbation(0.5, 0),
            series_count=500,
            snapshot_count=500,
        )
        with pytest.raises(NonPhysicalError) as exc:
            integrate(cfg)
        traj = exc.value.trajectory
        assert traj.series.t.size > 16 and traj.series.t.size % 16 != 0
        _assert_series_equal(traj.series, reference_series(cfg, _states(traj)))

    @pytest.mark.parametrize("kin_name", sorted(KINETICS))
    def test_nonpositive_rows_get_nan_where_the_reference_does(self, kin_name):
        kin = KINETICS[kin_name]()
        n = 8 if kin_name == "custom" else 64
        cfg = cp_config(
            kin=kin,
            grid=Grid1D(8 * math.pi, n),
            base_state=compute_equilibria(kin).coexistence,
            series_count=40,
        )
        y = np.random.default_rng(11).uniform(0.5, 2.0, (40, 2, n))
        # (row, field, value): zero or slightly negative cells in three blocks;
        # u (field 0) in rows 3, 4, 17, 30 and v (field 1) in rows 5, 17, 18, 31
        for row, f, value in [
            (3, 0, 0.0), (4, 0, -1e-9), (17, 0, 0.0), (30, 0, 0.0),
            (5, 1, 0.0), (17, 1, 0.0), (18, 1, -1e-9), (31, 1, 0.0),
        ]:
            y[row, f, row % n] = value
        states = [(0.1 * i, u, v) for i, (u, v) in enumerate(y)]
        rec = solver._SeriesRecorder(cfg)
        for t, u, v in states:
            rec.record(t, u, v)
        ref = reference_series(cfg, states)
        assert np.isnan(ref["V1"]).sum() == 4 and np.isnan(ref["V2"]).sum() == 7
        _assert_series_equal(rec.finalize(), ref)

    @pytest.mark.parametrize("kin_name", sorted(KINETICS))
    def test_single_and_stacked_lyapunov(self, kin_name):
        kin = KINETICS[kin_name]()
        co = compute_equilibria(kin).coexistence
        n, h = 16, 0.3
        u, v = np.random.default_rng(4).uniform(0.5, 2.0, (2, 3, n))
        for i in range(3):
            one = lyapunov_v1(u[i], v[i], kin, h)
            assert type(one) is float and one == reference_lyapunov_v1(u[i], v[i], kin, h)
            one = lyapunov_v2(u[i], v[i], kin, co, h)
            assert type(one) is float and one == reference_lyapunov_v2(u[i], v[i], kin, co, h)
        stacked = lyapunov_v1(u, v, kin, h)
        assert stacked.shape == (3,)
        assert np.array_equal(stacked, [reference_lyapunov_v1(a, b, kin, h) for a, b in zip(u, v)])
        stacked = lyapunov_v2(u, v, kin, co, h)
        assert np.array_equal(stacked, [reference_lyapunov_v2(a, b, kin, co, h) for a, b in zip(u, v)])
