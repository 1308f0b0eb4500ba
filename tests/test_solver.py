import copy
import dataclasses
import math
import os
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp
from scipy.integrate import solve_ivp

from helpers import (
    SERIES_COLUMNS,
    modal_growth_rate,
    reference_lyapunov_v1,
    reference_lyapunov_v2,
    reference_rhs_arrays,
    reference_rk4_step,
    reference_series,
    reference_stable_dt,
    same_bits,
)
from preytaxis_lab.diagnostics import lyapunov_v1, lyapunov_v2, tail_rows
from preytaxis_lab.model import (
    _EXP_CAP,
    Equilibrium,
    EquilibriumKind,
    KineticsModel,
    MotilityKind,
    MotilityModel,
    compute_equilibria,
)
from preytaxis_lab import cli, solver
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

    @pytest.mark.parametrize("seed", [1.5, 2.0])
    def test_float_seed_is_rejected(self, seed):
        with pytest.raises(ValueError, match="integer"):
            Perturbation(0.01, seed)

    def test_numpy_integer_seed_is_a_seed(self):
        a = init_state(cp_config(perturbation=Perturbation(0.01, np.int64(3))))
        b = init_state(cp_config(perturbation=Perturbation(0.01, 3)))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


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

    @pytest.mark.parametrize("series_from", [-0.1, 1.5, math.nan, math.inf])
    def test_series_from_must_lie_in_the_run(self, series_from):
        with pytest.raises(ValueError):
            cp_config(t_end=1.0, series_from=series_from)

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


class TestIntegerCounts:
    """Cell and output counts must be integers; a float fails in the
    constructor, not later inside NumPy."""

    @pytest.mark.parametrize("n_cells", [8.5, 16.0])
    def test_grid_rejects_a_float_cell_count(self, n_cells):
        with pytest.raises(ValueError):
            Grid1D(10.0, n_cells)

    @pytest.mark.parametrize("over", [{"snapshot_count": 2.5}, {"snapshot_count": 3.0},
                                      {"series_count": 40.0}])
    def test_config_rejects_a_float_output_count(self, over):
        with pytest.raises(ValueError):
            cp_config(**over)

    def test_numpy_integers_are_counts(self):
        cfg = cp_config(
            grid=Grid1D(8 * math.pi, np.int64(16)),
            base_state=(np.full(16, CP_CO.u), np.full(16, CP_CO.v)),
            snapshot_count=np.int32(3),
            series_count=np.int64(5),
            t_end=0.1,
        )
        traj = integrate(cfg)
        assert len(traj.snapshots) == 3 and traj.series.t.size == 5
        assert traj.snapshots[-1].u.shape == (16,)


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


def _edge_state(cfg, name):
    """A state whose end cells sit next to the workspace's pad lanes."""
    st = init_state(cfg)
    u, v = st.u.copy(), st.v.copy()
    if name == "jump":  # thirty orders of magnitude across the pad between the rows
        u[-1], v[0] = 1e15, 1e-15
    elif name == "signed_zeros":
        u[:2], u[-2:] = (0.0, -0.0), (-0.0, 0.0)
        v[:2], v[-2:] = (-0.0, -0.0), (0.0, -0.0)
    else:
        u[-1] = math.nan
    return u, v


class TestPaddedWorkspace:
    """Each row of a workspace block ends in a pad lane, which the flat
    face and divergence calls pair with the neighbouring row's end cells:
    no end value may leak into the other field, and every pad stays +0.0."""

    @staticmethod
    def _cfg(mot_name, kin_name):
        return cp_config(
            kin=KINETICS[kin_name](),
            mot=MOTILITIES[mot_name],
            base_state=(np.full(64, 1.2), np.full(64, 1.5)),
            perturbation=Perturbation(0.2, 3),
        )

    @staticmethod
    def _assert_pads_are_plus_zero(cfg):
        ws = cfg._workspace
        pads = ws.blocks[:, :, -1]
        assert np.all(pads == 0.0) and not np.signbit(pads).any()
        # the zero-flux boundary faces keep +0.0 (left) and -0.0 (right)
        assert same_bits(ws.flux[:, 0], [0.0, 0.0]) and same_bits(ws.flux[:, -1], [-0.0, -0.0])

    @pytest.mark.parametrize("state", ["jump", "signed_zeros", "nan"])
    @pytest.mark.parametrize("kin_name", sorted(KINETICS))
    @pytest.mark.parametrize("mot_name", sorted(MOTILITIES))
    def test_edge_states_match_the_reference(self, mot_name, kin_name, state):
        cfg = self._cfg(mot_name, kin_name)
        u, v = _edge_state(cfg, state)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            du, dv = solver._rhs_arrays(cfg, u, v)
            du_ref, dv_ref = reference_rhs_arrays(cfg, u, v)
            assert same_bits(du, du_ref) and same_bits(dv, dv_ref)
            if state == "nan":
                # u[-1] reaches dv only through the reaction of its own cell
                assert np.flatnonzero(np.isnan(dv)).tolist() == [63]
            y = rk4_step(cfg, u, v, 1e-3)
            u_ref, v_ref = reference_rk4_step(cfg, u, v, 1e-3)
            assert same_bits(y[0], u_ref) and same_bits(y[1], v_ref)
        self._assert_pads_are_plus_zero(cfg)

    @pytest.mark.parametrize("kin_name", sorted(KINETICS))
    @pytest.mark.parametrize("mot_name", sorted(MOTILITIES))
    def test_pads_stay_plus_zero(self, mot_name, kin_name):
        cfg = self._cfg(mot_name, kin_name)
        self._assert_pads_are_plus_zero(cfg)  # as built
        st = init_state(cfg)
        u, v = st.u, st.v
        for _ in range(5):
            u, v = rk4_step(cfg, u, v, stable_dt(State(0.0, u, v), cfg))
            solver._rhs_arrays(cfg, u, v)
            self._assert_pads_are_plus_zero(cfg)


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


class TestInPlaceStep:
    """rk4_step advances the workspace's start block in place only when it
    is given that block's own rows (as integrate does); any other caller
    gets a new array that shares no memory with the workspace and that no
    later step changes."""

    def _start(self):
        cfg = cp_config(perturbation=Perturbation(0.2, 1))
        st = init_state(cfg)
        return cfg, st, stable_dt(st, cfg)

    def test_caller_arrays_get_a_new_array(self):
        cfg, st, dt = self._start()
        ws = cfg._workspace
        y = rk4_step(cfg, st.u, st.v, dt)
        assert not np.shares_memory(y, ws.blocks)
        kept = y.copy()
        u, v = rk4_step(cfg, y[0], y[1], dt)
        ws.u0[...], ws.v0[...] = u, v
        rk4_step(cfg, ws.u0, ws.v0, dt)
        rk4_step(cfg, st.u, st.v, dt)
        assert same_bits(y, kept)

    def test_workspace_rows_step_in_place(self):
        cfg, st, dt = self._start()
        ws = cfg._workspace
        ws.u0[...], ws.v0[...] = st.u, st.v
        u, v = st.u, st.v
        for _ in range(3):
            y = rk4_step(cfg, ws.u0, ws.v0, dt)
            assert y is ws.cells and np.shares_memory(y, ws.y0)
            u, v = reference_rk4_step(cfg, u, v, dt)
            assert same_bits(y[0], u) and same_bits(y[1], v)
        pads = ws.blocks[:, :, -1]
        assert np.all(pads == 0.0) and not np.signbit(pads).any()


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


class TestStartStateGuard:
    """integrate checks the start state with the step guard before its
    first stable_dt, and records nothing when it fails."""

    @pytest.mark.parametrize(
        "value, error, guard",
        [
            (np.nan, BlowUpError, "non-finite"),
            (np.inf, BlowUpError, "non-finite"),
            (-1.0, NonPhysicalError, "negativity"),
            (2e6, BlowUpError, "blow-up limit"),
        ],
    )
    def test_bad_start_state_fails_at_t0(self, value, error, guard):
        v = np.full(64, CP_CO.v)
        v[37] = value
        cfg = cp_config(base_state=(np.full(64, CP_CO.u), v), perturbation=Perturbation(0.0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no step runs, so no RuntimeWarning either
            with pytest.raises(error) as exc:
                integrate(cfg)
        err = exc.value
        assert type(err) is error and err.t == 0.0
        assert (err.guard, err.field, err.cell) == (guard, "v", 37)
        assert err.value == value or (math.isnan(err.value) and math.isnan(value))
        assert err.trajectory.status == error.status
        assert err.trajectory.snapshots == [] and err.trajectory.series.t.size == 0


def _python_calls(fn, *args):
    """Names of the Python-level functions entered while fn(*args) runs;
    calls into C (ufuncs, slice assignment) are not counted."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names


class TestCallBudget:
    """The RK4 hot path makes few Python-level calls: rk4_step, then per
    stage _rhs_arrays, the bound right-hand-side kernel and the motility
    and reaction kernels it holds."""

    STEP_BUDGET = 1 + 4 * 4  # rk4_step plus four per stage
    STABLE_DT_BUDGET = 3  # stable_dt, its bound kernel and the motility kernel

    def _warmed(self):
        n = 256
        kin = KineticsModel.rosenzweig_macarthur(2.0, 1.0, 1.0, 4.0, 1.0)
        co = compute_equilibria(kin).coexistence
        cfg = cp_config(
            kin=kin, mot=MotilityModel.d2(), D=1.0 / 4800.0, grid=Grid1D(4 * math.pi, n),
            base_state=co, perturbation=Perturbation(0.01, 1),
        )
        st = init_state(cfg)
        dt = stable_dt(st, cfg)
        rk4_step(cfg, st.u, st.v, dt)  # the workspace exists and holds this dt
        return cfg, st, dt

    def test_rk4_step_budget(self):
        cfg, st, dt = self._warmed()
        names = _python_calls(rk4_step, cfg, st.u, st.v, dt)
        assert len(names) <= self.STEP_BUDGET, names
        assert names[0] == "rk4_step" and names.count("_rhs_arrays") == 4

    def test_stable_dt_budget(self):
        cfg, st, _ = self._warmed()
        names = _python_calls(stable_dt, st, cfg)
        assert len(names) <= self.STABLE_DT_BUDGET, names
        assert names[0] == "stable_dt"


class _CountingUfunc:
    """A ufunc that adds one to ``counts[0]`` per call; its methods
    (``reduce`` among them) are the ufunc's own and are not counted."""

    def __init__(self, ufunc, counts):
        self._ufunc, self._counts = ufunc, counts

    def __call__(self, *args, **kwargs):
        self._counts[0] += 1
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


def _shipped_models(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.ini")
    return cli.build_models(cli.load_config(path))


class TestFoldedKernels:
    """The kinetics and motility kernels fold the operations the run's
    constants fix when they are bound (a factor of exactly 1, gamma and K
    powers of two, the halving of face sums, r/2 == 1 on face sums): each
    right-hand side makes fewer ufunc calls, and every element keeps the
    bits of the plain expressions."""

    @settings(max_examples=300, deadline=None)
    @given(
        gamma=hyp.sampled_from([1.0, 2.0, 0.5, 3.0]),
        mu=hyp.sampled_from([1.0, 1.5]),
        theta=hyp.sampled_from([1.0, 0.7]),
        alpha=hyp.sampled_from([0.0, 0.3]),
        K=hyp.sampled_from([4.0, 3.0]),
        mot_name=hyp.sampled_from(sorted(MOTILITIES)),
        kin_name=hyp.sampled_from(["lv", "rm"]),
        state=hyp.lists(hyp.floats(1e-3, 10.0), min_size=32, max_size=32),
    )
    def test_kernels_match_the_references_to_the_bit(
        self, gamma, mu, theta, alpha, K, mot_name, kin_name, state
    ):
        if kin_name == "lv":
            kin = KineticsModel.lotka_volterra(gamma, theta, alpha, mu, K)
        else:
            kin = KineticsModel.rosenzweig_macarthur(gamma, theta, mu, K, 1.5, alpha=alpha)
        u, v = np.array(state).reshape(2, 16)
        cfg = cp_config(
            kin=kin, mot=MOTILITIES[mot_name], grid=Grid1D(3.0, 16), base_state=(u, v),
            perturbation=Perturbation(0.0, 0),
        )
        # the reference reads F and f from the model, so pin them to the
        # closed forms written here
        F_ref = v + 0.0 if kin_name == "lv" else v / (1.5 + v)
        assert same_bits(kin.F(v), F_ref)
        assert same_bits(kin.f(v), mu * v * (1.0 - v / K))
        du, dv = solver._rhs_arrays(cfg, u, v)
        du_ref, dv_ref = reference_rhs_arrays(cfg, u, v)
        assert same_bits(du, du_ref) and same_bits(dv, dv_ref)
        dt = stable_dt(State(0.0, u, v), cfg)
        assert dt == reference_stable_dt(State(0.0, u, v), cfg)
        y = rk4_step(cfg, u, v, dt)
        u_ref, v_ref = reference_rk4_step(cfg, u, v, dt)
        assert same_bits(y[0], u_ref) and same_bits(y[1], v_ref)

    @pytest.mark.parametrize(
        "config, stage_budget", [("case1", 28), ("case2", 30), ("case3", 28), ("decay", 27)]
    )
    def test_ufunc_calls_per_right_hand_side(self, monkeypatch, config, stage_budget):
        kin, mot = _shipped_models(config)
        eq = compute_equilibria(kin)
        base = eq.coexistence or eq.prey_only
        cfg = cp_config(
            kin=kin, mot=mot, grid=Grid1D(4 * math.pi, 128), base_state=base,
            perturbation=Perturbation(0.05, 1),
        )
        st = init_state(cfg)
        counts = [0]
        for name, obj in vars(np).items():
            if isinstance(obj, np.ufunc):
                monkeypatch.setattr(np, name, _CountingUfunc(obj, counts))
        ws = cfg._workspace  # binds the counting wrappers into its kernels
        ws.u[...], ws.v[...] = st.u, st.v
        counts[0] = 0
        k = ws.stage()
        stage_calls = counts[0]
        counts[0] = 0
        ws.stable_dt(st.v)
        dt_calls = counts[0]
        monkeypatch.undo()
        du_ref, dv_ref = reference_rhs_arrays(cfg, st.u, st.v)
        assert same_bits(k[0], du_ref) and same_bits(k[1], dv_ref)
        # the unfolded kernels made 34 calls per right-hand side and 15
        # per stable_dt (reductions not counted); d1 and d3 drop two more
        # on face sums, where r/2 == 1
        assert 20 < stage_calls <= stage_budget
        assert 10 < dt_calls <= 14


def _open_bracket_config():
    """An advection-bound constant-chi run whose step-count bracket is open
    on every output interval: d and D are far below chi times the prey's
    face differences, so the bracket's upper end (diffusive) lies far above
    the kernel's step, and its lower end (from the prey row's whole range)
    below it."""
    return cp_config(
        mot=MotilityModel.constant(0.01, 20.0), D=0.01, t_end=0.5, series_count=6,
        snapshot_count=3, perturbation=Perturbation(0.05, 1),
    )


class TestRunStats:
    """integrate reports on its trajectory the steps it took, its
    stable_dt calls and its step range, counted once per output interval."""

    def test_stats_count_what_the_run_did(self, monkeypatch):
        cfg = _open_bracket_config()
        kernel, dt_calls, steps = solver.stable_dt, [], []
        step = solver.rk4_step

        def counted_stable_dt(state, cfg):
            dt_calls.append(state.t)
            return kernel(state, cfg)

        def counted_step(cfg, u, v, dt):
            steps.append(dt)
            return step(cfg, u, v, dt)

        monkeypatch.setattr(solver, "stable_dt", counted_stable_dt)
        monkeypatch.setattr(solver, "rk4_step", counted_step)
        stats = integrate(cfg).stats
        assert stats == {
            "steps": len(steps), "rhs_evals": 4 * len(steps), "stable_dt_calls": len(dt_calls),
            "dt_min": min(steps), "dt_max": max(steps),
        }
        assert len(steps) > len(dt_calls) > 0

    def test_rhs_evals_count_the_right_hand_sides_rk4_evaluates(self, monkeypatch):
        kernel, evals = solver._rhs_arrays, []

        def counted_rhs(cfg, u, v):
            evals.append(1)
            return kernel(cfg, u, v)

        monkeypatch.setattr(solver, "_rhs_arrays", counted_rhs)
        stats = integrate(cp_config(t_end=0.2, series_count=5, snapshot_count=2)).stats
        assert stats["rhs_evals"] == len(evals) == 4 * stats["steps"] > 0

    def test_rhs_evals_are_one_per_imex_step(self, monkeypatch):
        step, calls = solver.imex_step, []

        def counted_step(cfg, u, v, dt):
            calls.append(dt)
            return step(cfg, u, v, dt)

        monkeypatch.setattr(solver, "imex_step", counted_step)
        cfg = cp_config(t_end=0.2, series_count=5, snapshot_count=2, scheme="imex")
        stats = integrate(cfg).stats
        assert stats["rhs_evals"] == stats["steps"] == len(calls) > 0

    def test_a_guard_trip_before_a_series_window_keeps_the_rhs_count(self, monkeypatch):
        calls = _injecting(monkeypatch, 3, "u", 13, np.nan)
        with pytest.raises(BlowUpError) as exc:
            integrate(cp_config(series_from=0.8, snapshot_count=2))
        stats = exc.value.trajectory.stats
        assert stats["steps"] == len(calls) == 3 and stats["rhs_evals"] == 12

    def test_a_failed_run_counts_up_to_the_failing_step(self, monkeypatch):
        calls = _injecting(monkeypatch, 7, "u", 13, np.nan)
        with pytest.raises(BlowUpError) as exc:
            integrate(cp_config())
        stats = exc.value.trajectory.stats
        assert stats["steps"] == len(calls) == 7
        assert stats["dt_min"] == min(calls) and stats["dt_max"] == max(calls)

    def test_a_failed_start_state_took_no_step(self):
        v = np.full(64, CP_CO.v)
        v[5] = -1.0
        cfg = cp_config(base_state=(np.full(64, CP_CO.u), v), perturbation=Perturbation(0.0, 0))
        with pytest.raises(NonPhysicalError) as exc:
            integrate(cfg)
        assert exc.value.trajectory.stats == {
            "steps": 0, "rhs_evals": 0, "stable_dt_calls": 0, "dt_min": None, "dt_max": None,
        }


class TestLookupAtCallTime:
    """integrate looks up rk4_step and stable_dt, and rk4_step looks up
    _rhs_arrays, in the solver module at call time, so wrappers bound there
    by name see every call; wrappers may return (u, v) and (du, dv) pairs
    where the program returns stacked arrays."""

    def test_pair_returning_wrappers_leave_integrate_bit_identical(self, monkeypatch):
        cfg = _open_bracket_config()
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
        # one stable_dt per output interval (on this run the step-count
        # bracket is open on every interval), ceil(interval / dt) steps in
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


def _bracket_state(rng, shape, mot, n):
    """(u, v) of a flat, an even, a steep, a large or a capped state for the
    bracket test.

    The steep state is two-valued in v, around the v where chi peaks (for
    d1-d3; anywhere for the constant kind), so the prey row's max - min is
    exactly the largest face difference and the bracket's advective end is
    tight.  Its jumps reach 2000, below v = 0 too: for d1-d3 the advective
    bound binds only on such jumps, and the bracket holds on any finite
    state.  The even state has one v in every cell, so the bracket's two
    ends read d at the kernel's own v.  Where one of 4096 candidates has
    it, that v is one whose d the kernel rounds below the scalar d of
    ``_scalar_d`` (NumPy's exp above ``math.exp``), so the upper end needs
    its margin; the candidates lie in [-1, 2], where d1-d3 are at least
    0.1.  The capped state puts r*(v - 1) within 2r of the exp cap, on both
    sides of it (for the constant kind, v near 351)."""
    params = mot._logistic_operands
    if shape == "flat":
        u0, v0 = rng.uniform(0.1, 5.0, 2)
        return u0 * (1.0 + 1e-6 * rng.uniform(-1, 1, n)), v0 * (1.0 + 1e-6 * rng.uniform(-1, 1, n))
    if shape == "even":
        v = rng.uniform(-1.0, 2.0, 4096)
        scalar_d = mot._scalar_d()
        below = mot.d(v) < np.array([scalar_d(x) for x in v])
        v = v[below] if below.any() else v
        return np.full(n, rng.uniform(0.1, 5.0)), np.full(n, v[0])
    if shape == "large":
        return 10.0 ** rng.uniform(-8.0, 6.0, (2, n))
    if shape == "cap":
        v_cap = 1.0 + _EXP_CAP / (2.0 if params is None else float(params[1]))
        return rng.uniform(0.1, 5.0, n), v_cap + rng.uniform(-2.0, 2.0) * rng.uniform(0.0, 1.0, n)
    v_star = rng.uniform(0.5, 3.0) if params is None else 1.0 + math.log(params[0]) / params[1]
    a = 10.0 ** rng.uniform(-3.0, 3.0)
    v = np.where(np.arange(n) % 2 == rng.integers(2), v_star - a, v_star + a)
    return rng.uniform(v_star - a, v_star + a, n), v


def _reference_run(cfg):
    """integrate as a plain interval loop over the reference kernels: the
    CFL step of every interval, ceil(interval / step) equal steps in it.
    Returns the snapshot and series states, and each interval's step count."""
    st = init_state(cfg)
    u, v = st.u, st.v
    series_t = np.linspace(0.0, cfg.t_end, cfg.series_count)
    snap_t = np.linspace(0.0, cfg.t_end, cfg.snapshot_count)
    events = np.union1d(series_t, snap_t)
    snaps, series, counts = [(0.0, u, v)], [(0.0, u, v)], []
    t = 0.0
    for t_next in events[1:]:
        t_next = float(t_next)
        n_sub = max(1, math.ceil((t_next - t) / reference_stable_dt(State(t, u, v), cfg)))
        dt = (t_next - t) / n_sub
        for _ in range(n_sub):
            u, v = reference_rk4_step(cfg, u, v, dt)
        counts.append(n_sub)
        t = t_next
        if t in series_t:
            series.append((t, u, v))
        if t in snap_t:
            snaps.append((t, u, v))
    return snaps, series, counts


def _kernel_free_counts(monkeypatch, cfg):
    """Assert that integrate makes no stable_dt call on ``cfg`` and that its
    snapshots and series are bit-identical to ``_reference_run``'s; returns
    the reference's step count of every interval."""
    kernel, calls = solver.stable_dt, []

    def counted(state, cfg):
        calls.append(state.t)
        return kernel(state, cfg)

    monkeypatch.setattr(solver, "stable_dt", counted)
    traj = integrate(cfg)
    assert calls == [] and traj.stats["stable_dt_calls"] == 0
    snaps, series, counts = _reference_run(cfg)
    assert traj.stats["steps"] == sum(counts)
    assert len(traj.snapshots) == len(snaps)
    for got, (t, u, v) in zip(traj.snapshots, snaps):
        assert got.t == t and same_bits(got.u, u) and same_bits(got.v, v)
    for name, ref in reference_series(cfg, series).items():
        assert same_bits(getattr(traj.series, name), ref), name
    return counts


class TestStepBracket:
    """integrate takes an interval's step count from the workspace's bracket
    on stable_dt when the bracket's two ends give the same count, and runs
    the stable_dt kernel only when they differ."""

    @pytest.mark.parametrize("D, steps", [(0.1, 1), (2.0, 2)], ids=["one-step", "D-above-sup-d"])
    def test_determined_intervals_run_no_kernel(self, monkeypatch, D, steps):
        # d1 at 128 cells: with D = 0.1 every 0.004 interval is below the
        # bracket's lower end; with D = 2, above every d of d1, both ends
        # take D's diffusive bound and differ by the margin only
        cfg = cp_config(
            D=D, grid=Grid1D(8 * math.pi, 128), t_end=0.5, series_count=126,
            snapshot_count=6, perturbation=Perturbation(0.05, 2),
        )
        counts = _kernel_free_counts(monkeypatch, cfg)
        assert max(counts) == steps  # (an event pair an ulp apart takes one)


class TestPreyBracket:
    """The bracket on the stable_dt kernel comes from the prey row's min and
    max, and holds the kernel's step count where its ends agree."""

    @settings(max_examples=400, deadline=None)
    @given(
        kind=hyp.sampled_from(["d1", "d2", "d3", "constant"]),
        d_const=hyp.floats(1e-3, 10.0),
        chi_const=hyp.floats(-20.0, 20.0),
        log_D=hyp.floats(-4.0, 1.5),
        n=hyp.integers(8, 256),
        ell=hyp.floats(0.1, 200.0),
        cfl=hyp.floats(1e-6, 1.0),
        shape=hyp.sampled_from(["flat", "even", "steep", "large", "cap"]),
        seed=hyp.integers(0, 2**32 - 1),
    )
    def test_bracket_holds_the_kernel_step_count(
        self, kind, d_const, chi_const, log_D, n, ell, cfl, shape, seed
    ):
        # D log-uniform, so that d above D, where the prey bracket's d
        # sets its ends, is common
        D = 10.0**log_D
        if kind == "constant":
            mot = MotilityModel.constant(d_const, chi_const)
        else:
            mot = MotilityModel(MotilityKind(kind))
        cfg = cp_config(mot=mot, D=D, grid=Grid1D(ell, n), cfl_safety=cfl)
        rng = np.random.default_rng(seed)
        u, v = _bracket_state(rng, shape, mot, n)
        dt = stable_dt(State(0.0, u, v), cfg)
        ws = cfg._workspace
        lower, upper = ws.dt_bracket(float(v.min()), float(v.max()))
        assert lower <= dt <= upper
        deltas = list(dt * 10.0 ** rng.uniform(-3.0, 3.0, 4))
        for k in (1, 2, 3, 7):
            for edge in (k * dt, k * lower, k * upper):
                deltas += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)]
        for delta in map(float, deltas):
            n_cfl = max(1, math.ceil(delta / dt))
            n_lo = max(1, math.ceil(delta / upper))
            assert n_lo <= n_cfl
            if delta <= n_lo * lower:  # integrate's test for a closed bracket
                assert n_cfl == n_lo

    def test_decay_run_makes_no_kernel_call(self, monkeypatch):
        # the decay fixture of the acceptance suite: d1 at 128 cells,
        # D = 0.1, prey-only
        kin = KineticsModel.rosenzweig_macarthur(1, 1, 1, 4, 1)
        cfg = cp_config(
            kin=kin, D=0.1, grid=Grid1D(4 * math.pi, 128), t_end=120.0,
            base_state=compute_equilibria(kin).prey_only, perturbation=Perturbation(0.01, 0),
            series_count=600, snapshot_count=50,
        )
        _kernel_free_counts(monkeypatch, cfg)

    def test_upper_end_reads_d_at_the_prey_minimum(self, monkeypatch):
        # d1 with v = 1.6 + 1.4 cos(pi x / ell), from 0.2 to 3.0, so d runs
        # from 0.83 down to 0.018, above D = 0.01: the kernel's diffusive
        # bound takes d at the prey minimum.  An upper end from d at the
        # prey maximum would lie 46x above the kernel's step and leave
        # every interval open; from d at the minimum it closes them all
        x = Grid1D(8 * math.pi, 64).centers()
        v = 1.6 + 1.4 * np.cos(x / 8.0)
        cfg = cp_config(
            D=0.01, t_end=0.5, series_count=6, snapshot_count=3,
            base_state=(np.full(64, CP_CO.u), v), perturbation=Perturbation(0.0, 0),
        )
        h, safety = cfg.grid.h, cfg.cfl_safety
        lower, _ = cfg._workspace.dt_bracket(float(v.min()), float(v.max()))
        upper_at_max = safety * (h * h / (2.0 * max(D1.d(float(v.max())), cfg.D)))
        assert 0.1 > max(1, math.ceil(0.1 / upper_at_max)) * lower
        assert min(_kernel_free_counts(monkeypatch, cfg)) >= 2


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

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        """16-state blocks, so a short series spans full and partial blocks."""
        monkeypatch.setattr(solver, "_SERIES_BLOCK", 16)

    def test_partial_series_of_a_guard_trip(self, small_blocks):
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
    def test_nonpositive_rows_get_nan_where_the_reference_does(self, kin_name, small_blocks):
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
            rec.record(t, np.stack((u, v)))
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


def _intervals(monkeypatch):
    """Rebind solver.rk4_step to collect each output interval as
    [dt, steps]: integrate hands one dt object to every step of an
    interval (the list keeps each alive, so identities do not repeat)."""
    original, intervals = solver.rk4_step, []

    def step(cfg, u, v, dt):
        if intervals and intervals[-1][0] is dt:
            intervals[-1][1] += 1
        else:
            intervals.append([dt, 1])
        return original(cfg, u, v, dt)

    monkeypatch.setattr(solver, "rk4_step", step)
    return intervals


def _member(D, **over):
    """A ``sweep --simulate`` member of case 1's model at 128 cells to
    t = 2, with only the final snapshot besides the start."""
    return cp_config(D=D, grid=Grid1D(8 * math.pi, 128), t_end=2.0, snapshot_count=2, **over)


def _tail_start(cfg):
    """The time of the first row of classify_pattern's tail window."""
    times = cfg.series_times()
    return float(times[-tail_rows(times.size)])


class TestSeriesWindow:
    """Rows before ``series_from`` are not recorded; before that window
    ``integrate`` sets each step from the state it starts from, within a
    lower bound on that state's CFL step."""

    # twice the worst over the eight members at seeds 0-3: tail mass_u
    # 2.84e-10 relative, tail std_u 1.12e-10 absolute (D = 0.5365, seed 0)
    TAIL_MASS_RTOL = 5.7e-10
    TAIL_STD_ATOL = 2.3e-10

    # the D values of a sweep over log:0.02:2:8; the six below 0.6 have a
    # start-state CFL step of more than three series spacings
    @pytest.mark.parametrize("D", np.geomspace(0.02, 2.0, 8).tolist())
    def test_pre_window_intervals_rows_and_tail(self, monkeypatch, D):
        full = integrate(_member(D))
        cfg = _member(D, series_from=_tail_start(_member(D)))
        intervals = _intervals(monkeypatch)
        traj = integrate(cfg)
        times = cfg.series_times()
        first = int(np.searchsorted(times, cfg.series_from))
        assert times[first] == cfg.series_from and first == times.size - 100

        # no interval before the window is longer than the larger of the
        # spacing and the start state's CFL step
        bound = max(times[1], stable_dt(init_state(cfg), cfg))
        t = 0.0
        for dt, n in intervals:
            if t >= cfg.series_from:
                break
            assert n * dt <= bound * (1 + 1e-12)
            t += n * dt
        assert t == pytest.approx(cfg.series_from, rel=1e-12)
        assert traj.stats["steps"] == sum(n for _, n in intervals) <= full.stats["steps"]
        if D < 0.6:
            assert traj.stats["steps"] < full.stats["steps"]

        # rows before the window: their schedule time and NaN; the window's
        # rows are recorded
        s = traj.series
        assert np.array_equal(s.t, times)
        for name in SERIES_COLUMNS[1:]:
            column = getattr(s, name)
            assert np.isnan(column[:first]).all(), name
            assert np.array_equal(np.isnan(column[first:]), np.isnan(getattr(full.series, name)[first:]))
        assert [st.t for st in traj.snapshots] == [0.0, 2.0]

        # the tail classify_pattern reads stays within budget of the full run
        a, b = full.series, traj.series
        assert np.all(np.abs(b.mass_u[first:] - a.mass_u[first:]) <= self.TAIL_MASS_RTOL * a.mass_u[first:])
        assert np.all(np.abs(b.std_u[first:] - a.std_u[first:]) <= self.TAIL_STD_ATOL)

    # d(min v) sets the start state's CFL step at D = 0.02, and D itself at
    # D = 2, where one step is shorter than a series spacing
    @pytest.mark.parametrize("D", [0.02, 2.0])
    def test_pre_window_steps_follow_the_state(self, monkeypatch, D):
        bounds = []
        step = solver.rk4_step

        def bounded_step(cfg, u, v, dt):
            bounds.append(stable_dt(State(0.0, u, v), cfg))
            return step(cfg, u, v, dt)

        monkeypatch.setattr(solver, "rk4_step", bounded_step)
        intervals = _intervals(monkeypatch)
        integrate(_member(D))
        full = [tuple(i) for i in intervals]
        intervals.clear()
        bounds.clear()
        cfg = _member(D, series_from=_tail_start(_member(D)))
        traj = integrate(cfg)
        rows = tail_rows(cfg.series_count) - 1  # intervals from the window's first row
        pre, post = [tuple(i) for i in intervals[:-rows]], [tuple(i) for i in intervals[-rows:]]
        assert traj.stats["steps"] == len(bounds) == len(pre) + sum(n for _, n in post)

        # each step before the window is at most the CFL step of the state
        # it starts from, and the steps land on the window's first row
        t = 0.0
        for (dt, n), bound in zip(pre, bounds):
            assert n == 1 and dt <= bound
            t += dt
        assert t == cfg.series_from
        # from that row on, every interval is the full run's
        assert post == full[-rows:]

    def test_a_guard_trip_before_the_window_keeps_the_rows_before_it(self, monkeypatch):
        cfg = cp_config(series_from=0.8, snapshot_count=2)
        calls = _injecting(monkeypatch, 3, "u", 13, np.nan)
        with pytest.raises(BlowUpError) as exc:
            integrate(cfg)
        err = exc.value
        assert err.t == pytest.approx(sum(calls), rel=1e-12)
        traj = err.trajectory
        times = cfg.series_times()
        assert traj.status == "blowup" and traj.stats["steps"] == 3
        assert np.array_equal(traj.series.t, times[times < err.t])
        assert traj.series.t.size > 0
        for name in SERIES_COLUMNS[1:]:
            assert np.isnan(getattr(traj.series, name)).all(), name
        assert [st.t for st in traj.snapshots] == [0.0]

    def test_a_failed_start_state_keeps_no_row(self):
        v = np.full(64, CP_CO.v)
        v[5] = -1.0
        cfg = cp_config(
            base_state=(np.full(64, CP_CO.u), v), perturbation=Perturbation(0.0, 0), series_from=0.5
        )
        with pytest.raises(NonPhysicalError) as exc:
            integrate(cfg)
        assert exc.value.trajectory.series.t.size == 0


# (m, r) of the builtin motilities d(v) = 1/(m + exp(r(v - 1))), chi = -d'
LOGISTIC = {"d1": (1.0, 2.0), "d2": (1.0, 0.1), "d3": (9.0, 2.0)}
# (d_const, chi_const) of the constant kind in the operator tests
CONSTANT = (0.2, 0.4)
# (gamma, theta, alpha, mu, K) of the LV kinetics in the operator tests
LV = (2.0, 1.0, 0.1, 1.0, 4.0)


def _smooth_state(x, ell):
    u = 1.5 * (1.0 + 0.3 * np.cos(math.pi * x / ell) + 0.1 * np.cos(3 * math.pi * x / ell))
    v = 1.0 + 0.2 * np.cos(2 * math.pi * x / ell)
    return u, v


def _exact_transport(kind, x, ell, D):
    """The PDE's transport terms at x, derived by hand for _smooth_state:

        u_t = d u_xx + d' u_x v_x - chi u_x v_x - u chi' v_x^2 - u chi v_xx
        v_t = D v_xx,

    with d = 1/(m + w), chi = -d' = r w/(m + w)^2,
    chi' = r^2 w (m - w)/(m + w)^3 and w = exp(r(v - 1)) for d1-d3, and
    d = d_const, chi = chi_const, d' = chi' = 0 for the constant kind."""
    a = math.pi / ell
    u, v = _smooth_state(x, ell)
    u_x = -1.5 * (0.3 * a * np.sin(a * x) + 0.3 * a * np.sin(3 * a * x))
    u_xx = -1.5 * (0.3 * a * a * np.cos(a * x) + 0.9 * a * a * np.cos(3 * a * x))
    v_x = -0.4 * a * np.sin(2 * a * x)
    v_xx = -0.8 * a * a * np.cos(2 * a * x)
    if kind == "constant":
        d, chi = CONSTANT
        d_p = chi_p = 0.0
    else:
        m, r = LOGISTIC[kind]
        w = np.exp(r * (v - 1.0))
        d = 1.0 / (m + w)
        chi = r * w / (m + w) ** 2
        d_p = -chi
        chi_p = r * r * w * (m - w) / (m + w) ** 3
    du = d * u_xx + d_p * u_x * v_x - chi * u_x * v_x - u * chi_p * v_x**2 - u * chi * v_xx
    return du, D * v_xx


def _exact_reaction(kin_name, x, ell):
    """The reaction terms at x for _smooth_state: gamma u F - theta u -
    alpha u^2 and mu v (1 - v/K) - u F, with RM (2, 1, 0, 1, 4, lam = 1),
    F = v/(1 + v), or LV, F = v."""
    u, v = _smooth_state(x, ell)
    if kin_name == "lv":
        gamma, theta, alpha, mu, K = LV
        F = v
    else:
        gamma, theta, alpha, mu, K = 2.0, 1.0, 0.0, 1.0, 4.0
        F = v / (1.0 + v)
    return gamma * u * F - theta * u - alpha * u * u, mu * v * (1.0 - v / K) - u * F


def _operator_models(kind, kin_name):
    if kind == "constant":
        mot = MotilityModel.constant(*CONSTANT)
    else:
        mot = MotilityModel(MotilityKind(kind))
    kin = KineticsModel.lotka_volterra(*LV) if kin_name == "lv" else CP_KIN
    return mot, kin


def _grid_symbol(grid, j):
    """kappa = (4/h^2) sin^2(kh/2) of the Neumann mode cos(j pi x/ell): the
    discrete Laplacian's eigenvalue, with the mode sampled at the centres
    as its eigenvector."""
    k = j * math.pi / grid.ell
    return 4.0 / grid.h**2 * math.sin(k * grid.h / 2.0) ** 2


class TestConvergenceOrders:
    """Independent oracles for the discretisation: the semi-discrete
    right-hand side converges to the exact operator at second order in h,
    with its reaction part exact; RK4 converges at fourth order in dt; and
    at a homogeneous state the discrete Jacobian is the continuous
    linearization with k^2 replaced by the grid symbol, on which RK4 at
    stable_dt's step is stable."""

    @pytest.mark.parametrize(
        "kind, kin_name",
        [
            ("d1", "rm"), ("d2", "rm"), ("d3", "rm"), ("constant", "rm"),
            ("d1", "lv"), ("constant", "lv"),
        ],
        ids=["d1", "d2", "d3", "constant", "d1-lv", "constant-lv"],
    )
    def test_rhs_converges_to_the_exact_operator_at_second_order(self, kind, kin_name):
        ell = 8 * math.pi
        mot, kin = _operator_models(kind, kin_name)
        errors = []
        for n in (64, 128, 256, 512):
            grid = Grid1D(ell, n)
            x = grid.centers()
            state = State(0.0, *_smooth_state(x, ell))
            full = rhs(state, cp_config(kin=kin, mot=mot, grid=grid))
            transport = rhs(state, cp_config(kin=zero_kinetics(), mot=mot, grid=grid))
            # the reaction is pointwise: exact at every grid, to rounding
            for got, moved, want in zip(full, transport, _exact_reaction(kin_name, x, ell)):
                assert np.max(np.abs(got - moved - want)) < 1e-12
            du_ref, dv_ref = _exact_transport(kind, x, ell, 0.1)
            du, dv = transport
            errors.append(max(np.max(np.abs(du - du_ref)), np.max(np.abs(dv - dv_ref))))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((orders >= 1.95) & (orders <= 2.05)), orders

    @pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
    def test_jacobian_blocks_are_the_linearization_at_the_grid_symbol(self, kind):
        from preytaxis_lab.linstab import linearize

        mot = MotilityModel(MotilityKind(kind))
        grid = Grid1D(8 * math.pi, 64)
        cfg = cp_config(mot=mot, grid=grid)
        lin = linearize(CP_KIN, mot, cfg.D, CP_CO)
        base = np.array([[CP_CO.u], [CP_CO.v]]) * np.ones(grid.n_cells)
        eps = 1e-6
        worst = 0.0
        for j in range(grid.n_cells):
            mode = np.cos(j * math.pi * grid.centers() / grid.ell)
            block = lin.M(math.sqrt(_grid_symbol(grid, j)))
            for field in (0, 1):
                e = np.zeros_like(base)
                e[field] = eps * mode
                plus, minus = rhs(State(0.0, *(base + e)), cfg), rhs(State(0.0, *(base - e)), cfg)
                column = (np.array(plus) - np.array(minus)) / (2.0 * eps)
                # J (mode in field) = block[:, field] * mode: nothing leaks
                # into the other modes or the other field's block entries
                worst = max(worst, np.max(np.abs(column - np.outer(block[:, field], mode))))
        assert worst < 1e-7, worst

    @pytest.mark.parametrize("cfl", [0.4, 1.0])
    @pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
    def test_rk4_is_stable_on_every_decaying_mode_at_stable_dt(self, kind, cfl):
        from preytaxis_lab.linstab import linearize

        mot = MotilityModel(MotilityKind(kind))
        grid = Grid1D(8 * math.pi, 64)
        cfg = cp_config(mot=mot, grid=grid, cfl_safety=cfl)
        lin = linearize(CP_KIN, mot, cfg.D, CP_CO)
        u, v = np.full(grid.n_cells, CP_CO.u), np.full(grid.n_cells, CP_CO.v)
        dt = stable_dt(State(0.0, u, v), cfg)
        decaying = 0
        for j in range(grid.n_cells):
            for lam in np.linalg.eigvals(lin.M(math.sqrt(_grid_symbol(grid, j)))):
                if lam.real < 0.0:
                    z = lam * dt
                    growth = abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
                    assert growth <= 1.0, (j, lam, dt, growth)
                    decaying += 1
        assert decaying > grid.n_cells  # the stiff modes are all among them

    @pytest.mark.parametrize("n_cells", [16, 32])
    def test_rk4_converges_at_fourth_order(self, n_cells):
        ell = 8 * math.pi
        grid = Grid1D(ell, n_cells)
        cfg = cp_config(grid=grid)
        u0, v0 = _smooth_state(grid.centers(), ell)
        T = 8 * stable_dt(State(0.0, u0, v0), cfg)

        def advance(steps):
            u, v, dt = u0, v0, T / steps
            for _ in range(steps):
                u, v = rk4_step(cfg, u, v, dt)
            return np.concatenate((u, v))

        reference = advance(512)
        errors = np.array([np.max(np.abs(advance(s) - reference)) for s in (8, 16, 32, 64)])
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all((orders >= 3.8) & (orders <= 4.2)), orders
