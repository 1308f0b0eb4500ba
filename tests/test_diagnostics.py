import dataclasses
import json
import math

import numpy as np
import pytest

from helpers import reference_max_lag_correlation, run_fresh_python, same_bits
from preytaxis_lab.cli import main
from preytaxis_lab.diagnostics import (
    QUAD_TOL,
    DecayVerdict,
    _max_lag_correlation,
    InsufficientDataError,
    PatternLabel,
    classify_pattern,
    decay_fit,
    lyapunov_v1,
    lyapunov_v2,
    zeta,
    zeta_by_quadrature,
)
from preytaxis_lab.linstab import dispersion, linearize
from preytaxis_lab.model import (
    KineticsModel,
    MotilityModel,
    compute_equilibria,
)
from preytaxis_lab.solver import (
    Grid1D,
    Perturbation,
    SolverConfig,
    TimeSeries,
    Trajectory,
    integrate,
)

CP_KIN = KineticsModel.rosenzweig_macarthur(2, 1, 1, 4, 1)
CP_CO = compute_equilibria(CP_KIN).coexistence
LV = KineticsModel.lotka_volterra(2, 1, 1, 1, 4)


def flat_series(t, mass_u, std_u=None, max_u=None, l2_dev_u=None):
    """Synthetic TimeSeries with the fields the diagnostics consume."""
    n = t.size
    zero = np.zeros(n)
    if std_u is None:
        std_u = zero
    if max_u is None:
        max_u = mass_u.copy()
    if l2_dev_u is None:
        l2_dev_u = np.abs(mass_u)
    return TimeSeries(
        t=t,
        mass_u=mass_u,
        mass_v=zero.copy(),
        min_u=zero.copy(),
        max_u=max_u,
        min_v=zero.copy(),
        max_v=zero.copy(),
        l2_dev_u=l2_dev_u,
        l2_dev_v=zero.copy(),
        std_u=std_u,
        std_v=zero.copy(),
        V1=zero.copy(),
        V2=zero.copy(),
    )


def make_traj(series, grid=None):
    return Trajectory(grid or Grid1D(1.0, 8), [], series)


class TestZeta:
    def test_zero_at_reference(self):
        assert zeta(CP_KIN, 1.0, 1.0) == 0.0
        assert zeta(LV, 2.0, 2.0) == 0.0

    def test_lv_closed_form_value(self):
        # v = K/2 with K = 4: (v-K) - K ln(v/K) = K(ln 2 - 1/2)
        val = zeta(LV, 4.0, 2.0)
        assert val == pytest.approx(4.0 * (math.log(2.0) - 0.5), abs=1e-12)

    @pytest.mark.parametrize("kin", [CP_KIN, LV])
    @pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
    def test_closed_form_matches_quadrature(self, kin, omega):
        for v in (0.1, 0.7, 1.3, 4.5):
            assert zeta(kin, omega, v) == pytest.approx(
                zeta_by_quadrature(kin, omega, v), abs=1e-10
            )

    def test_nonnegative_and_convex(self):
        v = np.linspace(0.05, 6.0, 1000)
        for kin, omega in ((CP_KIN, 1.0), (LV, 2.0)):
            z = zeta(kin, omega, v)
            assert np.min(z) >= -1e-12
            second = z[:-2] - 2 * z[1:-1] + z[2:]
            assert np.min(second) >= -1e-10
            # closed-form curvature oracle: F(omega) F'(v) / F(v)^2 > 0
            curv = (
                float(kin.F(omega))
                * np.asarray(kin.F_prime(v))
                / np.asarray(kin.F(v)) ** 2
            )
            assert np.all(curv > 0.0)
            h = v[1] - v[0]
            rel = np.abs(second / h**2 - curv[1:-1]) / curv[1:-1]
            assert np.max(rel) < 1e-2

    def test_bounds_hold_near_reference(self):
        # F'(w)/(4F(w)) (v-w)^2 <= Z_w(v) <= F'(w)/F(w) (v-w)^2 on [w - 0.2w, w + 0.2w]
        for kin, w in ((CP_KIN, 1.0), (LV, 2.0)):
            v = np.linspace(0.8 * w, 1.2 * w, 1000)
            z = zeta(kin, w, v)
            square = (float(kin.F_prime(w)) / float(kin.F(w))) * (v - w) ** 2
            assert np.max(square / 4.0 - z) <= 1e-12
            assert np.max(z - square) <= 1e-12

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            zeta(CP_KIN, 1.0, 0.0)
        with pytest.raises(ValueError):
            zeta(CP_KIN, 0.0, 1.0)

    def test_custom_kinetics_route_through_quadrature(self):
        lam = CP_KIN.lam
        kin_c = KineticsModel.custom(
            2.0, 1.0, 0.0, 1.0, 4.0,
            F=lambda v: v / (lam + v),
            F_prime=lambda v: lam / (lam + v) ** 2,
            f=lambda v: v * (1.0 - v / 4.0),
            f_prime=lambda v: 1.0 - v / 2.0,
        )
        for v in (0.3, 0.9, 2.5):
            assert zeta(kin_c, 1.0, v) == pytest.approx(
                zeta(CP_KIN, 1.0, v), abs=1e-9
            )
        u = np.full(16, 1.0)
        vv = np.full(16, 2.0)
        assert lyapunov_v1(u, vv, kin_c, 0.1) == pytest.approx(
            lyapunov_v1(u, vv, CP_KIN, 0.1), abs=1e-8
        )

    def test_quadrature_imports_scipy_on_first_use(self):
        probe = """
import json, sys
import numpy as np
from preytaxis_lab.diagnostics import lyapunov_v1
from preytaxis_lab.model import KineticsModel
rm = KineticsModel.rosenzweig_macarthur(2.0, 1.0, 1.0, 4.0, 1.0)
custom = KineticsModel.custom(
    2.0, 1.0, 0.0, 1.0, 4.0, F=rm.F, F_prime=rm.F_prime, f=rm.f, f_prime=rm.f_prime
)
u, v = np.full(64, 1.0), np.linspace(0.5, 3.5, 64)
loaded = ["scipy.integrate" in sys.modules]
closed = lyapunov_v1(u, v, rm, 0.1)
loaded.append("scipy.integrate" in sys.modules)
quadrature = lyapunov_v1(u, v, custom, 0.1)
loaded.append("scipy.integrate" in sys.modules)
print(json.dumps([loaded, closed, quadrature]))
"""
        res = run_fresh_python(probe)
        assert res.returncode == 0, res.stderr
        loaded, closed, quadrature = json.loads(res.stdout.splitlines()[-1])
        assert loaded == [False, False, True]
        # 64 cells of width 0.1, each Z within QUAD_TOL of the closed form
        assert quadrature == pytest.approx(closed, rel=0, abs=64 * 0.1 * QUAD_TOL)


class TestLyapunovV1:
    def test_zero_at_prey_only(self):
        u = np.zeros(32)
        v = np.full(32, 4.0)
        assert lyapunov_v1(u, v, CP_KIN, h=0.1) == 0.0

    def test_pure_predator_mass_term(self):
        # u = 1, v = K on a domain of length ell: V1 = ell/gamma
        grid = Grid1D(5.0, 50)
        u = np.ones(50)
        v = np.full(50, 4.0)
        val = lyapunov_v1(u, v, CP_KIN, grid.h)
        assert val == pytest.approx(5.0 / 2.0, abs=1e-12)

    def test_lv_half_capacity_value(self):
        # unit-length domain, v = K/2 homogeneous
        grid = Grid1D(1.0, 64)
        val = lyapunov_v1(np.zeros(64), np.full(64, 2.0), LV, grid.h)
        assert val == pytest.approx(4.0 * (math.log(2.0) - 0.5), abs=1e-10)

    def test_domain_error_on_zero_prey(self):
        v = np.full(16, 2.0)
        v[3] = 0.0
        with pytest.raises(ValueError):
            lyapunov_v1(np.ones(16), v, CP_KIN, 0.1)


class TestLyapunovV2:
    def test_zero_at_coexistence(self):
        u = np.full(32, CP_CO.u)
        v = np.full(32, CP_CO.v)
        assert lyapunov_v2(u, v, CP_KIN, CP_CO, h=0.1) == 0.0

    def test_doubled_predator_value(self):
        # u = 2u*, v = v* on a unit domain: (u*/gamma)(1 - ln 2)
        grid = Grid1D(1.0, 40)
        u = np.full(40, 2 * CP_CO.u)
        v = np.full(40, CP_CO.v)
        val = lyapunov_v2(u, v, CP_KIN, CP_CO, grid.h)
        expected = CP_CO.u / CP_KIN.gamma * (1.0 - math.log(2.0))
        assert val == pytest.approx(expected, abs=1e-12)

    def test_positive_away_from_equilibrium(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = CP_CO.u * rng.uniform(0.2, 3.0, 16)
            v = CP_CO.v * rng.uniform(0.2, 3.0, 16)
            val = lyapunov_v2(u, v, CP_KIN, CP_CO, 0.05)
            assert val >= -1e-12
            if np.max(np.abs(u - CP_CO.u)) > 1e-3 or np.max(np.abs(v - CP_CO.v)) > 1e-3:
                assert val > 0.0

    def test_domain_error_on_nonpositive_predator(self):
        u = np.full(16, CP_CO.u)
        u[0] = 0.0
        with pytest.raises(ValueError):
            lyapunov_v2(u, np.ones(16), CP_KIN, CP_CO, 0.1)


class TestClassifyPattern:
    def test_constant_trajectory_is_homogeneous_stationary(self):
        t = np.linspace(0, 100, 400)
        series = flat_series(t, mass_u=np.full(400, 3.0))
        pc = classify_pattern(make_traj(series))
        assert pc.label is PatternLabel.HOMOGENEOUS_STATIONARY
        assert not pc.spatially_inhomogeneous
        assert not pc.temporally_oscillatory

    def test_flat_oscillation_is_homogeneous_periodic(self):
        t = np.linspace(0, 100, 500)
        series = flat_series(t, mass_u=3.0 + 0.1 * np.sin(t))
        pc = classify_pattern(make_traj(series))
        assert pc.label is PatternLabel.HOMOGENEOUS_PERIODIC
        assert pc.periodic

    def test_monotone_decay_is_homogeneous_stationary(self):
        t = np.linspace(0, 100, 400)
        series = flat_series(t, mass_u=3.0 * np.exp(-0.2 * t))
        pc = classify_pattern(make_traj(series))
        assert pc.oscillation_amplitude > 0.01 * float(np.mean(series.mass_u[-80:]))
        assert pc.label is PatternLabel.HOMOGENEOUS_STATIONARY
        assert not pc.temporally_oscillatory
        assert not pc.periodic

    def test_frozen_profile_is_stationary_inhomogeneous(self):
        t = np.linspace(0, 100, 400)
        series = flat_series(
            t, mass_u=np.full(400, 3.0), std_u=np.full(400, 0.1)
        )
        pc = classify_pattern(make_traj(series))
        assert pc.label is PatternLabel.STATIONARY_INHOMOGENEOUS

    def test_spatio_temporal_with_periodicity_flag(self):
        t = np.linspace(0, 100, 500)
        series = flat_series(
            t, mass_u=3.0 + 0.5 * np.sin(t), std_u=np.full(500, 0.2)
        )
        pc = classify_pattern(make_traj(series))
        assert pc.label is PatternLabel.SPATIO_TEMPORAL
        assert pc.periodic

    def test_irregular_oscillation_is_not_periodic(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0, 100, 500)
        series = flat_series(
            t,
            mass_u=3.0 + np.cumsum(rng.normal(0, 0.1, 500)) * 0.1
            + rng.normal(0, 0.3, 500),
            std_u=np.full(500, 0.2),
        )
        pc = classify_pattern(make_traj(series))
        assert pc.label is PatternLabel.SPATIO_TEMPORAL
        assert not pc.periodic

    def test_time_rescaling_invariance(self):
        t = np.linspace(0, 100, 500)
        mass = 3.0 + 0.1 * np.sin(t)
        a = classify_pattern(make_traj(flat_series(t, mass.copy())))
        b = classify_pattern(make_traj(flat_series(7.0 * t, mass.copy())))
        assert a == b

    def test_insufficient_data(self):
        t = np.linspace(0, 10, 100)
        with pytest.raises(InsufficientDataError):
            classify_pattern(make_traj(flat_series(t, np.ones(100))), tail_fraction=0.2)


class TestMaxLagCorrelation:
    """The lag correlation against the ndarray.std / np.mean copy in
    helpers, to the bit."""

    @pytest.mark.parametrize("size", [2, 3, 17, 100, 101])
    def test_random_series(self, size):
        rng = np.random.default_rng(size)
        for scale in (1e-9, 1.0, 1e7):
            x = scale * rng.normal(size=size)
            x -= np.mean(x)  # as classify_pattern passes it
            got = _max_lag_correlation(x)
            assert type(got) is float and same_bits(got, reference_max_lag_correlation(x))

    def test_constant_series_skip_their_lags(self):
        for x in (np.zeros(40), np.full(41, 3.0), np.r_[np.full(30, 1.0), np.arange(10.0)]):
            assert same_bits(_max_lag_correlation(x), reference_max_lag_correlation(x))
        assert math.isnan(_max_lag_correlation(np.full(41, 3.0)))

    def test_series_with_nan(self):
        x = np.random.default_rng(3).normal(size=60)
        for cell in (0, 29, 59):
            y = x.copy()
            y[cell] = math.nan
            assert same_bits(_max_lag_correlation(y), reference_max_lag_correlation(y))


class TestDecayFit:
    def test_synthetic_exponential(self):
        t = np.linspace(0, 100, 400)
        series = flat_series(t, mass_u=np.ones(400), max_u=np.exp(-0.2 * t))
        prey = compute_equilibria(CP_KIN).prey_only
        fit = decay_fit(series, prey)
        assert fit.verdict is DecayVerdict.EXPONENTIAL
        assert fit.rate == pytest.approx(0.2, abs=1e-3)
        assert fit.r_squared >= 0.99

    def test_synthetic_algebraic(self):
        t = np.linspace(0, 100, 400)
        series = flat_series(t, mass_u=np.ones(400), max_u=1.0 / (1.0 + t))
        prey = compute_equilibria(CP_KIN).prey_only
        fit = decay_fit(series, prey)
        assert fit.verdict is DecayVerdict.ALGEBRAIC

    def test_no_decay_on_growth(self):
        t = np.linspace(0, 100, 400)
        series = flat_series(t, mass_u=np.ones(400), max_u=np.exp(0.05 * t))
        prey = compute_equilibria(CP_KIN).prey_only
        fit = decay_fit(series, prey)
        assert fit.verdict is DecayVerdict.NO_DECAY

    def test_insufficient_data(self):
        t = np.linspace(0, 10, 50)
        series = flat_series(t, mass_u=np.ones(50), max_u=np.exp(-t))
        prey = compute_equilibria(CP_KIN).prey_only
        with pytest.raises(InsufficientDataError):
            decay_fit(series, prey)


LV_COEXISTENCE = """
[model]
kind = lv
gamma = 1
theta = {theta}
alpha = 0
mu = 1
K = 1

[motility]
kind = d1

[domain]
length = {length!r}
n_cells = 128

[solver]
scheme = rk4
t_end = {t_end}
epsilon = 0.01
seed = 0

[analysis]
D = 1
"""


def _linear_rate(kin, mot, D, co, grid):
    """-max Re lambda over the Neumann modes n = 0..N-1 of the grid, each at
    its grid symbol kappa_n = (4/h^2) sin^2(n pi h/(2 ell)), the discrete
    Laplacian's eigenvalue."""
    lin = linearize(kin, mot, D, co)
    h = grid.h
    kappa = [
        4.0 / h**2 * math.sin(n * math.pi * h / (2.0 * grid.ell)) ** 2 for n in range(grid.n_cells)
    ]
    return -max(max(r.real for r in dispersion(lin, math.sqrt(k)).rho) for k in kappa)


class TestCoexistenceDecay:
    """Toward a coexistence state the decay fit reads the joint deviation
    of both fields, which decays at the rate of the slowest linear mode,
    at a focus (complex eigenvalues) as at a node.  Runs through
    ``simulate``, so the manifest's decay block is what is checked."""

    @pytest.mark.parametrize(
        "theta, t_end, complex_pair", [(0.5, 60, True), (0.9, 80, False)], ids=["focus", "node"]
    )
    def test_rate_is_the_slowest_linear_mode(self, tmp_path, theta, t_end, complex_pair):
        length = 4 * math.pi
        path = tmp_path / "lv.ini"
        path.write_text(LV_COEXISTENCE.format(theta=theta, length=length, t_end=t_end))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        decay = json.loads((out / "manifest.json").read_text())["decay"]
        assert decay["target"] == "coexistence"

        kin, mot = KineticsModel.lotka_volterra(1, theta, 0, 1, 1), MotilityModel.d1()
        co = compute_equilibria(kin).coexistence
        # the slowest mode is the flat one, a focus or a node as named
        rho = dispersion(linearize(kin, mot, 1.0, co), 0.0).rho
        assert (rho[0].imag != 0.0) is complex_pair
        r_lin = _linear_rate(kin, mot, 1.0, co, Grid1D(length, 128))
        assert decay["linear_rate"] == pytest.approx(r_lin, rel=1e-12)
        assert decay["verdict"] == "exponential", decay
        assert abs(decay["rate"] - r_lin) <= 0.02 * r_lin, (decay["rate"], r_lin)

        # the fit is decay_fit's on the written series; the predator's
        # deviation alone, the norm fitted before, misses the focus's rate
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0].split(",")[7:9] == ["l2_dev_u", "l2_dev_v"]
        cols = np.array([[float(f) for f in line.split(",")[:9]] for line in lines[1:]])
        t, l2_dev_u, l2_dev_v = cols[:, 0], cols[:, 7], cols[:, 8]
        series = flat_series(t, mass_u=cols[:, 1], l2_dev_u=l2_dev_u)
        joint = decay_fit(dataclasses.replace(series, l2_dev_v=l2_dev_v), co)
        assert (joint.verdict.value, joint.rate, joint.r_squared) == (
            decay["verdict"], decay["rate"], decay["r_squared"],
        )
        fit = decay_fit(series, co)
        meets = fit.verdict is DecayVerdict.EXPONENTIAL and abs(fit.rate - r_lin) <= 0.02 * r_lin
        assert meets is not complex_pair, fit


class TestTrajectoryMonotonicity:
    def test_v1_nonincreasing_in_decaying_regime(self):
        kin = KineticsModel.rosenzweig_macarthur(1, 1, 1, 4, 1)
        eqs = compute_equilibria(kin)
        cfg = SolverConfig(
            kin=kin, mot=MotilityModel.d1(), D=0.1, grid=Grid1D(2 * math.pi, 64),
            t_end=30.0, base_state=eqs.prey_only,
            perturbation=Perturbation(0.01, 2), series_count=120, snapshot_count=5,
        )
        traj = integrate(cfg)
        V1 = traj.series.V1
        assert np.all(np.isfinite(V1))
        assert np.max(np.diff(V1)) <= 1e-8

    def test_v2_nonincreasing_above_threshold(self):
        from preytaxis_lab.model import global_stability_report

        kin = KineticsModel.rosenzweig_macarthur(3, 1, 1, 4, 5)
        mot = MotilityModel.d1()
        eqs = compute_equilibria(kin)
        co = eqs.coexistence
        rep = global_stability_report(kin, mot, 1.0, co.v * 1.01)
        cfg = SolverConfig(
            kin=kin, mot=mot, D=2.0 * rep.D_min, grid=Grid1D(2 * math.pi, 64),
            t_end=30.0, base_state=co,
            perturbation=Perturbation(0.01, 2), series_count=120, snapshot_count=5,
        )
        traj = integrate(cfg)
        V2 = traj.series.V2
        assert np.all(np.isfinite(V2))
        assert np.max(np.diff(V2)) <= 1e-8
        assert np.min(V2) >= -1e-12
