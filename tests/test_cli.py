import dataclasses
import json
import math
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from helpers import reference_csv_text, run_fresh_python
from preytaxis_lab import _floatcsv, cli
from preytaxis_lab.cli import main
from preytaxis_lab.diagnostics import classify_pattern, tail_rows
from preytaxis_lab.model import check_hypotheses, compute_equilibria
from preytaxis_lab.solver import (
    BlowUpError,
    Grid1D,
    NonPhysicalError,
    State,
    TimeSeries,
    Trajectory,
)

CP_MODEL = """
[model]
kind = rm
gamma = 2
theta = 1
alpha = 0
mu = 1
K = 4
lambda = 1
"""


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def set_key(body, section, key, value):
    """Set ``key = value`` in ``[section]`` of an INI body, adding the line
    when the key is absent."""
    lines = body.splitlines()
    start = lines.index(f"[{section}]")
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
        len(lines),
    )
    for i in range(start + 1, end):
        if lines[i].split("=")[0].strip() == key:
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(start + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestEquilibriaCommand:
    def test_cp_coexistence_row(self, tmp_path):
        cfg = write_config(tmp_path, CP_MODEL)
        out = str(tmp_path / "out")
        assert main(["equilibria", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "equilibria.csv"))
        assert header == ["kind", "u", "v", "residual"]
        co = [r for r in rows if r[0] == "coexistence"]
        assert len(co) == 1
        assert float(co[0][1]) == pytest.approx(1.5, abs=1e-10)
        assert float(co[0][2]) == pytest.approx(1.0, abs=1e-10)
        assert float(co[0][3]) < 1e-10
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["outputs"][0]["rows"] == 3

    def test_no_coexistence_still_succeeds(self, tmp_path):
        cfg = write_config(tmp_path, CP_MODEL.replace("gamma = 2", "gamma = 1"))
        out = str(tmp_path / "out")
        assert main(["equilibria", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "equilibria.csv"))
        assert [r[0] for r in rows] == ["extinction", "prey_only"]

    def test_malformed_key_exits_2_without_files(self, tmp_path):
        cfg = write_config(tmp_path, CP_MODEL.replace("gamma", "gama"))
        out = str(tmp_path / "out")
        assert main(["equilibria", "--config", cfg, "--out", out]) == 2
        assert not os.path.exists(out)

    def test_invalid_value_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, CP_MODEL.replace("gamma = 2", "gamma = -2"))
        assert main(["equilibria", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_unparseable_number_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, CP_MODEL.replace("gamma = 2", "gamma = fast"))
        assert main(["equilibria", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


CASE1 = (
    CP_MODEL
    + """
[motility]
kind = d1

[domain]
length = 25.132741228718345

[analysis]
D = 0.1
"""
)

CASE2_ANALYSIS = (
    CP_MODEL
    + """
[motility]
kind = d2

[domain]
length = 12.566370614359172

[analysis]
D = 0.00020833333333333335
"""
)


class TestDispersionCommand:
    def test_case1_modes(self, tmp_path):
        cfg = write_config(tmp_path, CASE1)
        out = str(tmp_path / "out")
        assert main(["dispersion", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "modes.csv"))
        assert header == ["n", "k", "class"]
        assert [(int(r[0]), r[2]) for r in rows] == [
            (0, "hopf_unstable"),
            (1, "hopf_unstable"),
            (2, "hopf_unstable"),
            (3, "hopf_unstable"),
        ]
        d_header, d_rows = read_csv(os.path.join(out, "dispersion.csv"))
        assert d_header[:4] == ["k", "a", "b", "delta"]
        assert len(d_rows) == 200
        manifest = read_manifest(out)
        assert manifest["beta"]["beta1"] == pytest.approx(0.125, abs=1e-12)
        assert manifest["beta"]["beta2"] == pytest.approx(-0.3125, abs=1e-12)

    def test_case3_modes(self, tmp_path):
        cfg = write_config(tmp_path, CASE1.replace("kind = d1", "kind = d3"))
        out = str(tmp_path / "out")
        assert main(["dispersion", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "modes.csv"))
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4, 5, 6]

    def test_case2_steady_modes(self, tmp_path):
        cfg = write_config(tmp_path, CASE2_ANALYSIS)
        out = str(tmp_path / "out")
        assert main(["dispersion", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "modes.csv"))
        steady = [int(r[0]) for r in rows if r[2] == "steady_unstable"]
        assert steady == list(range(12, 82))

    def test_missing_coexistence_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, CASE1.replace("gamma = 2", "gamma = 1"))
        assert main(["dispersion", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_case1_bands_and_min_stabilizing_D(self, tmp_path):
        cfg = write_config(tmp_path, CASE1)
        out = str(tmp_path / "out")
        assert main(["dispersion", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["bands"]["steady"] is None
        assert manifest["bands"]["hopf"] == pytest.approx([0.0, 9.7059], abs=1e-4)
        # beta1 = 1/8 > 0: the homogeneous mode grows at every D
        assert manifest["min_stabilizing_D"] == {
            "D_min": None, "homogeneous_mode_unstable": True,
        }

    def test_case3_hopf_band_is_unbounded(self, tmp_path):
        # d3 at D = 0.1 puts D - d* at exactly zero: the discriminant is
        # linear in k^2 and negative from 0 on
        cfg = write_config(tmp_path, CASE1.replace("kind = d1", "kind = d3"))
        out = str(tmp_path / "out")
        assert main(["dispersion", "--config", cfg, "--out", out]) == 0
        assert read_manifest(out)["bands"]["hopf"] == [0.0, None]

    def test_case2_steady_band_holds_the_unstable_modes(self, tmp_path):
        cfg = write_config(tmp_path, CASE2_ANALYSIS)
        out = str(tmp_path / "out")
        assert main(["dispersion", "--config", cfg, "--out", out]) == 0
        lo, hi = read_manifest(out)["bands"]["steady"]
        _, rows = read_csv(os.path.join(out, "modes.csv"))
        k2 = [float(r[1]) ** 2 for r in rows if r[2] == "steady_unstable"]
        assert k2 and lo < min(k2) and max(k2) < hi

    def test_lotka_volterra_has_bands_but_no_min_stabilizing_D(self, tmp_path):
        cfg = write_config(tmp_path, CASE1.replace("kind = rm", "kind = lv"))
        out = str(tmp_path / "out")
        assert main(["dispersion", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert "bands" in manifest
        assert "min_stabilizing_D" not in manifest and "beta" not in manifest


class TestBifurcationCommand:
    def test_case2_threshold_in_manifest(self, tmp_path):
        cfg = write_config(tmp_path, CASE2_ANALYSIS)
        out = str(tmp_path / "out")
        assert main(["bifurcation", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["lambda_zero_D"] == pytest.approx(49.0 / 19200.0, abs=1e-9)
        assert manifest["max_identity_residual"] < 1e-10
        header, rows = read_csv(os.path.join(out, "curves.csv"))
        assert header == ["eta", "D_H", "D_S"]
        assert len(rows) == 200

    def test_case1_has_no_threshold(self, tmp_path):
        cfg = write_config(tmp_path, CASE1)
        out = str(tmp_path / "out")
        assert main(["bifurcation", "--config", cfg, "--out", out]) == 0
        assert "lambda_zero_D" not in read_manifest(out)

    def test_identity_spot_check_from_csv(self, tmp_path):
        cfg = write_config(tmp_path, CASE2_ANALYSIS)
        out = str(tmp_path / "out")
        main(["bifurcation", "--config", cfg, "--out", out])
        _, rows = read_csv(os.path.join(out, "curves.csv"))
        from preytaxis_lab.linstab import beta_coefficients
        from preytaxis_lab.model import (
            KineticsModel,
            MotilityModel,
            compute_equilibria,
        )

        kin = KineticsModel.rosenzweig_macarthur(2, 1, 1, 4, 1)
        co = compute_equilibria(kin).coexistence
        beta = beta_coefficients(kin, MotilityModel.d2(), co)
        d_star = MotilityModel.d2().d(co.v)
        for r in rows[::20]:
            eta, DS = float(r[0]), float(r[2])
            if DS > 0:
                assert abs(beta.b(DS, d_star, eta)) < 1e-10

    @pytest.mark.parametrize(
        "key, value", [("kind", "lv"), ("alpha", "0.5")], ids=["lv", "rm-alpha"]
    )
    def test_kinetics_without_beta_coefficients_exit_3(self, tmp_path, capsys, key, value):
        # both have a coexistence state, but no closed-form a and b
        cfg = write_config(tmp_path, set_key(CASE1, "model", key, value))
        out = str(tmp_path / "out")
        assert main(["bifurcation", "--config", cfg, "--out", out]) == 3
        assert not os.path.exists(out)
        assert capsys.readouterr().err.startswith("model error: ")

    def test_band_closing_far_above_1e12(self, tmp_path):
        # strong negative taxis: beta2 ~ 7.5e6, so Lambda = 0 at D ~ 3.75e13
        body = CP_MODEL + "\n[motility]\nkind = constant\nd_const = 1\nchi_const = -1e7\n"
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["bifurcation", "--config", cfg, "--out", out]) == 0
        from preytaxis_lab.linstab import beta_coefficients
        from preytaxis_lab.model import KineticsModel, MotilityModel

        kin = KineticsModel.rosenzweig_macarthur(2, 1, 1, 4, 1)
        beta = beta_coefficients(
            kin, MotilityModel.constant(1.0, -1e7), compute_equilibria(kin).coexistence
        )
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["lambda_zero_D"] == beta.beta2**2 / (4.0 * beta.beta3 * 1.0)
        assert manifest["lambda_zero_D"] > 1e12


SIMULATE_SMALL = (
    CP_MODEL
    + """
[motility]
kind = d1

[domain]
length = 6.283185307179586
n_cells = 32

[solver]
scheme = rk4
t_end = 5
snapshot_count = 5
epsilon = 0.01
seed = 12

[analysis]
D = 0.1
"""
)


class TestSimulateCommand:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE_SMALL)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "timeseries.csv"))
        assert header == [
            "t", "mass_u", "mass_v", "min_u", "max_u", "min_v", "max_v",
            "l2_dev_u", "l2_dev_v", "V1", "V2",
        ]
        assert len(rows) == 500
        assert all(len(r) == 11 for r in rows)
        s_header, s_rows = read_csv(os.path.join(out, "snapshots.csv"))
        assert s_header == ["t", "x", "u", "v"]
        assert len(s_rows) == 5 * 32
        f_header, f_rows = read_csv(os.path.join(out, "final_state.csv"))
        assert f_header == ["x", "u", "v"]
        assert len(f_rows) == 32
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["prng"]["seed"] == 12
        assert {f["file"] for f in manifest["outputs"]} == {
            "timeseries.csv", "snapshots.csv", "final_state.csv",
        }

    def test_seed_override_and_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE_SMALL)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", out_a, "--seed", "77"]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b, "--seed", "77"]) == 0
        for name in ("timeseries.csv", "snapshots.csv", "final_state.csv"):
            with open(os.path.join(out_a, name), "rb") as fa:
                a = fa.read()
            with open(os.path.join(out_b, name), "rb") as fb:
                b = fb.read()
            assert a == b
        assert read_manifest(out_a)["prng"]["seed"] == 77

    def test_decay_manifest_verdict(self, tmp_path):
        body = SIMULATE_SMALL.replace("gamma = 2", "gamma = 1").replace(
            "t_end = 5", "t_end = 60"
        ).replace("n_cells = 32", "n_cells = 64")
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["decay"]["verdict"] == "exponential"
        assert manifest["decay"]["target"] == "prey_only"
        assert manifest["pattern"]["spatially_inhomogeneous"] is False

    def test_decay_ini_linear_rate_is_the_predicted_rate(self, tmp_path):
        # the predator's flat mode is the slowest linear mode on the grid
        with open(os.path.join(CONFIGS, "decay.ini"), encoding="utf-8") as fh:
            body = set_key(fh.read(), "solver", "t_end", "30")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", write_config(tmp_path, body), "--out", out]) == 0
        decay = read_manifest(out)["decay"]
        assert decay["linear_rate"] == decay["predicted_rate"]

    def test_blowup_exits_5_with_partial_outputs(self, tmp_path):
        # negative half-saturation is rejected by validation, so force
        # blow-up through runaway LV growth with huge gamma instead
        body = SIMULATE_SMALL.replace("kind = rm", "kind = lv").replace(
            "gamma = 2", "gamma = 2000"
        ).replace("t_end = 5", "t_end = 50")
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", cfg, "--out", out])
        manifest = read_manifest(out)
        if code == 5:
            assert manifest["status"] in ("blowup", "nonphysical")
            assert os.path.exists(os.path.join(out, "timeseries.csv"))
        else:
            assert code == 0

    def test_negative_start_state_exits_5_at_t0(self, tmp_path):
        # epsilon = 1.5 perturbs cells by up to 150%, so some start negative
        with open(os.path.join(CONFIGS, "case1.ini"), encoding="utf-8") as fh:
            body = set_key(fh.read(), "solver", "epsilon", "1.5")
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 5
        manifest = read_manifest(out)
        assert manifest["status"] == "nonphysical"
        assert manifest["failure_time"] == 0
        header, rows = read_csv(os.path.join(out, "timeseries.csv"))
        assert header[0] == "t" and rows == []

    def test_imex_scheme_through_config(self, tmp_path):
        body = SIMULATE_SMALL.replace("scheme = rk4", "scheme = imex")
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "timeseries.csv"))
        assert all(np.isfinite(float(r[1])) for r in rows)

    def test_float_formatting_roundtrips(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE_SMALL)
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out", out])
        _, rows = read_csv(os.path.join(out, "final_state.csv"))
        x0 = float(rows[1][0])
        h = 2 * math.pi / 32
        assert x0 == 1.5 * h  # exact round-trip of the cell center


SERIES_HEADER = (
    "t", "mass_u", "mass_v", "min_u", "max_u", "min_v", "max_v",
    "l2_dev_u", "l2_dev_v", "V1", "V2",
)


def reference_trajectory_csvs(traj):
    """{file name: text} of the trajectory tables, from the reference
    writer over the original tuple rows."""
    x = traj.grid.centers().tolist()
    s = traj.series
    texts = {
        "timeseries.csv": reference_csv_text(
            SERIES_HEADER, zip(*(getattr(s, name).tolist() for name in SERIES_HEADER))
        ),
        "snapshots.csv": reference_csv_text(
            ("t", "x", "u", "v"),
            [
                (st.t, xi, ui, vi)
                for st in traj.snapshots
                for xi, ui, vi in zip(x, st.u.tolist(), st.v.tolist())
            ],
        ),
    }
    if traj.snapshots:
        last = traj.snapshots[-1]
        texts["final_state.csv"] = reference_csv_text(
            ("x", "u", "v"), zip(x, last.u.tolist(), last.v.tolist())
        )
    return texts


def assert_trajectory_csvs(out, traj, manifest_outputs):
    rows = {f["file"]: f["rows"] for f in manifest_outputs}
    for name, text in reference_trajectory_csvs(traj).items():
        with open(os.path.join(out, name), encoding="utf-8", newline="") as fh:
            assert fh.read() == text, name
        assert rows[name] == text.count("\n") - 1, name


def set_keys(body, *entries):
    for section, key, value in entries:
        body = set_key(body, section, key, value)
    return body


# Strong constant taxis from a large perturbation: the negativity guard
# trips at t = 0.08, after 16 snapshots and 41 series rows.
GUARD_TRIP = set_keys(
    SIMULATE_SMALL,
    ("motility", "kind", "constant"),
    ("motility", "d_const", "0.01"),
    ("motility", "chi_const", "1"),
    ("domain", "length", "25.132741228718345"),
    ("domain", "n_cells", "64"),
    ("solver", "t_end", "1"),
    ("solver", "snapshot_count", "200"),
    ("solver", "epsilon", "0.5"),
)


# decay_output's shape: prey-only decay at 128 cells with 500 snapshots.
# u falls below 1e-4 there, so chunks of the float writer mix fixed and
# scientific (e-05 and smaller) exponent groups.
with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "decay.ini")) as _fh:
    DECAY_OUTPUT = set_keys(
        _fh.read(), ("solver", "t_end", "30"), ("solver", "snapshot_count", "500")
    )


class TestTrajectoryTablesMatchReferenceWriter:
    """timeseries.csv, snapshots.csv and final_state.csv are byte for byte
    what the original per-row writer makes of the same trajectory."""

    @pytest.mark.parametrize(
        "body, code, v2_all_nan",
        [
            (SIMULATE_SMALL, 0, False),
            (set_key(SIMULATE_SMALL, "domain", "n_cells", "8"), 0, False),
            (GUARD_TRIP, 5, False),
            # prey-only decay: no coexistence base, so V2 is NaN on every row
            (set_key(SIMULATE_SMALL, "model", "gamma", "1"), 0, True),
            (DECAY_OUTPUT, 0, True),
        ],
        ids=["small", "8_cells", "guard_trip", "decay_v2_nan", "decay_output"],
    )
    def test_simulate_outputs(self, tmp_path, monkeypatch, body, code, v2_all_nan):
        original = cli.integrate
        trajectories = []

        def integrate(cfg):
            try:
                traj = original(cfg)
            except (BlowUpError, NonPhysicalError) as exc:
                trajectories.append(exc.trajectory)
                raise
            trajectories.append(traj)
            return traj

        monkeypatch.setattr(cli, "integrate", integrate)
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == code
        (traj,) = trajectories
        assert_trajectory_csvs(out, traj, read_manifest(out)["outputs"])
        assert len(traj.snapshots) > 1
        assert np.isnan(traj.series.V2).all() == v2_all_nan

    def test_non_finite_and_extreme_values(self, tmp_path):
        # No integrate output holds NaN or inf (the step guards reject
        # them), so a hand-built trajectory reaches the block's fallback.
        grid = Grid1D(2.0, 8)
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e-300, 0.1]
        finite = [math.inf, -math.inf, -0.0, 5e-324, 1e308, 2.5, -1e-300, 0.1]
        snapshots = [
            State(0.0, np.array(finite), np.array(finite[::-1])),
            State(0.25, np.array(special), np.ones(8)),
            State(1e-300, np.ones(8), np.array(special[::-1])),
        ]
        columns = {name: np.linspace(0.0, 1.0, 3) for name in SERIES_HEADER}
        columns.update(
            std_u=np.zeros(3), std_v=np.zeros(3), V2=np.array([math.nan, -0.0, math.inf])
        )
        traj = Trajectory(grid, snapshots, TimeSeries(**columns))
        rc = cli.RunConfig(out_dir=str(tmp_path))
        run = cli._Run(rc, "simulate", *cli.build_models(rc))
        cli._write_trajectory(run, traj)
        assert_trajectory_csvs(str(tmp_path), traj, run.files)
        with open(tmp_path / "snapshots.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[9] == "0.25,0.125,,1"
        assert lines[1] == "0,0.125,inf,0.10000000000000001"


def float_fields(values):
    """The float writer's field for each value, from a one-column table."""
    text = "".join(t for t, _ in _floatcsv.column_lines([np.array(values, dtype=float)]))
    return text.split("\n")[:-1]


def percent_g(values):
    return ["%.17g" % v if v == v else "" for v in values]


def around(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def signed(values):
    return [w for v in values for w in (v, -v)]


def largest_below_power_of_ten(j):
    d = float(f"1e{j}")
    return math.nextafter(d, 0.0) if Fraction(d) >= Fraction(10) ** j else d


# Powers of ten over the long-double range, and the %g switch points
# 1e-5/1e-4 (scientific to fixed) and 1e16/1e17 (fixed to scientific)
# among them, with both neighbours.
POWERS_OF_TEN = signed([w for j in range(-11, 18) for w in around(float(f"1e{j}"))])
# Doubles whose 17-digit rounding carries into the next power of ten: the
# largest double below 10**j, where '%.17g' prints 10**j.  None lies in
# [1e-11, 1e17), so these take '%.17g'; the powers above hold the largest
# double below each power of ten in range.
CARRIES = signed(
    [
        d
        for j in range(-320, 309)
        for d in [largest_below_power_of_ten(j)]
        if Fraction("%.17g" % d) == Fraction(10) ** j
    ]
)
# Exact decimal ties at the 18th digit (round half to even), and a value
# whose scaled fraction only rounds to 0.5 in a long double.
EXACT_TIES = signed([1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 30001 / 2**18, 30003 / 2**18])
LONG_DOUBLE_TIES = signed([4.0134311524457082, 3.9968688749023285, 0.0020904731614700103])
SPECIALS = signed(
    [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
     1.7976931348623157e308, math.inf, math.nan]
)


class TestFloatFields:
    """Every field of the float tables is '%.17g' % value, and '' for NaN."""

    @pytest.mark.parametrize(
        "values",
        [POWERS_OF_TEN, CARRIES, EXACT_TIES, LONG_DOUBLE_TIES, SPECIALS],
        ids=["powers_of_ten", "carries", "exact_ties", "long_double_ties", "specials"],
    )
    def test_listed_edges(self, values):
        assert float_fields(values) == percent_g(values)

    def test_edge_lists_hold_what_they_name(self):
        assert len(CARRIES) >= 2
        for v in EXACT_TIES:
            digits = Decimal(v).normalize().as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, v

    def test_both_ends_of_every_binade(self):
        bottoms = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
        tops = [math.nextafter(b, 0.0) for b in bottoms[1:] + [math.inf]]
        values = signed(bottoms + tops)
        assert float_fields(values) == percent_g(values)

    @given(
        hyp.lists(
            hyp.tuples(
                hyp.booleans(),
                hyp.one_of(hyp.integers(0, 2047), hyp.integers(985, 1080)),
                hyp.integers(0, 2**52 - 1),
            ),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_patterns(self, parts):
        bits = [sign << 63 | exponent << 52 | mantissa for sign, exponent, mantissa in parts]
        values = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
        assert float_fields(values) == percent_g(values)

    def test_without_long_double_the_same_bytes(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, DECAY_OUTPUT)
        outs = [str(tmp_path / "fast"), str(tmp_path / "fallback")]
        assert main(["simulate", "--config", cfg, "--out", outs[0]]) == 0
        monkeypatch.setattr(_floatcsv, "_LONG_DOUBLE", False)
        assert main(["simulate", "--config", cfg, "--out", outs[1]]) == 0
        texts = []
        for out in outs:
            files = {}
            for name in ("timeseries.csv", "snapshots.csv", "final_state.csv"):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
            texts.append(files)
        assert texts[0] == texts[1]
        snapshots = texts[0]["snapshots.csv"]
        assert b"e-" in snapshots and b",0.000" in snapshots


SWEEP = (
    CP_MODEL
    + """
[motility]
kind = d2

[domain]
length = 12.566370614359172

[analysis]
D = 0.0001,0.001,0.01
"""
)


class TestSweepCommand:
    def test_d2_threshold_crossing(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "sweep.csv"))
        assert header == [
            "D", "n_unstable_hopf", "n_unstable_steady", "predicted_regime", "error",
        ]
        steady = {float(r[0]): int(r[2]) for r in rows}
        assert steady[1e-4] > 0
        assert steady[1e-3] > 0
        assert steady[1e-2] == 0
        assert all(r[4] == "" for r in rows)

    def test_rows_ordered_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["sweep", "--config", cfg, "--out", out_a]) == 0
        assert main(["sweep", "--config", cfg, "--out", out_b]) == 0
        with open(os.path.join(out_a, "sweep.csv"), "rb") as fa:
            a = fa.read()
        with open(os.path.join(out_b, "sweep.csv"), "rb") as fb:
            b = fb.read()
        assert a == b
        _, rows = read_csv(os.path.join(out_a, "sweep.csv"))
        assert [float(r[0]) for r in rows] == [1e-4, 1e-3, 1e-2]

    def test_single_point_sweep_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP.replace("D = 0.0001,0.001,0.01", "D = 0.001"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_d1_sweep_has_no_steady_modes(self, tmp_path):
        body = SWEEP.replace("kind = d2", "kind = d1").replace(
            "D = 0.0001,0.001,0.01", "D = log:1e-4:1:5"
        )
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "sweep.csv"))
        assert len(rows) == 5
        assert all(int(r[2]) == 0 for r in rows)

    def test_all_rows_failing_is_an_error(self, tmp_path):
        body = SWEEP.replace("gamma = 2", "gamma = 1")
        cfg = write_config(tmp_path, body)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_all_rows_failing_writes_status_failed(self, tmp_path):
        # decay.ini has no coexistence state, so every row fails
        with open(os.path.join(CONFIGS, "decay.ini"), encoding="utf-8") as fh:
            body = set_key(fh.read(), "analysis", "D", "0.05, 0.1")
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", write_config(tmp_path, body), "--out", out]) == 4
        manifest = read_manifest(out)
        assert manifest["status"] == "failed" and manifest["failed_rows"] == 2

    def test_simulate_flag_adds_classification_column(self, tmp_path):
        body = SWEEP.replace("D = 0.0001,0.001,0.01", "D = 0.05,0.1")
        body = set_key(body, "domain", "length", "6.283185307179586")
        body = (
            set_key(body, "domain", "n_cells", "32")
            + """
[solver]
t_end = 5
epsilon = 0.01
seed = 4
"""
        )
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out, "--simulate"]) == 0
        header, rows = read_csv(os.path.join(out, "sweep.csv"))
        assert header == [
            "D", "n_unstable_hopf", "n_unstable_steady", "predicted_regime",
            "pattern_class", "error",
        ]
        assert len(rows) == 2
        labels = {r[4] for r in rows}
        assert labels <= {
            "homogeneous_stationary", "homogeneous_periodic",
            "stationary_inhomogeneous", "spatio_temporal",
        }


def sweep_members_config(kind, length, D, t_end, snapshot_count=200):
    return (
        CP_MODEL
        + f"""
[motility]
kind = {kind}

[analysis]
D = {D}

[domain]
length = {length}
n_cells = 32

[solver]
t_end = {t_end}
snapshot_count = {snapshot_count}
epsilon = 0.5
seed = 1
"""
    )


class TestSweepMembers:
    """``sweep --simulate`` integrates each member once through cli.integrate,
    keeping only the initial and final snapshots."""

    @pytest.mark.parametrize(
        "kind, length, D",
        [
            ("d1", 2 * math.pi, "0.001,0.05,0.5"),
            ("d2", 4 * math.pi, "0.0002,0.01,0.5"),
        ],
    )
    def test_labels_match_members_with_full_snapshot_grid(self, tmp_path, kind, length, D):
        cfg = write_config(tmp_path, sweep_members_config(kind, length, D, 8))
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out, "--simulate"]) == 0
        header, rows = read_csv(os.path.join(out, "sweep.csv"))
        rc = cli.load_config(cfg)
        kin, mot = cli.build_models(rc)
        eqs = compute_equilibria(kin)
        expected = []
        for d in rc.D_values:
            member = cli._solver_config(dataclasses.replace(rc, D_values=[d]), kin, mot, eqs)
            assert member.snapshot_count == 200
            expected.append(classify_pattern(cli.integrate(member)).label.value)
        assert [r[header.index("pattern_class")] for r in rows] == expected

    def test_members_keep_the_series_and_two_snapshots(self, tmp_path, monkeypatch):
        body = sweep_members_config("d1", 2 * math.pi, "0.01,0.1,1", 2, 1000)
        cfg = write_config(tmp_path, body)
        original = cli.integrate
        members = []

        def integrate(cfg):
            traj = original(cfg)
            members.append((cfg, traj))
            return traj

        monkeypatch.setattr(cli, "integrate", integrate)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--simulate"]) == 0
        assert len(members) == 3
        for cfg, traj in members:
            assert cfg.snapshot_count == 2
            assert cfg.series_count == 1000
            assert [s.t for s in traj.snapshots] == [0.0, cfg.t_end]
            assert traj.series.t.size == 1000

    def test_members_record_only_the_tail_window(self, tmp_path, monkeypatch):
        body = sweep_members_config("d1", 2 * math.pi, "0.01,0.1,1", 2)
        cfg = write_config(tmp_path, body)
        original, members = cli.integrate, []

        def integrate(cfg):
            traj = original(cfg)
            members.append((cfg, traj))
            return traj

        monkeypatch.setattr(cli, "integrate", integrate)
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", cfg, "--out", out, "--simulate"]) == 0
        entries = read_manifest(out)["members"]
        assert len(members) == len(entries) == 3
        for (cfg, traj), entry in zip(members, entries):
            # the window starts at classify_pattern's first tail row
            s = traj.series
            first = s.t.size - tail_rows(s.t.size)
            assert cfg.series_from == s.t[first] == entry["series_from"]
            assert np.isnan(s.mass_u[:first]).all() and np.isnan(s.std_u[:first]).all()
            assert not np.isnan(s.mass_u[first:]).any() and not np.isnan(s.std_u[first:]).any()
            assert entry["D"] == cfg.D and entry["run_stats"] == traj.stats
            assert entry["run_stats"]["steps"] >= 1

    def test_a_member_that_trips_a_guard_has_an_entry(self, tmp_path, monkeypatch):
        from preytaxis_lab import solver

        step, calls = solver.rk4_step, []

        def failing_third_step(cfg, u, v, dt):
            calls.append(dt)
            y = step(cfg, u, v, dt)
            if len(calls) == 3:
                y[0, 5] = math.nan
            return y

        monkeypatch.setattr(solver, "rk4_step", failing_third_step)
        cfg = write_config(tmp_path, sweep_members_config("d1", 2 * math.pi, "0.01,0.1", 2))
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", cfg, "--out", out, "--simulate"]) == 0
        _, rows = read_csv(os.path.join(out, "sweep.csv"))
        assert rows[0][4] == "blowup"
        failed, ok = read_manifest(out)["members"]
        assert failed["run_stats"] == {
            "steps": 3, "rhs_evals": 12, "stable_dt_calls": 0,
            "dt_min": min(calls[:3]), "dt_max": max(calls[:3]),
        }
        assert ok["D"] == 0.1 and ok["run_stats"]["steps"] == len(calls) - 3

    def test_no_members_without_simulate(self, tmp_path):
        cfg = write_config(tmp_path, sweep_members_config("d1", 2 * math.pi, "0.01,0.1", 2))
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        assert "members" not in read_manifest(out)


class TestConfigStrictness:
    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, CP_MODEL + "\n[plotting]\nstyle = fancy\n")
        assert main(["equilibria", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_motility_kind_rejected(self, tmp_path):
        cfg = write_config(tmp_path, CASE1.replace("kind = d1", "kind = d9"))
        assert main(["dispersion", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_comments_and_defaults(self, tmp_path):
        cfg = write_config(
            tmp_path, "[model]\nkind = rm  # Holling type II\ngamma = 2\n"
        )
        out = str(tmp_path / "out")
        assert main(["equilibria", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "equilibria.csv"))
        assert len(rows) == 3  # defaults fill the rest of the cp block

    def test_missing_config_file(self, tmp_path):
        assert main(["equilibria", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_config_seed_past_64_bits_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, set_key(SIMULATE_SMALL, "solver", "seed", "18446744073709551616")
        )
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 3
        assert "seed must be a nonnegative 64-bit integer" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_cli_seed_past_64_bits_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE_SMALL)
        out = str(tmp_path / "out")
        argv = ["simulate", "--config", cfg, "--out", out, "--seed", "18446744073709551616"]
        assert main(argv) == 2
        assert not os.path.exists(out)

    def test_largest_64_bit_seed_runs(self, tmp_path):
        top = str(2**64 - 1)
        body = set_key(SIMULATE_SMALL, "solver", "seed", top)
        cfg = write_config(tmp_path, set_key(body, "solver", "t_end", "1"))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b, "--seed", top]) == 0
        assert read_manifest(out_a)["prng"]["seed"] == 2**64 - 1
        assert read_manifest(out_b)["prng"]["seed"] == 2**64 - 1


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class TestConfigTable:
    @pytest.mark.parametrize("command", ["equilibria", "dispersion"])
    @pytest.mark.parametrize(
        "overrides, code",
        [
            ((("domain", "n_cells", "4"),), 3),
            ((("domain", "length", "-1"),), 3),
            ((("solver", "cfl_safety", "0"),), 3),
            ((("solver", "cfl_safety", "1.5"),), 3),
            ((("solver", "t_end", "0"),), 3),
            ((("solver", "snapshot_count", "1"),), 3),
            ((("solver", "epsilon", "-0.1"),), 3),
            ((("solver", "seed", "-1"),), 3),
            ((("analysis", "D", "0.1,-1"),), 3),
            ((("analysis", "eta_grid", "lin:0:1:5"),), 3),
            ((("model", "lambda", "0"),), 3),
            ((("model", "K", "0"),), 3),
            ((("motility", "kind", "constant"), ("motility", "d_const", "-1")), 3),
            ((("solver", "scheme", "euler"),), 2),
            ((("domain", "n_cells", "3.5"),), 2),
        ],
        ids=lambda v: (
            ",".join(f"{k}={x}" for _, k, x in v) if isinstance(v, tuple) else None
        ),
    )
    def test_out_of_range_value_exit_code(self, tmp_path, command, overrides, code):
        body = SIMULATE_SMALL
        for section, key, value in overrides:
            body = set_key(body, section, key, value)
        cfg = write_config(tmp_path, body)
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == code
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("dispersion", "analysis", "D", "nan"),
            ("sweep", "analysis", "D", "0.1,nan"),
            ("sweep", "analysis", "D", "lin:0.1:inf:3"),
            ("bifurcation", "analysis", "eta_grid", "log:nan:1:5"),
            ("simulate", "solver", "t_end", "nan"),
            ("simulate", "solver", "t_end", "inf"),
            ("simulate", "solver", "epsilon", "nan"),
            ("dispersion", "domain", "length", "inf"),
            ("equilibria", "model", "gamma", "inf"),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, command, section, key, value):
        cfg = write_config(tmp_path, set_key(SIMULATE_SMALL, section, key, value))
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("analysis", "ell", "6.283185307179586"),
            ("analysis", "n_max", "20"),
            ("motility", "kind", "custom"),
        ],
    )
    def test_removed_setting_exits_2(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path, set_key(SIMULATE_SMALL, section, key, value))
        out = str(tmp_path / "out")
        assert main(["dispersion", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not os.path.exists(out)

    def test_manifest_config_echo(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = os.path.join(CONFIGS, "case1.ini")
        assert main(["equilibria", "--config", cfg, "--out", out]) == 0
        config = read_manifest(out)["config"]
        del config["output"]["directory"]
        assert config == {
            "model": {
                "kind": "rm", "gamma": 2.0, "theta": 1.0, "alpha": 0.0,
                "mu": 1.0, "K": 4.0, "lambda": 1.0,
            },
            "motility": {"kind": "d1", "d_const": 1.0, "chi_const": 0.0},
            "domain": {"length": 25.132741228718345, "n_cells": 256},
            "solver": {
                "scheme": "rk4", "cfl_safety": 0.4, "t_end": 500.0,
                "snapshot_count": 200, "epsilon": 0.01, "seed": 0,
            },
            "analysis": {
                "D": [0.1], "eta_grid_points": 200,
            },
            "output": {},
        }


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


SHIPPED = ("case1", "case2", "case3", "decay")
COMMANDS = ("equilibria", "dispersion", "bifurcation", "simulate", "sweep")


class TestManifestResults:
    """Every subcommand's manifest is strict JSON and records the
    hypothesis check of its models."""

    @staticmethod
    def expected_hypotheses(rc):
        kin, mot = cli.build_models(rc)
        report = check_hypotheses(kin, mot, 2.0 * kin.K)
        out = {"v_max": 2.0 * kin.K, "n_samples": report.n_samples}
        for name in ("h1", "h2", "h3", "h4"):
            f = getattr(report, name)
            out[name.upper()] = {
                "status": f.status.value, "inequality": f.inequality,
                "witness": f.witness, "violation": f.violation,
            }
        return out

    @pytest.mark.parametrize("case", SHIPPED)
    def test_every_subcommand_writes_strict_json(self, tmp_path, case):
        with open(os.path.join(CONFIGS, f"{case}.ini"), encoding="utf-8") as fh:
            body = set_key(fh.read(), "solver", "t_end", "0.5")
        short = write_config(tmp_path, body, "short.ini")
        sweep = write_config(tmp_path, set_key(body, "analysis", "D", "0.05, 0.1"), "sweep.ini")
        expected = self.expected_hypotheses(cli.load_config(short))
        no_coexistence = case == "decay"
        for command in COMMANDS:
            out = str(tmp_path / command)
            cfg = sweep if command == "sweep" else short
            code = main([command, "--config", cfg, "--out", out])
            if no_coexistence and command in ("dispersion", "bifurcation"):
                assert code == 4 and not os.path.exists(out)
                continue
            assert code == (4 if no_coexistence and command == "sweep" else 0)
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh, parse_constant=_reject_constant)
            assert manifest["command"] == command
            assert manifest["hypotheses"] == expected
            assert ("bands" in manifest) == (command == "dispersion")

    def test_case1_fails_h4_and_samples_beyond_K(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["equilibria", "--config", os.path.join(CONFIGS, "case1.ini"), "--out", out]) == 0
        hypotheses = read_manifest(out)["hypotheses"]
        assert hypotheses["v_max"] == 8.0
        assert hypotheses["H4"]["status"] == "fails"
        assert hypotheses["H4"]["inequality"] == "phi'(v) < 0"
        # the range reaches past K = 4, so H3's last clause is checked
        assert hypotheses["H3"] == {
            "status": "holds", "inequality": None, "witness": None, "violation": None,
        }


class TestSimulateReports:
    """simulate's manifest says what the solver did (``run_stats``) and, in
    a provably stable regime, how the decay compares with the theory."""

    def test_decay_block_on_the_shipped_decay_config(self, tmp_path):
        path = os.path.join(CONFIGS, "decay.ini")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", path, "--out", out]) == 0
        manifest = read_manifest(out)
        decay = manifest["decay"]
        assert decay["target"] == "prey_only"
        kin, _ = cli.build_models(cli.load_config(path))
        # theta - gamma*F(K) = 1 - 4/5 in the prey-only regime; the fit
        # reads 0.2004
        assert decay["predicted_rate"] == kin.theta - kin.gamma * float(kin.F(kin.K))
        assert decay["predicted_rate"] == pytest.approx(0.2, rel=1e-15)
        assert decay["rate"] == pytest.approx(decay["predicted_rate"], rel=5e-3)
        # V1 falls on every row; V2 needs a coexistence base and is all NaN
        header, rows = read_csv(os.path.join(out, "timeseries.csv"))
        v1 = np.array([float(r[header.index("V1")]) for r in rows])
        assert decay["max_increase_V1"] == float(np.max(np.diff(v1))) < 0.0
        assert decay["max_increase_V2"] is None
        # the prey row's bracket fixes every interval's step count on this
        # run (d is about 0.0025 < D), so the stable_dt kernel never runs
        stats = manifest["run_stats"]
        assert stats["stable_dt_calls"] == 0 < stats["steps"]
        assert 0.0 < stats["dt_min"] <= stats["dt_max"]

    def test_run_stats_of_a_guard_trip(self, tmp_path, monkeypatch):
        from preytaxis_lab import solver

        step, step_size, calls, dt_calls = solver.rk4_step, solver.stable_dt, [], []

        def failing_third_step(cfg, u, v, dt):
            calls.append(dt)
            y = step(cfg, u, v, dt)
            if len(calls) == 3:
                y[0, 5] = math.nan
            return y

        def counted_stable_dt(state, cfg):
            dt_calls.append(state.t)
            return step_size(state, cfg)

        monkeypatch.setattr(solver, "rk4_step", failing_third_step)
        monkeypatch.setattr(solver, "stable_dt", counted_stable_dt)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", write_config(tmp_path, SIMULATE_SMALL), "--out", out]) == 5
        manifest = read_manifest(out)
        assert manifest["status"] == "blowup"
        assert manifest["run_stats"] == {
            "steps": 3, "rhs_evals": 12, "stable_dt_calls": len(dt_calls),
            "dt_min": min(calls), "dt_max": max(calls),
        }

    def test_run_stats_of_a_failed_start_state(self, tmp_path):
        # epsilon = 1.5 perturbs cells by up to 150%, so some start negative
        with open(os.path.join(CONFIGS, "case1.ini"), encoding="utf-8") as fh:
            body = set_key(fh.read(), "solver", "epsilon", "1.5")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", write_config(tmp_path, body), "--out", out]) == 5
        assert read_manifest(out)["run_stats"] == {
            "steps": 0, "rhs_evals": 0, "stable_dt_calls": 0, "dt_min": None, "dt_max": None,
        }


# Runs each argv through ``main`` in one interpreter and prints, as its last
# line, each run's exit code and whether SciPy and numpy.random had been
# imported after it.  NumPy 1.x imports numpy.random with numpy itself, so
# the report also says whether ``import numpy`` alone loaded it.
SCIPY_PROBE = """
import json, sys
import numpy
eager = "numpy.random" in sys.modules
from preytaxis_lab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    results.append([argv[0], code, "scipy" in sys.modules, "numpy.random" in sys.modules])
print(json.dumps({"eager_numpy_random": eager, "runs": results}))
"""


class TestScipyImportedOnFirstUse:
    def test_builtin_rk4_path_leaves_scipy_unloaded(self, tmp_path):
        case1 = os.path.join(CONFIGS, "case1.ini")
        with open(case1, encoding="utf-8") as fh:
            short = set_key(fh.read(), "solver", "t_end", "1")
        rk4 = write_config(tmp_path, short, name="rk4.ini")
        imex = write_config(
            tmp_path, set_key(short, "solver", "scheme", "imex"), name="imex.ini"
        )
        runs = [
            [cmd, "--config", case1, "--out", str(tmp_path / cmd)]
            for cmd in ("equilibria", "dispersion", "bifurcation")
        ]
        runs.append(["simulate", "--config", rk4, "--out", str(tmp_path / "rk4")])
        sweep = write_config(
            tmp_path, set_key(short, "analysis", "D", "0.1, 0.2"), name="sweep.ini"
        )
        runs.append(
            ["sweep", "--config", sweep, "--out", str(tmp_path / "sweep"), "--simulate"]
        )
        runs.append(["simulate", "--config", imex, "--out", str(tmp_path / "imex")])
        res = run_fresh_python(SCIPY_PROBE, json.dumps(runs))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout.splitlines()[-1])
        assert [run[:3] for run in report["runs"]] == [
            ["equilibria", 0, False],
            ["dispersion", 0, False],
            ["bifurcation", 0, False],
            ["simulate", 0, False],
            ["sweep", 0, False],
            ["simulate", 0, True],
        ]
        # The perturbation is drawn without numpy.random; only the IMEX run,
        # whose SciPy may import it, is not checked.
        rnd = report["eager_numpy_random"]
        assert [run[3] for run in report["runs"][:-1]] == [rnd] * 5
