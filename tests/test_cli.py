import json
import math
import os

import numpy as np
import pytest

from helpers import run_fresh_python
from preytaxis_lab.cli import main

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

[analysis]
D = 0.1
ell = 25.132741228718345
"""
)

CASE2_ANALYSIS = (
    CP_MODEL
    + """
[motility]
kind = d2

[analysis]
D = 0.00020833333333333335
ell = 12.566370614359172
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


SWEEP = (
    CP_MODEL
    + """
[motility]
kind = d2

[analysis]
D = 0.0001,0.001,0.01
ell = 12.566370614359172
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

    def test_simulate_flag_adds_classification_column(self, tmp_path):
        body = (
            SWEEP.replace("D = 0.0001,0.001,0.01", "D = 0.05,0.1")
            + """
[domain]
length = 6.283185307179586
n_cells = 32

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
            ((("analysis", "ell", "0"),), 3),
            ((("analysis", "n_max", "-1"),), 3),
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
            ("dispersion", "analysis", "ell", "nan"),
            ("equilibria", "model", "gamma", "inf"),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, command, section, key, value):
        cfg = write_config(tmp_path, set_key(SIMULATE_SMALL, section, key, value))
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 2
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
                "D": [0.1], "ell": 25.132741228718345, "n_max": None,
                "eta_grid_points": 200,
            },
            "output": {},
        }


# Runs each argv through ``main`` in one interpreter and prints, as its last
# line, whether SciPy had been imported after each run.
SCIPY_PROBE = """
import json, sys
from preytaxis_lab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    results.append([argv[0], main(argv), "scipy" in sys.modules])
print(json.dumps(results))
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
        runs.append(["simulate", "--config", imex, "--out", str(tmp_path / "imex")])
        res = run_fresh_python(SCIPY_PROBE, json.dumps(runs))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == [
            ["equilibria", 0, False],
            ["dispersion", 0, False],
            ["bifurcation", 0, False],
            ["simulate", 0, False],
            ["simulate", 0, True],
        ]
