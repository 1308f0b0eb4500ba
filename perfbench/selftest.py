"""Self-test of the benchmark: metric names, output checks, result line.

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the repository's own test run
(pytest from the root) does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import metrics
import run
from workloads import DEFAULT_SEED, MEMBERS_FILE, WORKLOADS, Expected, check_run, write_config

sys.path.insert(0, run.SRC)

from preytaxis_lab import cli, solver  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_names_are_valid_and_mapped():
    spec = metrics.load_spec()
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [m["name"] for m in spec[key]] == list(table), f"{key} differs from metrics.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_listed_name_is_produced(workload, trace):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = metrics.load_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2_rk4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""


def _run_fig2(tmp_path, seed=DEFAULT_SEED):
    w = WORKLOADS["fig2_rk4"]
    config, out = str(tmp_path / "config.ini"), str(tmp_path / "out")
    expected = Expected.of(w, write_config(w, run.CONFIGS, config))
    code = cli.main([*w.argv, "--config", config, "--out", out, "--seed", str(seed)])
    return w, expected, out, code


@pytest.fixture(scope="module")
def fig2_outputs(tmp_path_factory):
    return _run_fig2(tmp_path_factory.mktemp("fig2"))


def test_reference_rerun_passes(fig2_outputs):
    w, expected, out, code = fig2_outputs
    assert check_run(w, expected, out, DEFAULT_SEED, code) == []
    for name in w.reference_files:
        with open(os.path.join(out, name), "rb") as a, open(
            os.path.join(run.HERE, "reference", w.name, name), "rb"
        ) as b:
            assert a.read() == b.read(), f"{name} is not byte-identical to the reference"


def _scaled_rhs(factor):
    original = solver._rhs_arrays

    def perturbed(cfg, u, v):
        du, dv = original(cfg, u, v)
        return du * factor, dv * factor

    return perturbed


def test_last_bit_rhs_change_stays_within_tolerance(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "_rhs_arrays", _scaled_rhs(1.0 + 4e-16))
    w, expected, out, code = _run_fig2(tmp_path)
    assert check_run(w, expected, out, DEFAULT_SEED, code) == []


def test_perturbed_rhs_fails_the_reference_check(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "_rhs_arrays", _scaled_rhs(1.0 + 1e-4))
    w, expected, out, code = _run_fig2(tmp_path)
    problems = check_run(w, expected, out, DEFAULT_SEED, code)
    assert any("reference" in p for p in problems), problems


def test_a_wrong_output_counts_as_a_failed_run(tmp_path, monkeypatch):
    b = run.Bench("fig2_rk4", DEFAULT_SEED, str(tmp_path))
    b.run_in_process("good")
    assert (b.attempted, b.failures) == (1, [])
    monkeypatch.setattr(solver, "_rhs_arrays", _scaled_rhs(1.0 + 1e-4))
    b.run_in_process("perturbed")
    assert b.attempted == 2 and len(b.failures) == 1
    assert b.failures[0].startswith("perturbed:")


def test_sweep_members_are_checked_against_the_reference(tmp_path, monkeypatch):
    b = run.Bench("sweep_ensemble", DEFAULT_SEED, str(tmp_path))
    b.run_in_process("good", members=True)
    assert (b.attempted, b.failures) == (1, [])
    with open(os.path.join(b.out, MEMBERS_FILE), "rb") as got, open(
        os.path.join(run.HERE, "reference", "sweep_ensemble", MEMBERS_FILE), "rb"
    ) as ref:
        assert got.read() == ref.read(), "members are not byte-identical to the reference"
    monkeypatch.setattr(solver, "_rhs_arrays", _scaled_rhs(1.0 + 4e-16))
    b.run_in_process("last-bit", members=True)
    assert b.failures == []
    monkeypatch.setattr(solver, "_rhs_arrays", _scaled_rhs(1.0 + 1e-4))
    b.run_in_process("perturbed", members=True)
    assert b.attempted == 3 and len(b.failures) == 1
    assert b.failures[0].startswith("perturbed:") and MEMBERS_FILE in b.failures[0]
    assert "sweep.csv" not in b.failures[0]  # the pattern labels alone do not show it


def test_missing_or_negative_members_are_failures(tmp_path, monkeypatch):
    b = run.Bench("sweep_ensemble", 7, str(tmp_path))
    b.run_in_process("good", members=True)
    assert b.failures == []
    w, expected = b.w, b.expected_members
    _edit_csv(os.path.join(b.out, MEMBERS_FILE), 5, 3, "-1e-3")
    assert any("nonnegative" in p for p in check_run(w, expected, b.out, 7, 0))
    os.remove(os.path.join(b.out, MEMBERS_FILE))
    assert any("unreadable" in p for p in check_run(w, expected, b.out, 7, 0))


def _copy(src, dst):
    shutil.copytree(src, dst)
    return str(dst)


def _edit_csv(path, row, col, value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda out: _edit_csv(os.path.join(out, "final_state.csv"), 5, 1, "-0.5"),
         "nonnegative"),
        (lambda out: _edit_csv(os.path.join(out, "snapshots.csv"), 9, 3, "nan"),
         "nonnegative"),
        # the CLI writes a NaN as an empty field
        (lambda out: _edit_csv(os.path.join(out, "final_state.csv"), 4, 1, ""),
         "nonnegative"),
        (lambda out: _edit_csv(os.path.join(out, "timeseries.csv"), 7, 9, "12.5"),
         "reference"),
        (lambda out: _edit_csv(os.path.join(out, "final_state.csv"), 3, 0, ""),
         "reference"),
        (lambda out: os.remove(os.path.join(out, "snapshots.csv")), "unreadable"),
    ],
)
def test_corrupted_outputs_are_failures(fig2_outputs, tmp_path, corrupt, message):
    w, expected, out, code = fig2_outputs
    bad = _copy(out, tmp_path / "out")
    corrupt(bad)
    problems = check_run(w, expected, bad, DEFAULT_SEED, code)
    assert any(message in p for p in problems), problems


def test_row_counts_and_status_are_checked(fig2_outputs, tmp_path):
    w, expected, out, code = fig2_outputs
    bad = _copy(out, tmp_path / "out")
    path = os.path.join(bad, "timeseries.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    assert any("rows" in p for p in check_run(w, expected, bad, 7, code))
    manifest = os.path.join(bad, "manifest.json")
    with open(manifest, encoding="utf-8") as fh:
        m = json.load(fh)
    m["status"] = "blowup"
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(m, fh)
    assert any("status" in p for p in check_run(w, expected, bad, 7, code))
    assert check_run(w, expected, out, 7, 5) == ["exit code 5"]


def test_sweep_predicted_regime_is_checked_for_any_seed(tmp_path):
    w = WORKLOADS["sweep_ensemble"]
    ref = os.path.join(run.HERE, "reference", w.name, "sweep.csv")
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(ref, out / "sweep.csv")
    with open(ref, encoding="utf-8") as fh:
        rows = len(fh.readlines()) - 1
    (out / "manifest.json").write_text(json.dumps(
        {"status": "ok", "outputs": [{"file": "sweep.csv", "rows": rows}]}))
    expected = Expected({"sweep.csv": rows})
    assert check_run(w, expected, str(out), 7, 0) == []
    _edit_csv(str(out / "sweep.csv"), 2, 3, "steady_pattern")
    problems = check_run(w, expected, str(out), 7, 0)
    assert any("predicted_regime" in p for p in problems), problems
