"""The run settings a config leaves unset: each default, and that an empty
config file gives the same settings and passes every range check; and that
the README's example config names every setting."""

import configparser
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from preytaxis_lab.cli import RunConfig, build_models, load_config

README = Path(__file__).resolve().parent.parent / "README.md"

# Every RunConfig attribute but eta_grid and length, which are checked apart.
DEFAULTS = {
    "model_kind": "rm",
    "gamma": 2.0,
    "theta": 1.0,
    "alpha": 0.0,
    "mu": 1.0,
    "K": 4.0,
    "lam": 1.0,
    "mot_kind": "d1",
    "d_const": 1.0,
    "chi_const": 0.0,
    "n_cells": 256,
    "scheme": "rk4",
    "cfl_safety": 0.4,
    "t_end": 500.0,
    "snapshot_count": 200,
    "epsilon": 0.01,
    "seed": 0,
    "D_values": [0.1],
    "out_dir": "out",
}


def assert_defaults(rc):
    assert set(vars(rc)) == set(DEFAULTS) | {"eta_grid", "length"}
    for name, value in DEFAULTS.items():
        got = getattr(rc, name)
        assert got == value and type(got) is type(value), name
    assert [type(D) for D in rc.D_values] == [float]
    assert rc.length == 8 * math.pi and type(rc.length) is float
    assert np.array_equal(rc.eta_grid, np.geomspace(1e-2, 1e2, 200))
    assert rc.eta_grid.dtype == np.float64


class TestDefaults:
    def test_run_config_defaults(self):
        assert_defaults(RunConfig())

    def test_empty_config_file_gives_the_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("", encoding="utf-8")
        assert_defaults(load_config(str(path)))

    def test_defaults_pass_every_range_check(self):
        kin, mot = build_models(RunConfig())
        assert kin.K == 4.0 and mot.kind.value == "d1"

    def test_instances_do_not_share_mutable_defaults(self):
        a, b = RunConfig(), RunConfig()
        a.D_values.append(1.0)
        a.eta_grid[0] = -1.0
        assert b.D_values == [0.1] and b.eta_grid[0] == 1e-2


def test_readme_example_config_names_every_key(tmp_path):
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    load_config(str(path))
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read_string(block)
    named = {(section, key) for section in parser.sections() for key in parser[section]}
    assert named == {(f.metadata["section"], f.metadata["key"]) for f in fields(RunConfig)}
