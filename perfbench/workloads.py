"""Workload definitions, config generation and output checks.

Each workload starts from a shipped ``configs/*.ini`` and changes only run
length, output density, grid size or the diffusivity list, so the program
always sees a config a user could have written.  The checks here decide
whether one CLI run counts as failed; they read only the files the run
wrote.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

MEMBERS_FILE = "members.csv"  # see recording_members

# Outputs of this seed are compared with the stored reference files.
DEFAULT_SEED = 0

# Reference tolerance: |got - ref| <= ATOL + RTOL * |ref| per CSV field.
# A rerun of the same code is byte-identical.  Scaling the right-hand side
# by 1 + 4e-16 (a last-bit change, as from a reordered sum or a fused exp)
# moves the compared fields by at most 6e-13 relative over these run
# lengths; scaling it by 1 + 1e-4 moves them by more than 2e-5, and each
# sweep member's final state, which stays near equilibrium, by 4e-7 or more.
RTOL = 1e-7
ATOL = 1e-10

# Columns that hold densities, which must be finite and nonnegative.
DENSITY_COLUMNS = {
    "final_state.csv": ("u", "v"),
    "snapshots.csv": ("u", "v"),
    "timeseries.csv": ("mass_u", "mass_v", "min_u", "min_v", "max_u", "max_v"),
    MEMBERS_FILE: ("u", "v"),
}

PATTERN_LABELS = {
    "homogeneous_stationary",
    "homogeneous_periodic",
    "inhomogeneous_stationary",
    "spatio_temporal",
}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # subcommand and flags before --config
    source: str  # shipped config the generated one starts from
    overrides: tuple[tuple[str, str, str], ...]  # (section, key, value)
    reference_files: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig2_rk4",
            ("simulate",),
            "case2.ini",
            (("solver", "t_end", "2"),),
            ("final_state.csv", "timeseries.csv"),
        ),
        Workload(
            "decay_output",
            ("simulate",),
            "decay.ini",
            (("solver", "t_end", "30"), ("solver", "snapshot_count", "500")),
            ("final_state.csv", "timeseries.csv"),
        ),
        Workload(
            "sweep_ensemble",
            ("sweep", "--simulate"),
            "case1.ini",
            (
                ("domain", "n_cells", "128"),
                ("solver", "t_end", "2"),
                ("analysis", "D", "log:0.02:2:8"),
            ),
            ("sweep.csv", MEMBERS_FILE),
        ),
    )
}


def write_config(w: Workload, configs_dir: str, path: str) -> configparser.ConfigParser:
    """Write the workload's config to ``path`` and return its parsed form."""
    p = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    p.optionxform = str
    with open(os.path.join(configs_dir, w.source), encoding="utf-8") as fh:
        p.read_file(fh)
    for section, key, value in w.overrides:
        p[section][key] = value
    with open(path, "w", encoding="utf-8") as fh:
        p.write(fh)
    return p


@dataclass(frozen=True)
class Expected:
    """Row counts a correct run of the workload writes."""

    files: dict[str, int]

    @staticmethod
    def of(w: Workload, cfg: configparser.ConfigParser, members: bool = False) -> "Expected":
        """``members``: the run records a sweep's members (recording_members)."""
        n_cells = int(cfg["domain"]["n_cells"])
        if w.argv[0] == "sweep":
            # D is a "log:lo:hi:count" range
            n_members = int(cfg["analysis"]["D"].split(":")[3])
            files = {"sweep.csv": n_members}
            if members:
                files[MEMBERS_FILE] = n_members * n_cells
            return Expected(files)
        snaps = int(cfg["solver"]["snapshot_count"])
        return Expected(
            {
                # the series is sampled on max(500, snapshot_count) points
                "timeseries.csv": max(500, snaps),
                "snapshots.csv": snaps * n_cells,
                "final_state.csv": n_cells,
            }
        )


@contextmanager
def recording_members(cli, out_dir: str):
    """Write each sweep member's final state to MEMBERS_FILE in ``out_dir``.

    A sweep writes only a pattern label per member.  To check the members'
    numbers, one run per invocation rebinds cli.integrate (looked up at call
    time) for the duration of this context.  The program is not edited.
    """
    original = cli.integrate
    rows: list[tuple[float, int, float, float]] = []
    lock = threading.Lock()  # members run on the CLI's thread pool

    def integrate(cfg):
        traj = original(cfg)
        final = traj.snapshots[-1]
        with lock:
            rows.extend(
                (float(cfg.D), i, u, v)
                for i, (u, v) in enumerate(zip(final.u.tolist(), final.v.tolist()))
            )
        return traj

    cli.integrate = integrate
    try:
        yield
    finally:
        cli.integrate = original
    if os.path.isdir(out_dir):
        with open(os.path.join(out_dir, MEMBERS_FILE), "w", encoding="utf-8") as fh:
            fh.write("D,cell,u,v\n")
            fh.writelines(",".join(map(repr, r)) + "\n" for r in sorted(rows))


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _numeric_columns_ok(header, rows, columns) -> str | None:
    """Every named column holds finite nonnegative numbers."""
    for name in columns:
        j = header.index(name)
        for r in rows:
            try:
                x = float(r[j])
            except (IndexError, ValueError):  # NaN is written as an empty field
                x = math.nan
            if not (math.isfinite(x) and x >= 0.0):
                return f"{name}={r[j:j + 1]} is not a finite nonnegative density"
    return None


def _compare(got_path: str, ref_path: str, skip_columns=()) -> str | None:
    gh, got = _read_csv(got_path)
    rh, ref = _read_csv(ref_path)
    if gh != rh or len(got) != len(ref):
        return f"{os.path.basename(got_path)}: shape differs from reference"
    skip = {rh.index(c) for c in skip_columns if c in rh}
    for i, (g_row, r_row) in enumerate(zip(got, ref)):
        if len(g_row) != len(r_row):
            return f"{os.path.basename(got_path)} row {i}: {len(g_row)} fields, reference has {len(r_row)}"
        for j, (g, r) in enumerate(zip(g_row, r_row)):
            if j in skip or g == r:
                continue
            try:
                gf, rf = float(g), float(r)
            except ValueError:
                return f"{os.path.basename(got_path)} row {i} {rh[j]}: {g!r} != reference {r!r}"
            if not abs(gf - rf) <= ATOL + RTOL * abs(rf):
                return (
                    f"{os.path.basename(got_path)} row {i} {rh[j]}: {g} differs "
                    f"from reference {r} beyond rtol={RTOL:g}, atol={ATOL:g}"
                )
    return None


def check_run(w: Workload, expected: Expected, out_dir: str, seed: int, exit_code: int) -> list[str]:
    """Problems with one run's outputs; an empty list means the run is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    listed = {o["file"]: o["rows"] for o in manifest.get("outputs", [])}
    tables = {}
    for name, rows in expected.files.items():
        path = os.path.join(out_dir, name)
        if name != MEMBERS_FILE and listed.get(name) != rows:
            problems.append(f"manifest lists {listed.get(name)} rows of {name}, expected {rows}")
        try:
            tables[name] = _read_csv(path)
        except OSError as exc:
            problems.append(f"{name} unreadable: {exc}")
            continue
        if len(tables[name][1]) != rows:
            problems.append(f"{name} has {len(tables[name][1])} rows, expected {rows}")
    if problems:
        return problems

    if w.argv[0] == "sweep":
        header, rows = tables["sweep.csv"]
        ci, cp = header.index("error"), header.index("pattern_class")
        for r in rows:
            if r[ci]:
                problems.append(f"sweep row D={r[0]} failed: {r[ci]}")
            if r[cp] not in PATTERN_LABELS:
                problems.append(f"sweep row D={r[0]} has pattern_class {r[cp]!r}")
        if seed != DEFAULT_SEED:
            # predicted_regime is linear theory, independent of the seed
            ref = os.path.join(REFERENCE_DIR, w.name, "sweep.csv")
            msg = _compare(os.path.join(out_dir, "sweep.csv"), ref, ("pattern_class",))
            if msg:
                problems.append(msg)

    for name, cols in DENSITY_COLUMNS.items():
        msg = _numeric_columns_ok(*tables[name], cols) if name in tables else None
        if msg:
            problems.append(f"{name}: {msg}")
    if seed == DEFAULT_SEED:
        for name in w.reference_files:
            if name not in tables:
                continue
            msg = _compare(os.path.join(out_dir, name), os.path.join(REFERENCE_DIR, w.name, name))
            if msg:
                problems.append(msg)
    return problems
