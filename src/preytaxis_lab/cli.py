"""Command-line interface: INI-style configs in, CSV files and a JSON run
manifest out.

Subcommands
  equilibria   steady states of the reaction system      -> equilibria.csv
  dispersion   eigenvalues over a wavenumber grid and
               the interval mode spectrum                -> dispersion.csv, modes.csv
  bifurcation  oscillatory/stationary onset curves       -> curves.csv
  simulate     nonlinear PDE run with diagnostics        -> timeseries.csv,
               snapshots.csv, final_state.csv
  sweep        per-diffusivity instability census        -> sweep.csv

All numeric CSV fields carry 17 significant digits (exact float
round-trip); re-running a subcommand with the same config and seed
produces byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import __version__
from .diagnostics import (
    InsufficientDataError,
    classify_pattern,
    decay_fit,
)
from .linstab import (
    StabilityClass,
    beta_coefficients,
    bifurcation_curves,
    dispersion,
    linearize,
    steady_band_threshold,
    unstable_modes,
)
from .model import (
    KineticsModel,
    MotilityModel,
    Regime,
    compute_equilibria,
    global_stability_report,
)
from .solver import (
    PRNG_NAME,
    BlowUpError,
    Grid1D,
    NonPhysicalError,
    Perturbation,
    SolverConfig,
    Trajectory,
    integrate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_NO_EQUILIBRIUM = 4
EXIT_BLOWUP = 5


class ConfigError(Exception):
    """Malformed configuration (unknown key, bad literal, wrong shape)."""


class ModelError(Exception):
    """Configuration parsed but violates a model precondition."""


class MissingEquilibriumError(Exception):
    """The requested analysis needs a coexistence state that does not exist."""


_SCHEMA = {
    "model": {"kind", "gamma", "theta", "alpha", "mu", "K", "lambda"},
    "motility": {"kind", "d_const", "chi_const"},
    "domain": {"length", "n_cells"},
    "solver": {"scheme", "cfl_safety", "t_end", "snapshot_count", "epsilon", "seed"},
    "analysis": {"D", "ell", "n_max", "eta_grid"},
    "output": {"directory"},
}

_MODEL_KINDS = {
    "lv": "lv",
    "lotka_volterra": "lv",
    "rm": "rm",
    "rosenzweig_macarthur": "rm",
}
_MOTILITY_KINDS = {"d1", "d2", "d3", "constant", "custom"}


@dataclass
class RunConfig:
    model_kind: str = "rm"
    gamma: float = 2.0
    theta: float = 1.0
    alpha: float = 0.0
    mu: float = 1.0
    K: float = 4.0
    lam: float = 1.0
    mot_kind: str = "d1"
    d_const: float = 1.0
    chi_const: float = 0.0
    length: float = 8.0 * math.pi
    n_cells: int = 256
    scheme: str = "rk4"
    cfl_safety: float = 0.4
    t_end: float = 500.0
    snapshot_count: int = 200
    epsilon: float = 0.01
    seed: int = 0
    D_values: list[float] = field(default_factory=lambda: [0.1])
    ell: float | None = None
    n_max: int | None = None
    eta_grid: np.ndarray = field(
        default_factory=lambda: np.geomspace(1e-2, 1e2, 200)
    )
    out_dir: str = "out"

    @property
    def D(self) -> float:
        if len(self.D_values) != 1:
            raise ConfigError("this subcommand needs a single diffusivity D")
        return self.D_values[0]

    @property
    def analysis_ell(self) -> float:
        return self.length if self.ell is None else self.ell

    def echo(self) -> dict:
        return {
            "model": {
                "kind": self.model_kind,
                "gamma": self.gamma,
                "theta": self.theta,
                "alpha": self.alpha,
                "mu": self.mu,
                "K": self.K,
                "lambda": self.lam,
            },
            "motility": {
                "kind": self.mot_kind,
                "d_const": self.d_const,
                "chi_const": self.chi_const,
            },
            "domain": {"length": self.length, "n_cells": self.n_cells},
            "solver": {
                "scheme": self.scheme,
                "cfl_safety": self.cfl_safety,
                "t_end": self.t_end,
                "snapshot_count": self.snapshot_count,
                "epsilon": self.epsilon,
                "seed": self.seed,
            },
            "analysis": {
                "D": self.D_values,
                "ell": self.analysis_ell,
                "n_max": self.n_max,
                "eta_grid_points": int(self.eta_grid.size),
            },
            "output": {"directory": self.out_dir},
        }


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}={raw!r} is not a number") from exc


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}={raw!r} is not an integer") from exc


def _parse_value_list(section: str, key: str, raw: str) -> list[float]:
    """Scalar, comma list, or 'lin:lo:hi:n' / 'log:lo:hi:n' range."""
    raw = raw.strip()
    if raw.startswith(("lin:", "log:")):
        parts = raw.split(":")
        if len(parts) != 4:
            raise ConfigError(f"[{section}] {key}: range needs kind:lo:hi:count")
        lo = _parse_float(section, key, parts[1])
        hi = _parse_float(section, key, parts[2])
        count = _parse_int(section, key, parts[3])
        if count < 2:
            raise ConfigError(f"[{section}] {key}: range needs count >= 2")
        if parts[0] == "log":
            if lo <= 0 or hi <= 0:
                raise ConfigError(f"[{section}] {key}: log range needs positive bounds")
            return list(np.geomspace(lo, hi, count))
        return list(np.linspace(lo, hi, count))
    return [_parse_float(section, key, tok) for tok in raw.split(",") if tok.strip()]


def load_config(path: str) -> RunConfig:
    """Parse the INI-style config; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    rc = RunConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            _apply(rc, section, key, raw)
    return rc


def _apply(rc: RunConfig, section: str, key: str, raw: str):
    raw = raw.strip()
    if section == "model":
        if key == "kind":
            if raw not in _MODEL_KINDS:
                raise ConfigError(f"unknown model kind {raw!r}")
            rc.model_kind = _MODEL_KINDS[raw]
        elif key == "lambda":
            rc.lam = _parse_float(section, key, raw)
        else:
            setattr(rc, key, _parse_float(section, key, raw))
    elif section == "motility":
        if key == "kind":
            if raw not in _MOTILITY_KINDS:
                raise ConfigError(f"unknown motility kind {raw!r}")
            rc.mot_kind = raw
        else:
            setattr(rc, key, _parse_float(section, key, raw))
    elif section == "domain":
        if key == "length":
            rc.length = _parse_float(section, key, raw)
        else:
            rc.n_cells = _parse_int(section, key, raw)
    elif section == "solver":
        if key == "scheme":
            if raw not in ("rk4", "imex"):
                raise ConfigError(f"unknown scheme {raw!r}")
            rc.scheme = raw
        elif key in ("snapshot_count", "seed"):
            setattr(rc, key, _parse_int(section, key, raw))
        else:
            setattr(rc, key, _parse_float(section, key, raw))
    elif section == "analysis":
        if key == "D":
            rc.D_values = _parse_value_list(section, key, raw)
            if not rc.D_values:
                raise ConfigError("[analysis] D: empty value list")
        elif key == "ell":
            rc.ell = _parse_float(section, key, raw)
        elif key == "n_max":
            rc.n_max = _parse_int(section, key, raw)
        else:
            eta = np.asarray(_parse_value_list(section, key, raw), dtype=float)
            if eta.size < 1:
                raise ConfigError("[analysis] eta_grid: empty grid")
            rc.eta_grid = eta
    else:  # output
        rc.out_dir = raw


def build_models(rc: RunConfig) -> tuple[KineticsModel, MotilityModel]:
    """Instantiate the kinetics/motility models; range errors map to exit 3."""
    try:
        if rc.model_kind == "lv":
            kin = KineticsModel.lotka_volterra(rc.gamma, rc.theta, rc.alpha, rc.mu, rc.K)
        else:
            kin = KineticsModel.rosenzweig_macarthur(
                rc.gamma, rc.theta, rc.mu, rc.K, rc.lam, rc.alpha
            )
        if rc.mot_kind == "d1":
            mot = MotilityModel.d1()
        elif rc.mot_kind == "d2":
            mot = MotilityModel.d2()
        elif rc.mot_kind == "d3":
            mot = MotilityModel.d3()
        else:
            # 'custom' in a file config carries constant coefficients too;
            # function-valued motilities are library-level only.
            mot = MotilityModel.constant(rc.d_const, rc.chi_const)
        _validate_ranges(rc)
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    return kin, mot

def _validate_ranges(rc: RunConfig):
    if any(D <= 0 for D in rc.D_values):
        raise ValueError("diffusivity D must be positive")
    if rc.n_cells < 8:
        raise ValueError("n_cells must be >= 8")
    if rc.length <= 0 or rc.analysis_ell <= 0:
        raise ValueError("domain length must be positive")
    if not 0.0 < rc.cfl_safety <= 1.0:
        raise ValueError("cfl_safety must lie in (0, 1]")
    if rc.t_end <= 0:
        raise ValueError("t_end must be positive")
    if rc.epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if rc.snapshot_count < 2:
        raise ValueError("snapshot_count must be >= 2")
    if rc.seed < 0:
        raise ValueError("seed must be a nonnegative 64-bit integer")
    if np.any(rc.eta_grid <= 0):
        raise ValueError("eta_grid values must be positive")
    if rc.n_max is not None and rc.n_max < 0:
        raise ValueError("n_max must be >= 0")


# ---------------------------------------------------------------------------
# Output helpers


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return ""
    return format(xf, ".17g")


def _template(kinds: tuple[type, ...]) -> str:
    """%-template of a CSV line whose fields have the given types; for
    non-NaN values it writes what _fmt does."""
    return ",".join(
        "%s" if issubclass(k, str) else "%d" if issubclass(k, (int, np.integer)) else "%.17g"
        for k in kinds
    ) + "\n"


def _write_csv(path: str, header: tuple[str, ...], rows) -> int:
    """Write tuple rows; NaN is written as an empty field.

    Each line is one %-template over the row (pass Python floats, e.g.
    from ``.tolist()``, for speed).  A line in which the template wrote
    "nan" is formatted again field by field, so NaN floats come out empty.
    """
    templates: dict[tuple[type, ...], str] = {}
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = _template(kinds)
            line = template % row
            if "nan" in line:
                line = ",".join(_fmt(x) for x in row) + "\n"
            fh.write(line)
            count += 1
    return count


class _Run:
    """Collects output files and writes the manifest atomically at the end."""

    def __init__(self, rc: RunConfig, command: str):
        self.rc = rc
        self.command = command
        self.dir = rc.out_dir
        os.makedirs(self.dir, exist_ok=True)
        self.files: list[dict] = []
        self.extra: dict = {}
        self.started = time.time()

    def csv(self, name: str, header: tuple[str, ...], rows) -> str:
        path = os.path.join(self.dir, name)
        count = _write_csv(path, header, rows)
        self.files.append({"file": name, "rows": count})
        return path

    def finish(self, status: str = "ok"):
        manifest = {
            "command": self.command,
            "tool_version": __version__,
            "config": self.rc.echo(),
            "prng": {"name": PRNG_NAME, "seed": self.rc.seed},
            "started_unix": self.started,
            "finished_unix": time.time(),
            "outputs": self.files,
            "status": status,
        }
        manifest.update(self.extra)
        tmp = os.path.join(self.dir, "manifest.json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, os.path.join(self.dir, "manifest.json"))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_equilibria(rc: RunConfig) -> int:
    kin, _ = build_models(rc)
    eqs = compute_equilibria(kin)
    run = _Run(rc, "equilibria")
    run.csv(
        "equilibria.csv",
        ("kind", "u", "v", "residual"),
        ((e.kind.value, e.u, e.v, e.residual) for e in eqs.states),
    )
    run.extra["gamma_F_K"] = eqs.gamma_F_K
    run.finish()
    return EXIT_OK


def _coexistence_or_fail(kin):
    eqs = compute_equilibria(kin)
    if eqs.coexistence is None:
        raise MissingEquilibriumError(
            f"no coexistence state: gamma*F(K) = {eqs.gamma_F_K:.6g} <= theta"
        )
    return eqs


def cmd_dispersion(rc: RunConfig) -> int:
    kin, mot = build_models(rc)
    eqs = _coexistence_or_fail(kin)
    co = eqs.coexistence
    sys_ = linearize(kin, mot, rc.D, co)
    run = _Run(rc, "dispersion")

    def rows():
        for eta in rc.eta_grid:
            pt = dispersion(sys_, math.sqrt(eta))
            yield (
                pt.k,
                pt.a,
                pt.b,
                pt.delta,
                pt.rho[0].real,
                pt.rho[0].imag,
                pt.rho[1].real,
                pt.rho[1].imag,
                pt.klass.value,
            )

    run.csv(
        "dispersion.csv",
        ("k", "a", "b", "delta", "re_rho1", "im_rho1", "re_rho2", "im_rho2", "class"),
        rows(),
    )
    modes = unstable_modes(kin, mot, rc.D, co, rc.analysis_ell, n_max=rc.n_max)
    run.csv(
        "modes.csv",
        ("n", "k", "class"),
        ((m.n, m.k, m.klass.value) for m in modes),
    )
    try:
        beta = beta_coefficients(kin, mot, co)
        run.extra["beta"] = {"beta1": beta.beta1, "beta2": beta.beta2, "beta3": beta.beta3}
    except ValueError:
        pass
    run.finish()
    return EXIT_OK


def cmd_bifurcation(rc: RunConfig) -> int:
    kin, mot = build_models(rc)
    eqs = _coexistence_or_fail(kin)
    co = eqs.coexistence
    curve = bifurcation_curves(kin, mot, co, rc.eta_grid)
    beta = beta_coefficients(kin, mot, co)
    d_star = float(mot.d(co.v))
    run = _Run(rc, "bifurcation")
    run.csv(
        "curves.csv",
        ("eta", "D_H", "D_S"),
        zip(curve.eta, curve.D_H, curve.D_S),
    )
    resid = [
        max(
            abs(beta.a(DH, d_star, eta)) if DH > 0 else 0.0,
            abs(beta.b(DS, d_star, eta)) if DS > 0 else 0.0,
        )
        for eta, DH, DS in zip(curve.eta, curve.D_H, curve.D_S)
    ]
    run.extra["max_identity_residual"] = max(resid) if resid else 0.0
    threshold = steady_band_threshold(beta, d_star)
    if threshold is not None:
        run.extra["lambda_zero_D"] = threshold
    run.finish()
    return EXIT_OK


def _solver_config(rc: RunConfig, kin, mot, eqs) -> SolverConfig:
    base = eqs.coexistence if eqs.coexistence is not None else eqs.prey_only
    return SolverConfig(
        kin=kin,
        mot=mot,
        D=rc.D,
        grid=Grid1D(rc.length, rc.n_cells),
        t_end=rc.t_end,
        base_state=base,
        perturbation=Perturbation(rc.epsilon, rc.seed),
        scheme=rc.scheme,
        cfl_safety=rc.cfl_safety,
        snapshot_count=rc.snapshot_count,
        series_count=max(500, rc.snapshot_count),
    )


_SERIES_HEADER = (
    "t",
    "mass_u",
    "mass_v",
    "min_u",
    "max_u",
    "min_v",
    "max_v",
    "l2_dev_u",
    "l2_dev_v",
    "V1",
    "V2",
)


def _write_trajectory(run: _Run, traj: Trajectory):
    s = traj.series
    run.csv(
        "timeseries.csv",
        _SERIES_HEADER,
        zip(*(getattr(s, name).tolist() for name in _SERIES_HEADER)),
    )
    x = traj.grid.centers().tolist()

    def snap_rows():
        for st in traj.snapshots:
            yield from zip(repeat(st.t), x, st.u.tolist(), st.v.tolist())

    run.csv("snapshots.csv", ("t", "x", "u", "v"), snap_rows())
    if traj.snapshots:
        last = traj.snapshots[-1]
        run.csv(
            "final_state.csv",
            ("x", "u", "v"),
            zip(x, last.u.tolist(), last.v.tolist()),
        )


def cmd_simulate(rc: RunConfig) -> int:
    kin, mot = build_models(rc)
    eqs = compute_equilibria(kin)
    cfg = _solver_config(rc, kin, mot, eqs)
    run = _Run(rc, "simulate")
    try:
        traj = integrate(cfg)
    except (BlowUpError, NonPhysicalError) as exc:
        _write_trajectory(run, exc.trajectory)
        run.extra["failure_time"] = exc.t
        run.finish(status=exc.trajectory.status)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    _write_trajectory(run, traj)
    try:
        pattern = classify_pattern(traj)
        run.extra["pattern"] = {
            "class": pattern.label.value,
            "spatially_inhomogeneous": pattern.spatially_inhomogeneous,
            "temporally_oscillatory": pattern.temporally_oscillatory,
            "periodic": pattern.periodic,
            "tail_spatial_std": pattern.tail_spatial_std,
            "oscillation_amplitude": pattern.oscillation_amplitude,
            "max_autocorrelation": _json_float(pattern.max_autocorrelation),
        }
    except InsufficientDataError as exc:
        run.extra["pattern"] = {"error": str(exc)}
    _attach_decay(run, rc, kin, mot, eqs, traj)
    run.finish()
    return EXIT_OK


def _json_float(x: float):
    return None if math.isnan(x) else x


def _attach_decay(run: _Run, rc: RunConfig, kin, mot, eqs, traj: Trajectory):
    """Record a decay fit when the configuration sits in a provably stable
    regime (prey-only, or coexistence with D above the threshold)."""
    v0_max = float(traj.snapshots[0].v.max()) if traj.snapshots else kin.K
    try:
        report = global_stability_report(kin, mot, rc.D, v0_max)
    except ValueError:
        return
    if report.regime in (Regime.PREY_ONLY_EXPONENTIAL, Regime.PREY_ONLY_ALGEBRAIC):
        target = eqs.prey_only
    elif report.satisfied:
        target = eqs.coexistence
    else:
        return
    try:
        fit = decay_fit(traj.series, target)
    except InsufficientDataError:
        return
    run.extra["decay"] = {
        "verdict": fit.verdict.value,
        "rate": fit.rate,
        "r_squared": fit.r_squared,
        "target": target.kind.value,
    }


def _sweep_row(rc: RunConfig, kin, mot, D: float, simulate: bool):
    try:
        eqs = _coexistence_or_fail(kin)
        modes = unstable_modes(kin, mot, D, eqs.coexistence, rc.analysis_ell, rc.n_max)
        n_hopf = sum(1 for m in modes if m.klass is StabilityClass.HOPF_UNSTABLE)
        n_steady = sum(1 for m in modes if m.klass is StabilityClass.STEADY_UNSTABLE)
        if n_hopf == 0 and n_steady == 0:
            regime = "stable"
        elif n_steady == 0:
            regime = "hopf_oscillation"
        elif n_hopf == 0:
            regime = "steady_pattern"
        else:
            regime = "mixed"
        pattern = ""
        if simulate:
            cfg = _solver_config(
                RunConfig(**{**rc.__dict__, "D_values": [D]}), kin, mot, eqs
            )
            try:
                traj = integrate(cfg)
                pattern = classify_pattern(traj).label.value
            except (BlowUpError, NonPhysicalError) as exc:
                pattern = exc.trajectory.status
            except InsufficientDataError:
                pattern = "insufficient_data"
        return (D, n_hopf, n_steady, regime, pattern, "")
    except (MissingEquilibriumError, ValueError, RuntimeError) as exc:
        return (D, "", "", "", "", str(exc).replace(",", ";"))


def cmd_sweep(rc: RunConfig, simulate: bool = False) -> int:
    if len(rc.D_values) < 2:
        raise ConfigError("sweep needs at least two diffusivity values")
    kin, mot = build_models(rc)
    max_workers = os.environ.get("PREYTAXIS_THREADS")
    workers = max(1, int(max_workers)) if max_workers else min(8, os.cpu_count() or 1)
    results: list[tuple] = [None] * len(rc.D_values)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_sweep_row, rc, kin, mot, D, simulate): i
            for i, D in enumerate(rc.D_values)
        }
        for fut, i in futures.items():
            results[i] = fut.result()
    header = ("D", "n_unstable_hopf", "n_unstable_steady", "predicted_regime", "error")
    if simulate:
        header = header[:4] + ("pattern_class",) + header[4:]
        rows = results
    else:
        rows = [(r[0], r[1], r[2], r[3], r[5]) for r in results]
    run = _Run(rc, "sweep")
    run.csv("sweep.csv", header, rows)
    failures = sum(1 for r in results if r[5])
    run.extra["failed_rows"] = failures
    run.finish()
    if failures == len(results):
        print("error: every sweep row failed", file=sys.stderr)
        return EXIT_NO_EQUILIBRIUM
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="preytaxis-lab",
        description="Analysis and simulation of predator-prey dynamics with "
        "prey-density-dependent motility on 1D intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("equilibria", "dispersion", "bifurcation", "simulate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", help="output directory (overrides [output])")
        p.add_argument("--seed", type=int, help="PRNG seed (overrides [solver])")
        if name == "sweep":
            p.add_argument(
                "--simulate",
                action="store_true",
                help="classify each sweep point by a nonlinear simulation",
            )
    args = parser.parse_args(argv)

    try:
        rc = load_config(args.config)
        if args.out:
            rc.out_dir = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            rc.seed = args.seed
        if args.command == "equilibria":
            return cmd_equilibria(rc)
        if args.command == "dispersion":
            return cmd_dispersion(rc)
        if args.command == "bifurcation":
            return cmd_bifurcation(rc)
        if args.command == "simulate":
            return cmd_simulate(rc)
        return cmd_sweep(rc, simulate=args.simulate)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except MissingEquilibriumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_EQUILIBRIUM


if __name__ == "__main__":
    sys.exit(main())
