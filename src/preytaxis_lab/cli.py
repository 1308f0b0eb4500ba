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

Every manifest records the sampled check of hypotheses H1-H4 on [0, 2K];
``dispersion``'s also records the steady and Hopf bands in k^2.

Each config key is one ``RunConfig`` field, which holds its ``[section]``,
parser, default (config text for the parser) and range check; parsing,
validation and the manifest's config echo read those fields.  Each setting
has one key: ``[domain] length`` is the interval that ``simulate`` solves
on and that ``dispersion`` and ``sweep`` classify Neumann modes on, up to
the cutoff ``unstable_modes`` computes.

All numeric CSV fields carry 17 significant digits (exact float
round-trip); re-running a subcommand with the same config and seed
produces byte-identical CSV bodies.

The all-float tables (timeseries.csv, snapshots.csv, final_state.csv,
curves.csv) come from ``_floatcsv``, imported when the first is written.
It makes the 17 digits of each |x| in [1e-11, 1e17) from one long-double
product of |x| and an exact power of ten, truncated and rounded to an
integer, which is proven equal to ``'%.17g' % x`` where the product's
fraction is not exactly 0.5; every other value, and every value where
long double has no 64-bit significand, takes ``'%.17g' % x`` itself.
Tables with str or int fields are written row by row from %-templates
(``_table``).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import operator
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import compress

import numpy as np

from . import __version__
from .diagnostics import (
    InsufficientDataError,
    classify_pattern,
    decay_fit,
    tail_rows,
)
from .linstab import (
    StabilityClass,
    beta_coefficients,
    dispersion,
    grid_decay_rate,
    hopf_band,
    linearize,
    min_stabilizing_D,
    steady_band,
    steady_band_threshold,
    unstable_modes,
)
from .model import (
    KineticsModel,
    MotilityKind,
    MotilityModel,
    Regime,
    check_hypotheses,
    compute_equilibria,
    global_stability_report,
)
from .solver import (
    PRNG_NAME,
    SCHEMES,
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


# Config value parsers: each takes the stripped raw string and raises
# ValueError with the reason it is rejected.


def _finite(raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ValueError("not a number") from None
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _integer(raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError("not an integer") from None


def _choice(*names: str, **aliases: str):
    """Parser of a name from ``names``, or of an alias mapped to one."""
    options = {**{name: name for name in names}, **aliases}

    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"unknown, expected one of {sorted(options)}")
        return options[raw]

    return parse


def _value_list(raw: str) -> list[float]:
    """Scalar, comma list, or 'lin:lo:hi:n' / 'log:lo:hi:n' range."""
    if raw.startswith(("lin:", "log:")):
        parts = raw.split(":")
        if len(parts) != 4:
            raise ValueError("range needs kind:lo:hi:count")
        lo, hi, count = _finite(parts[1]), _finite(parts[2]), _integer(parts[3])
        if count < 2:
            raise ValueError("range needs count >= 2")
        if parts[0] == "log":
            if lo <= 0 or hi <= 0:
                raise ValueError("log range needs positive bounds")
            return list(np.geomspace(lo, hi, count))
        return list(np.linspace(lo, hi, count))
    values = [_finite(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty value list")
    return values


def _key(section: str, key: str, parse, default: str, check=None):
    """A ``RunConfig`` field read from ``key`` in ``[section]`` by ``parse``.
    ``default`` is config text for ``parse``; ``check`` is None or
    (predicate, message)."""
    return field(
        default_factory=partial(parse, default),
        metadata={"section": section, "key": key, "parse": parse, "check": check},
    )


@dataclass
class RunConfig:
    """Run settings, one ``_key`` field per config key.  The constructors in
    model/solver repeat some range checks for library callers; these guard
    file input for every subcommand, including those that never build a
    grid or solver."""

    model_kind: str = _key(
        "model", "kind",
        _choice("lv", "rm", lotka_volterra="lv", rosenzweig_macarthur="rm"), "rm",
    )
    gamma: float = _key("model", "gamma", _finite, "2")
    theta: float = _key("model", "theta", _finite, "1")
    alpha: float = _key("model", "alpha", _finite, "0")
    mu: float = _key("model", "mu", _finite, "1")
    K: float = _key("model", "K", _finite, "4")
    lam: float = _key("model", "lambda", _finite, "1")
    mot_kind: str = _key(
        "motility", "kind", _choice(*(k.value for k in MotilityKind)), "d1"
    )
    d_const: float = _key("motility", "d_const", _finite, "1")
    chi_const: float = _key("motility", "chi_const", _finite, "0")
    length: float = _key(
        "domain", "length", _finite, "25.132741228718345",  # 8*pi
        (lambda x: x > 0, "domain length must be positive"),
    )
    n_cells: int = _key(
        "domain", "n_cells", _integer, "256", (lambda n: n >= 8, "n_cells must be >= 8")
    )
    scheme: str = _key("solver", "scheme", _choice(*SCHEMES), "rk4")
    cfl_safety: float = _key(
        "solver", "cfl_safety", _finite, "0.4",
        (lambda c: 0.0 < c <= 1.0, "cfl_safety must lie in (0, 1]"),
    )
    t_end: float = _key(
        "solver", "t_end", _finite, "500", (lambda t: t > 0, "t_end must be positive")
    )
    snapshot_count: int = _key(
        "solver", "snapshot_count", _integer, "200",
        (lambda n: n >= 2, "snapshot_count must be >= 2"),
    )
    epsilon: float = _key(
        "solver", "epsilon", _finite, "0.01", (lambda e: e >= 0, "epsilon must be >= 0")
    )
    seed: int = _key(
        "solver", "seed", _integer, "0",
        (lambda s: 0 <= s < 2**64, "seed must be a nonnegative 64-bit integer"),
    )
    D_values: list[float] = _key(
        "analysis", "D", _value_list, "0.1",
        (lambda Ds: all(D > 0 for D in Ds), "diffusivity D must be positive"),
    )
    eta_grid: np.ndarray = _key(
        "analysis", "eta_grid", lambda raw: np.array(_value_list(raw)), "log:1e-2:1e2:200",
        (lambda eta: bool(np.all(eta > 0)), "eta_grid values must be positive"),
    )
    out_dir: str = _key("output", "directory", str, "out")

    @property
    def D(self) -> float:
        if len(self.D_values) != 1:
            raise ConfigError("this subcommand needs a single diffusivity D")
        return self.D_values[0]

    def echo(self) -> dict:
        """The config as the manifest records it, one entry per field."""
        out: dict = {}
        for f in fields(self):
            key, value = f.metadata["key"], getattr(self, f.name)
            if key == "eta_grid":
                key, value = "eta_grid_points", int(value.size)
            out.setdefault(f.metadata["section"], {})[key] = value
        return out


_KEYS = {(f.metadata["section"], f.metadata["key"]): f for f in fields(RunConfig)}
_SECTIONS = {section for section, _ in _KEYS}


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
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            f = _KEYS.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                value = f.metadata["parse"](raw.strip())
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}={raw!r}: {exc}") from exc
            setattr(rc, f.name, value)
    return rc


def build_models(rc: RunConfig) -> tuple[KineticsModel, MotilityModel]:
    """Instantiate the kinetics/motility models and run the fields' range
    checks; range errors map to exit 3."""
    try:
        if rc.model_kind == "lv":
            kin = KineticsModel.lotka_volterra(rc.gamma, rc.theta, rc.alpha, rc.mu, rc.K)
        else:
            kin = KineticsModel.rosenzweig_macarthur(
                rc.gamma, rc.theta, rc.mu, rc.K, rc.lam, rc.alpha
            )
        mot = MotilityModel(MotilityKind(rc.mot_kind), rc.d_const, rc.chi_const)
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    for f in fields(rc):
        check = f.metadata["check"]
        if check is not None and not check[0](getattr(rc, f.name)):
            raise ModelError(check[1])
    return kin, mot


# ---------------------------------------------------------------------------
# Output helpers


def _template(kinds: tuple[type, ...], nans: tuple[bool, ...]) -> str:
    """%-template of a CSV line whose fields have the given types: str as
    is, int in decimal, float with 17 significant digits.  Fields flagged
    in ``nans`` are written empty and take no value."""
    return ",".join(
        "" if nan
        else "%s" if issubclass(k, str)
        else "%d" if issubclass(k, (int, np.integer))
        else "%.17g"
        for k, nan in zip(kinds, nans)
    ) + "\n"


def _table(rows):
    """(line, 1) blocks of tuple rows for ``_write_csv``; NaN is written as
    an empty field.

    Each line is one %-template over the row (pass Python floats, e.g.
    from ``.tolist()``, for speed).  The template is picked by the row's
    field types and NaN fields (the only values unequal to themselves),
    which it writes empty, so every row is formatted once.
    """
    templates: dict[tuple, tuple[str, tuple[bool, ...] | None]] = {}
    for row in rows:
        nans = tuple(map(operator.ne, row, row))
        key = (tuple(map(type, row)), nans)
        entry = templates.get(key)
        if entry is None:
            keep = tuple(not nan for nan in nans) if True in nans else None
            entry = templates[key] = (_template(key[0], nans), keep)
        template, keep = entry
        yield template % (row if keep is None else tuple(compress(row, keep))), 1


def _write_csv(path: str, header: tuple[str, ...], blocks) -> int:
    """Write the header line, then each (text, rows) block; returns the
    number of rows written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for text, rows in blocks:
            fh.write(text)
            count += rows
    return count


def _json_float(x: float):
    """x, or None (JSON null) when it is NaN or infinite."""
    return x if math.isfinite(x) else None


def _hypotheses(kin: KineticsModel, mot: MotilityModel) -> dict:
    """``check_hypotheses`` on [0, 2K], so that H3's clause beyond K is
    sampled, as the manifest records it."""
    report = check_hypotheses(kin, mot, 2.0 * kin.K)
    out = {"v_max": report.v_max, "n_samples": report.n_samples}
    for name in ("H1", "H2", "H3", "H4"):
        finding = asdict(getattr(report, name.lower()))
        out[name] = {**finding, "status": finding["status"].value}
    return out


class _Run:
    """Collects output files and writes the manifest atomically at the end;
    the manifest records the models' hypothesis check."""

    def __init__(self, rc: RunConfig, command: str, kin: KineticsModel, mot: MotilityModel):
        self.rc = rc
        self.command = command
        self.dir = rc.out_dir
        os.makedirs(self.dir, exist_ok=True)
        self.files: list[dict] = []
        self.extra: dict = {"hypotheses": _hypotheses(kin, mot)}
        self.started = time.time()

    def csv(self, name: str, header: tuple[str, ...], blocks) -> str:
        path = os.path.join(self.dir, name)
        count = _write_csv(path, header, blocks)
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
    kin, mot = build_models(rc)
    eqs = compute_equilibria(kin)
    run = _Run(rc, "equilibria", kin, mot)
    run.csv(
        "equilibria.csv",
        ("kind", "u", "v", "residual"),
        _table((e.kind.value, e.u, e.v, e.residual) for e in eqs.states),
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
    run = _Run(rc, "dispersion", kin, mot)

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
        _table(rows()),
    )
    modes = unstable_modes(kin, mot, rc.D, co, rc.length)
    run.csv(
        "modes.csv",
        ("n", "k", "class"),
        _table((m.n, m.k, m.klass.value) for m in modes),
    )
    coef = sys_.coefficients
    run.extra["bands"] = {
        name: None if band is None else [_json_float(x) for x in band]
        for name, band in (
            ("steady", steady_band(coef, rc.D, sys_.d_star)),
            ("hopf", hopf_band(coef, rc.D, sys_.d_star)),
        )
    }
    try:
        run.extra["beta"] = asdict(beta_coefficients(kin, mot, co))
        run.extra["min_stabilizing_D"] = asdict(min_stabilizing_D(kin, mot, co, rc.length))
    except ValueError:
        pass
    run.finish()
    return EXIT_OK


def cmd_bifurcation(rc: RunConfig) -> int:
    kin, mot = build_models(rc)
    co = _coexistence_or_fail(kin).coexistence
    try:
        beta = beta_coefficients(kin, mot, co)
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    d_star = float(mot.d(co.v))
    curve = beta.curves(d_star, rc.eta_grid)
    run = _Run(rc, "bifurcation", kin, mot)
    from . import _floatcsv

    run.csv(
        "curves.csv",
        ("eta", "D_H", "D_S"),
        _floatcsv.column_lines((curve.eta, curve.D_H, curve.D_S)),
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
    from . import _floatcsv

    s = traj.series
    run.csv(
        "timeseries.csv",
        _SERIES_HEADER,
        _floatcsv.column_lines([getattr(s, name) for name in _SERIES_HEADER]),
    )
    x = traj.grid.centers()
    run.csv(
        "snapshots.csv",
        ("t", "x", "u", "v"),
        _floatcsv.state_lines(x, ((st.t, st.u, st.v) for st in traj.snapshots), True),
    )
    if traj.snapshots:
        last = traj.snapshots[-1]
        final = _floatcsv.state_lines(x, [(last.t, last.u, last.v)], False)
        run.csv("final_state.csv", ("x", "u", "v"), final)


def cmd_simulate(rc: RunConfig) -> int:
    kin, mot = build_models(rc)
    eqs = compute_equilibria(kin)
    cfg = _solver_config(rc, kin, mot, eqs)
    run = _Run(rc, "simulate", kin, mot)
    try:
        traj = integrate(cfg)
    except (BlowUpError, NonPhysicalError) as exc:
        _write_trajectory(run, exc.trajectory)
        run.extra["failure_time"] = exc.t
        run.extra["run_stats"] = exc.trajectory.stats
        run.finish(status=exc.trajectory.status)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    _write_trajectory(run, traj)
    run.extra["run_stats"] = traj.stats
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


def _largest_increase(values: np.ndarray):
    """The largest rise of ``values`` from one row to the next, over the
    pairs of rows that are both not NaN; None where there is no such pair."""
    rises = np.diff(values)
    rises = rises[~np.isnan(rises)]
    return float(rises.max()) if rises.size else None


def _attach_decay(run: _Run, rc: RunConfig, kin, mot, eqs, traj: Trajectory):
    """Record a decay fit when the configuration sits in a provably stable
    regime (prey-only, or coexistence with D above the threshold).

    The block also records the largest one-row increase of V1 and of V2,
    which the paper's functionals do not have in those regimes, the rate
    of the slowest linear mode on the run's grid at the target
    (``linear_rate``), and in the prey-only regimes the predicted rate
    theta - gamma*F(K) of the predator's exponential decay."""
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
    decay = {
        "verdict": fit.verdict.value,
        "rate": fit.rate,
        "r_squared": fit.r_squared,
        "target": target.kind.value,
        "max_increase_V1": _largest_increase(traj.series.V1),
        "max_increase_V2": _largest_increase(traj.series.V2),
        "linear_rate": grid_decay_rate(linearize(kin, mot, rc.D, target), rc.length, rc.n_cells),
    }
    if target is eqs.prey_only:
        decay["predicted_rate"] = kin.theta - report.gamma_F_K
    run.extra["decay"] = decay


def _sweep_row(rc: RunConfig, kin, mot, D: float, simulate: bool):
    """The sweep.csv row of one diffusivity, and with ``simulate`` the
    member's manifest entry (None without a simulation)."""
    try:
        eqs = _coexistence_or_fail(kin)
        modes = unstable_modes(kin, mot, D, eqs.coexistence, rc.length)
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
        pattern, member = "", None
        if simulate:
            cfg = _solver_config(replace(rc, D_values=[D]), kin, mot, eqs)
            # The label comes from the series' tail window alone, so the rows
            # before it are not recorded; two snapshots (t = 0 and t_end) lie
            # on the series grid and add no output times.
            times = cfg.series_times()
            start = float(times[-tail_rows(times.size)])
            cfg = replace(cfg, snapshot_count=2, series_from=start)
            try:
                traj = integrate(cfg)
                pattern = classify_pattern(traj).label.value
            except (BlowUpError, NonPhysicalError) as exc:
                traj = exc.trajectory
                pattern = traj.status
            except InsufficientDataError:
                pattern = "insufficient_data"
            member = {"D": D, "series_from": start, "run_stats": traj.stats}
        return (D, n_hopf, n_steady, regime, pattern, ""), member
    except (MissingEquilibriumError, ValueError, RuntimeError) as exc:
        return (D, "", "", "", "", str(exc).replace(",", ";")), None


def cmd_sweep(rc: RunConfig, simulate: bool = False) -> int:
    if len(rc.D_values) < 2:
        raise ConfigError("sweep needs at least two diffusivity values")
    kin, mot = build_models(rc)
    results, members = zip(*(_sweep_row(rc, kin, mot, D, simulate) for D in rc.D_values))
    header = ("D", "n_unstable_hopf", "n_unstable_steady", "predicted_regime", "error")
    run = _Run(rc, "sweep", kin, mot)
    if simulate:
        header = header[:4] + ("pattern_class",) + header[4:]
        rows = results
        run.extra["members"] = [m for m in members if m is not None]
    else:
        rows = [(r[0], r[1], r[2], r[3], r[5]) for r in results]
    run.csv("sweep.csv", header, _table(rows))
    failures = sum(1 for r in results if r[5])
    run.extra["failed_rows"] = failures
    all_failed = failures == len(results)
    run.finish(status="failed" if all_failed else "ok")
    if all_failed:
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
    commands = {
        "equilibria": cmd_equilibria,
        "dispersion": cmd_dispersion,
        "bifurcation": cmd_bifurcation,
        "simulate": cmd_simulate,
        "sweep": lambda rc: cmd_sweep(rc, simulate=args.simulate),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
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
            in_range, message = _KEYS["solver", "seed"].metadata["check"]
            if not in_range(args.seed):
                raise ConfigError(f"--{message}")
            rc.seed = args.seed
        return commands[args.command](rc)
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
