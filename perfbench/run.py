"""End-to-end and per-layer benchmark of the preytaxis-lab command line.

    python3 perfbench/run.py --workload fig2_rk4 --seed 0 --seconds 25 --trace 0

Run from the repository root.  Each workload is a closed loop: one CLI run
at a time, from one process, on a config generated from a shipped
``configs/*.ini`` (see workloads.py).  The seed is passed to the CLI as
``--seed``.  Every run's outputs are checked; a run fails on a nonzero
exit, a manifest status other than ``ok``, or a failed output check.

--trace 0 reports the end-to-end metrics: wall_s (median of warmed
in-process runs), setup_s (median over fresh interpreters, one after each
timed run, so both sample the whole --seconds window) and peak_rss_mb (a
fresh process running the workload once).  wall_s and setup_s are in
seconds at a reference machine speed: each sample is scaled by a
program-independent speed probe taken around it (layers.probe_us); the
unscaled medians are printed beside them.  Metric names and units are
read from BENCHMARK.json.
--trace 1 alternates untraced and traced runs for --seconds (and until
10k steps are traced), adds the layer microbenchmarks and reports the
per-layer metrics.  Spans are kept in memory and written to
``.perfbench_runs/`` when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import layers
import metrics
from spans import Tracer, self_times
from workloads import (
    DEFAULT_SEED,
    MEMBERS_FILE,
    WORKLOADS,
    Expected,
    check_run,
    recording_members,
    write_config,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

MIN_SAMPLES = 5
MIN_STEP_SPANS = 10_000
MAX_TRACE_S = 120.0
CHILD_TIMEOUT_S = 120.0

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
from preytaxis_lab import cli
rc = cli.load_config(sys.argv[1])
kin, mot = cli.build_models(rc)
cli.compute_equilibria(kin)
print(time.perf_counter() - t0)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, index, "level")) as fl, open(
                os.path.join(base, index, "type")
            ) as ft, open(os.path.join(base, index, "size")) as fs:
                kind = {"Data": "d", "Instruction": "i"}.get(ft.read().strip(), "")
                caches[f"L{fl.read().strip()}{kind}"] = fs.read().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "caches_per_core": caches,
        "field_bytes": "256 cells x 8 B = 2 KiB per field; the step is dispatch-bound",
    }


class Bench:
    """One workload at one seed: generated config, runs and their checks."""

    def __init__(self, workload: str, seed: int, work: str):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.config = os.path.join(work, "config.ini")
        cfg = write_config(self.w, CONFIGS, self.config)
        self.expected = Expected.of(self.w, cfg)
        # one checked run per invocation also records the sweep members
        self.records_members = MEMBERS_FILE in self.w.reference_files
        self.expected_members = Expected.of(self.w, cfg, members=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.out = os.path.join(work, "out")  # in-process runs write here

    def argv(self, out: str) -> list[str]:
        return [*self.w.argv, "--config", self.config, "--out", out, "--seed", str(self.seed)]

    def record(self, label: str, out: str, exit_code: int, expected: Expected):
        self.attempted += 1
        problems = check_run(self.w, expected, out, self.seed, exit_code)
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:3]))

    def run_in_process(self, label: str, tracer: Tracer | None = None,
                       members: bool = False) -> tuple[float, float]:
        """One cli.main call; returns (wall seconds, process CPU seconds).

        ``members`` records and checks the sweep members' final states; the
        untimed warm-up run of every invocation does this.
        """
        from preytaxis_lab import cli

        members = members and self.records_members
        if tracer:
            context = tracer.request(label)
        elif members:
            context = recording_members(cli, self.out)
        else:
            context = contextlib.nullcontext()
        shutil.rmtree(self.out, ignore_errors=True)
        code = -1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with context:
                code = cli.main(self.argv(self.out))
        except Exception:  # a crash is a failed run, not a benchmark error
            traceback.print_exc(file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.record(label, self.out, code, self.expected_members if members else self.expected)
        return wall, cpu

    def setup_sample(self) -> float:
        res = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, self.config],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        return float(res.stdout.strip().splitlines()[-1])

    def peak_rss_mb(self) -> float:
        """Run the workload once in a fresh process; its own ru_maxrss."""
        out = os.path.join(self.work, "out_rss")
        proc = subprocess.Popen(
            [sys.executable, "-m", "preytaxis_lab.cli", *self.argv(out)],
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.record("rss", out, proc.returncode, self.expected)
        return usage.ru_maxrss / 1024.0  # KiB on Linux


def _summary(values: list[float]) -> str:
    if len(values) == 1:
        return "1 sample"
    return f"median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})"


def end_to_end(b: Bench, seconds: float) -> tuple[dict, dict]:
    """Alternate timed in-process runs with fresh-interpreter set-up samples
    over the whole window, with the speed probe taken between every two.

    Each time sample is scaled to the reference machine speed, by
    PROBE_REF_US over the mean of the probes just before and after it: the
    machine's speed shifts by up to 1.7x for seconds to minutes, far more
    than any useful bound, and the probe does not run program code.
    """
    b.run_in_process("warmup", members=True)
    raw: dict[str, list[float]] = {"wall_s": [], "setup_s": []}
    scaled: dict[str, list[float]] = {"wall_s": [], "setup_s": []}
    probes = [layers.probe_us()]
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(raw["wall_s"]) < MIN_SAMPLES:
        label = f"run{len(raw['wall_s'])}"
        for name, sample in (("wall_s", lambda: b.run_in_process(label)[0]),
                             ("setup_s", b.setup_sample)):
            value = sample()
            probes.append(layers.probe_us())
            raw[name].append(value)
            scaled[name].append(value * layers.PROBE_REF_US / statistics.mean(probes[-2:]))
    samples = {**scaled, "peak_rss_mb": [b.peak_rss_mb()],
               "raw_wall_s": raw["wall_s"], "raw_setup_s": raw["setup_s"], "probe_us": probes}
    values = {k: statistics.median(samples[k]) for k in ("wall_s", "setup_s", "peak_rss_mb")}
    return values, samples


def _per_request(spans, run_id: str, wall: float, cpu: float) -> dict:
    mine = [s for s in spans if s.run_id == run_id]
    selfs = self_times(mine)
    root = next(s for s in mine if s.parent_id is None)

    def named(*names):
        return [s for s in mine if s.name in names]

    def total(*names):
        return sum(s.duration for s in named(*names))

    integ = named("solver.integrate")
    integrate_s = total("solver.integrate")
    return {
        "solver.integrate_s": integrate_s,
        "solver.step_s": total("solver.rk4_step", "solver.imex_step"),
        "solver.steps": len(named("solver.rk4_step", "solver.imex_step")),
        "solver.rhs_evals": 4 * len(named("solver.rk4_step")) + len(named("solver.imex_step")),
        "solver.stable_dt_calls": len(named("solver.stable_dt")),
        "solver.stable_dt_s": total("solver.stable_dt"),
        "solver.loop_self_s": sum(selfs[s.span_id] for s in integ),
        "model.compute_equilibria_s": total("model.compute_equilibria"),
        "model.global_stability_report_s": total("model.global_stability_report"),
        "diagnostics.lyapunov_calls": len(named("diagnostics.lyapunov_v1", "diagnostics.lyapunov_v2")),
        "diagnostics.lyapunov_s": total("diagnostics.lyapunov_v1", "diagnostics.lyapunov_v2"),
        "diagnostics.classify_s": total("diagnostics.classify_pattern"),
        "diagnostics.decay_fit_s": total("diagnostics.decay_fit"),
        "linstab.unstable_modes_s": total("linstab.unstable_modes"),
        "cli.self_s": selfs[root.span_id],
        "cli.load_config_s": total("cli.load_config"),
        "cli.sweep_s_per_member": root.duration / max(1, len(integ)),
        "cli.pool_overlap": integrate_s / root.duration,
        "proc.cpu_s": cpu,
        "proc.cpu_util": cpu / wall,
    }


def _patch_layers(tracer: Tracer):
    from preytaxis_lab import cli, solver

    tracer.patch(cli, "load_config", "cli.load_config")
    tracer.patch(cli, "compute_equilibria", "model.compute_equilibria")
    tracer.patch(cli, "global_stability_report", "model.global_stability_report")
    tracer.patch(cli, "integrate", "solver.integrate")
    tracer.patch(cli, "classify_pattern", "diagnostics.classify_pattern")
    tracer.patch(cli, "decay_fit", "diagnostics.decay_fit")
    tracer.patch(cli, "unstable_modes", "linstab.unstable_modes")
    # integrate looks these up in the solver module at call time
    tracer.patch(solver, "rk4_step", "solver.rk4_step", value_arg=3)
    tracer.patch(solver, "imex_step", "solver.imex_step", value_arg=3)
    tracer.patch(solver, "stable_dt", "solver.stable_dt")
    tracer.patch(solver, "lyapunov_v1", "diagnostics.lyapunov_v1")
    tracer.patch(solver, "lyapunov_v2", "diagnostics.lyapunov_v2")


def per_layer(b: Bench, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    b.run_in_process("warmup", members=True)
    untraced: list[float] = []
    requests: list[dict] = []
    started = time.perf_counter()
    while True:
        untraced.append(b.run_in_process(f"untraced{len(untraced)}")[0])
        run_id = f"{b.w.name}-seed{b.seed}-req{len(requests)}"
        _patch_layers(tracer)
        try:
            wall, cpu = b.run_in_process(run_id, tracer)
        finally:
            tracer.unpatch()
        requests.append(_per_request(tracer.spans, run_id, wall, cpu))
        n_steps = sum(r["solver.steps"] for r in requests)
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_TRACE_S or (elapsed >= seconds and n_steps >= MIN_STEP_SPANS):
            break

    out = {k: statistics.median(r[k] for r in requests) for k in requests[0]}
    steps = [s for s in tracer.spans if s.name in ("solver.rk4_step", "solver.imex_step")]
    step_us = [s.duration * 1e6 for s in steps]
    out["solver.step_us_p50"] = statistics.median(step_us)
    out["solver.step_us_p99"] = statistics.quantiles(step_us, n=100)[98]
    out["solver.dt_min"] = min(s.value for s in steps)
    out["solver.dt_max"] = max(s.value for s in steps)
    with open(os.path.join(b.out, "manifest.json"), encoding="utf-8") as fh:
        out["cli.rows_written"] = sum(o["rows"] for o in json.load(fh)["outputs"])
    out["cli.bytes_written"] = sum(os.path.getsize(os.path.join(b.out, f)) for f in os.listdir(b.out))
    traced = [s.duration for s in tracer.spans if s.parent_id is None]
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    out.update(layers.microbench(CONFIGS))
    samples = {
        "requests": len(requests),
        "step_spans": len(steps),
        "traced_walls": traced,
        "untraced_walls": untraced,
    }
    return out, samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (os.path.isfile(os.path.join(SRC, "preytaxis_lab", "cli.py")) and os.path.isdir(CONFIGS)):
        print(f"perfbench: no program source under {ROOT}: need src/preytaxis_lab and configs/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = metrics.load_spec()
    names = spec["per_layer" if args.trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]

    os.makedirs(RUNS_DIR, exist_ok=True)
    stem = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    tracer = Tracer()
    try:
        b = Bench(args.workload, args.seed, work)
        calib = [layers.calib_us()]
        if args.trace:
            values, samples = per_layer(b, args.seconds, tracer)
        else:
            values, samples = end_to_end(b, args.seconds)
        calib.append(layers.calib_us())
        values["env.calib_us"] = statistics.median(calib)
        env = environment()
    finally:
        if tracer.spans:
            tracer.dump(stem + ".spans.jsonl")
        shutil.rmtree(work, ignore_errors=True)

    for msg in b.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {b.w.name} seed {args.seed}: closed loop, one run at a time, one process")
    print(f"  {why}")
    print(f"  generated from configs/{b.w.source} with "
          + ", ".join(f"[{s}] {k} = {v}" for s, k, v in b.w.overrides))
    for m in names:
        line = f"  {m['name']:34s} {values[m['name']]:.6g} {m['unit']}"
        if m["name"] in samples:
            line += f"   {_summary(samples[m['name']])}"
        print(line)
    if not args.trace:
        print(f"  {'(unscaled)':34s} wall_s {statistics.median(samples['raw_wall_s']):.6g} s, "
              f"setup_s {statistics.median(samples['raw_setup_s']):.6g} s; speed probe median "
              f"{statistics.median(samples['probe_us']):.4g} us against the reference "
              f"{layers.PROBE_REF_US:g} us")
        name, unit, _ = metrics.FAILED_FRAC
        print(f"  {name:34s} {len(b.failures) / b.attempted:.6g} {unit}"
              f"   {len(b.failures)} of {b.attempted} runs")
    else:
        wall = statistics.median(samples["traced_walls"])
        print(f"  traced requests {samples['requests']}, step spans {samples['step_spans']}, "
              f"traced wall {wall:.4g} s (median)")
        print(f"  step spans cover {values['solver.step_s'] / values['solver.integrate_s']:.0%} "
              f"of solver.integrate_s and {values['solver.step_s'] / wall:.0%} of the wall; "
              f"cli.self_s is {values['cli.self_s'] / wall:.0%} of the wall")
        for m, base in layers.RK4_BASELINE_US.items():
            got = values[f"solver.rk4_step_us.{m}"]
            verdict = "reproduces" if abs(got / base - 1.0) <= layers.BASELINE_NOISE else "does NOT reproduce"
            print(f"  rk4 step {m}: {got:.0f} us against the ROADMAP baseline ~{base:.0f} us"
                  f" ({got / base - 1.0:+.0%}): {verdict} within noise")
    print(f"  env.calib_us {values['env.calib_us']:.4g} (start {calib[0]:.4g}, end {calib[1]:.4g})")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not b.failures,
        "attempted": b.attempted,
        "failed": len(b.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "samples": samples, "calib_us": calib, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
