"""Regenerate the stored reference outputs of every workload.

    python3 perfbench/make_reference.py

Runs each workload once at the default seed and copies the compared files
into perfbench/reference/<workload>/.  Only do this for a change that is
meant to alter the numbers, and state the tolerance against the old
outputs in the change description.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import tempfile

from run import CONFIGS, RUNS_DIR, SRC
from workloads import DEFAULT_SEED, MEMBERS_FILE, REFERENCE_DIR, WORKLOADS, recording_members, write_config


def main() -> int:
    sys.path.insert(0, SRC)
    from preytaxis_lab import cli

    os.makedirs(RUNS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=RUNS_DIR)
    try:
        for w in WORKLOADS.values():
            config, out = os.path.join(work, f"{w.name}.ini"), os.path.join(work, w.name)
            write_config(w, CONFIGS, config)
            record = MEMBERS_FILE in w.reference_files
            with recording_members(cli, out) if record else contextlib.nullcontext():
                code = cli.main([*w.argv, "--config", config, "--out", out, "--seed", str(DEFAULT_SEED)])
            if code != 0:
                print(f"{w.name}: exit code {code}", file=sys.stderr)
                return 1
            dest = os.path.join(REFERENCE_DIR, w.name)
            os.makedirs(dest, exist_ok=True)
            for name in w.reference_files:
                shutil.copyfile(os.path.join(out, name), os.path.join(dest, name))
            print(f"{w.name}: wrote {', '.join(w.reference_files)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
