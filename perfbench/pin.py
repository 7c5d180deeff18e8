#!/usr/bin/env python3
"""Regenerate the pinned job outputs in perfbench/expected/ from src/.

Usage: python3 perfbench/pin.py

Runs every pinned invocation once in the benchmark's job environment and
stores its exit code and its report with the `wall_time_s` line removed.
Pin only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys

import jobs
from run import JOB_TIMEOUT_S, OUT, run_process


def main() -> int:
    jobs.EXPECTED.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    exit_codes = {}
    for args in jobs.pinned_args():
        name = jobs.slug(args)
        out, err = OUT / f"pin-{name}.out", OUT / f"pin-{name}.err"
        res = run_process([sys.executable, "-m", "voacensus.cli", *args],
                          out, err, JOB_TIMEOUT_S)
        if res.exit_code is None:
            print(f"{name}: timed out", file=sys.stderr)
            return 1
        exit_codes[name] = res.exit_code
        (jobs.EXPECTED / f"{name}.out").write_bytes(
            jobs.strip_wall_time(out.read_bytes()))
        print(f"{name}: exit {res.exit_code}, {res.wall_s:.2f} s", flush=True)
    (jobs.EXPECTED / "exit_codes.json").write_text(
        json.dumps(exit_codes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
