#!/usr/bin/env python3
"""CLI-job benchmark for voacensus.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A workload is a fixed list of CLI
jobs (see jobs.py).  Each job is one fresh `python -m voacensus.cli`
process, run one at a time (closed loop, one client), so no registry cache
carries over between jobs, just as for a user.  Jobs get a scrubbed
environment: PYTHONPATH is the checkout's src/, VOA_CUTOFF and other
PYTHON* settings are removed, and BLAS/OpenMP pools are held to one thread.

A run repeats passes over the job list for about S seconds (at least two
passes; a pass starts only if it is expected to end in time) and reports
the median over passes.  Interpreter start-up to `voacensus.cli` imported
(setup_s) is probed a few times per pass, spread between the jobs, and
reported as the median of all probes of the run.  Every job is
checked against its pinned output; a wrong exit code, a differing report,
a failed seeded check or a timeout counts as a failed job, and its output
is saved under .perfbench_out/failed/.

With --trace 1, each round runs every job untraced and traced, back to
back and in alternating order, so that both passes see the same machine
state (at least one round).  Traced jobs run through tracer.py, which wraps the layer
functions from outside src/.  The per-layer metrics are calls, total and
self time per function (median over traced passes), per-command wall time,
and the tracing overhead (traced minus untraced total_s).  Calls must
repeat exactly between traced passes and between traced runs of one seed
on the same sources.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A full record with machine facts goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACER = BENCH / "tracer.py"

sys.path.insert(0, str(BENCH))
import jobs as jobs_mod  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

START_PROBES = 3
PROBES_PER_PASS = 4
MIN_ROUNDS = {False: 2, True: 1}  # a traced round holds two passes
JOB_TIMEOUT_S = 60.0        # the slowest job takes about 9 s on 2 cores
RUN_LIMIT_S = 170.0         # no job may run past this point of the run
COMMANDS = ("group", "fischer", "census", "griess", "characters")
PROBE = ("import sys, numpy, voacensus.cli as cli; "
         "print(cli.__file__, numpy.__version__, flush=True)")


def job_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k != "VOA_CUTOFF" and not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


@dataclass
class ProcResult:
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    exit_code: int | None       # None: killed at its timeout


def run_process(argv: list[str], stdout_path: Path, stderr_path: Path,
                timeout: float) -> ProcResult:
    """Run one process to completion; wall time is spawn to reap."""
    killed = []

    def kill(pid: int) -> None:
        killed.append(pid)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=job_env(),
                                cwd=ROOT, stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      None if killed else proc.returncode)


def probe_setup() -> tuple[float, str, str]:
    """Seconds from spawning an interpreter to `voacensus.cli` imported."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=job_env(), cwd=ROOT,
                            stdin=subprocess.DEVNULL)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate()
    finally:
        timer.cancel()
    if proc.returncode != 0 or not line:
        raise RuntimeError("cannot import voacensus.cli from src/: "
                           + err.decode(errors="replace").strip()[-300:])
    cli_file, numpy_version = line.decode().split()
    return elapsed, cli_file, numpy_version


@dataclass
class PassResult:
    traced: bool
    total_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    command_s: dict = field(default_factory=lambda: dict.fromkeys(COMMANDS, 0.0))
    attempted: int = 0
    failures: list = field(default_factory=list)
    functions: dict = field(default_factory=dict)
    spans: int = 0


class Runner:
    def __init__(self, workload: str, seed: int, run_start: float):
        self.workload = workload
        self.seed = seed
        self.run_start = run_start
        self.jobs = jobs_mod.workload_jobs(workload, seed)
        self.probe_every = -(-len(self.jobs) // PROBES_PER_PASS)
        self.probes: list[float] = []
        self.scratch = OUT / "jobs"
        self.failed_dir = OUT / "failed"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def run_round(self, index: int, kinds: tuple[bool, ...]) -> list[PassResult]:
        """One pass per kind; each job runs once per kind, back to back.

        The order of the kinds flips from job to job, so that neither pass
        always gets the second, warmer run of a job.
        """
        results = [PassResult(traced) for traced in kinds]
        for res in results:
            if res.traced:
                res.functions = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for k, job in enumerate(self.jobs):
            if k % self.probe_every == 0:
                self.probes.append(probe_setup()[0])
            for res in (results if k % 2 == 0 else results[::-1]):
                self._run_job(index, job, res)
        return results

    def _run_job(self, index: int, job: jobs_mod.Job, res: PassResult) -> None:
        out = self.scratch / f"{job.name}.out"
        err = self.scratch / f"{job.name}.err"
        summary = self.scratch / f"{job.name}.trace.json"
        if res.traced:
            argv = [sys.executable, str(TRACER), str(summary), *job.args]
        else:
            argv = [sys.executable, "-m", "voacensus.cli", *job.args]
        budget = RUN_LIMIT_S - (perf_counter() - self.run_start)
        res.attempted += 1
        if budget <= 0:
            res.failures.append((job.name, "run time limit reached before the job"))
            return
        pr = run_process(argv, out, err, min(JOB_TIMEOUT_S, budget))
        res.total_s += pr.wall_s
        res.cpu_s += pr.cpu_s
        res.peak_rss_mib = max(res.peak_rss_mib, pr.maxrss_kib / 1024)
        res.command_s[job.command] += pr.wall_s
        if pr.exit_code is None:
            reason = f"timed out after {pr.wall_s:.1f} s"
        else:
            reason = job.check(pr.exit_code, out.read_bytes())
        if reason is None and res.traced:
            reason = self._add_trace(res, summary)
        if reason is not None:
            res.failures.append((job.name, reason))
            self._keep_failed(index, job.name, out, err)

    @staticmethod
    def _add_trace(res: PassResult, summary: Path) -> str | None:
        try:
            data = json.loads(summary.read_text())
        except (OSError, ValueError) as exc:
            return f"no trace summary: {exc}"
        res.spans += data["spans"]
        for name, (calls, total, self_s) in data["functions"].items():
            row = res.functions[name]
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return None

    def _keep_failed(self, index: int, name: str, out: Path, err: Path) -> None:
        self.failed_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}-pass{index}-{name}"
        shutil.copyfile(out, self.failed_dir / f"{stem}.out")
        shutil.copyfile(err, self.failed_dir / f"{stem}.err")


def run_passes(runner: Runner, seconds: float, trace: bool) -> list[PassResult]:
    """Rounds for about `seconds`, at least MIN_ROUNDS of them.

    With tracing a round is an untraced and a traced pass whose jobs
    alternate, so both see the same machine state and their difference is
    the tracing overhead.
    """
    kinds = (False, True) if trace else (False,)
    start = perf_counter()
    durations: list[float] = []
    passes: list[PassResult] = []
    while True:
        elapsed = perf_counter() - start
        if len(durations) >= MIN_ROUNDS[trace]:
            if elapsed + statistics.median(durations) > seconds:
                break
        if perf_counter() - runner.run_start > RUN_LIMIT_S:
            break
        t0 = perf_counter()
        results = runner.run_round(len(durations), kinds)
        durations.append(perf_counter() - t0)
        passes += results
        for res in results:
            print(f"round {len(durations)} {'traced' if res.traced else 'untraced'}: "
                  f"total {res.total_s:.3f} s, cpu {res.cpu_s:.3f} s, "
                  f"failed {len(res.failures)}/{res.attempted}", flush=True)
            for name, reason in res.failures:
                print(f"  FAILED {name}: {reason}", flush=True)
    return passes


def median_of(passes: list[PassResult], get) -> float:
    return statistics.median(get(p) for p in passes)


def end_to_end(setup_s: float, plain: list[PassResult]) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "total_s": (median_of(plain, lambda p: p.total_s), "s"),
        "cpu_s": (median_of(plain, lambda p: p.cpu_s), "s"),
        "peak_rss_mib": (median_of(plain, lambda p: p.peak_rss_mib), "MiB"),
    }


def per_layer(plain: list[PassResult], traced: list[PassResult]) -> tuple[dict, list]:
    """Layer metrics from a traced run, and any work-count mismatches."""
    metrics = {}
    problems = []
    for name in SPAN_NAMES:
        counts = {p.functions[name][0] for p in traced}
        if len(counts) != 1:
            problems.append(f"{name}.calls differs between traced passes: "
                            f"{sorted(counts)}")
        metrics[f"{name}.calls"] = (traced[0].functions[name][0], "count")
        metrics[f"{name}.total_s"] = (
            median_of(traced, lambda p: p.functions[name][1]), "s")
        metrics[f"{name}.self_s"] = (
            median_of(traced, lambda p: p.functions[name][2]), "s")
    spans = {p.spans for p in traced}
    if len(spans) != 1:
        problems.append(f"span count differs between traced passes: {sorted(spans)}")
    metrics["trace.spans"] = (traced[0].spans, "count")
    for cmd in COMMANDS:
        metrics[f"{cmd}_s"] = (median_of(plain, lambda p: p.command_s[cmd]), "s")
    plain_total = median_of(plain, lambda p: p.total_s)
    traced_total = median_of(traced, lambda p: p.total_s)
    metrics["trace.untraced_total_s"] = (plain_total, "s")
    metrics["trace.traced_total_s"] = (traced_total, "s")
    metrics["trace.overhead_s"] = (traced_total - plain_total, "s")
    return metrics, problems


def calls_changed(previous: Path, facts: dict, metrics: dict) -> list[str]:
    """Work counts must repeat exactly across traced runs of one seed and source."""
    try:
        old = json.loads(previous.read_text())
    except (OSError, ValueError):
        return []
    if old["facts"]["src_sha256"] != facts["src_sha256"]:
        return []
    return [f"{name} is {value}, an earlier run of this seed had {old['metrics'].get(name)}"
            for name, (value, unit) in metrics.items()
            if unit == "count" and old["metrics"].get(name) != value]


def machine_facts(cli_file: str, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "voacensus_cli": cli_file,
    }


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    run_start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "voacensus" / "cli.py").is_file():
        print(f"perfbench: no voacensus sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        probe_setup()                   # warm-up: byte-compiles src/ once
        probes = [probe_setup() for _ in range(START_PROBES)]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cli_file = probes[0][1]
    if not Path(cli_file).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: voacensus.cli resolved outside src/: {cli_file}",
              file=sys.stderr)
        return 2
    facts = machine_facts(cli_file, probes[0][2])
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; {json.dumps(facts)}", flush=True)

    runner = Runner(args.workload, args.seed, run_start)
    runner.probes += [p[0] for p in probes]
    passes = run_passes(runner, args.seconds, bool(args.trace))
    setup_s = statistics.median(runner.probes)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if not plain or (args.trace and not traced):
        print("perfbench: the run limit was reached before every kind of pass ran",
              file=sys.stderr)
        return 1
    problems = [f"pass {i}: {name}: {reason}" for i, p in enumerate(passes)
                for name, reason in p.failures]
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        metrics, count_problems = per_layer(plain, traced)
        problems += count_problems + calls_changed(record_path, facts, metrics)
    else:
        metrics = end_to_end(setup_s, plain)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts,
        "jobs": [" ".join(j.args) for j in runner.jobs],
        "setup_probes_s": runner.probes,
        "passes": [{"traced": p.traced, "total_s": p.total_s, "cpu_s": p.cpu_s,
                    "peak_rss_mib": p.peak_rss_mib, "command_s": p.command_s,
                    "failures": p.failures} for p in passes],
        "fail_frac": failed / attempted,
        "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"problem: {problem}", flush=True)
    print(f"fail_frac {failed}/{attempted}", flush=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
