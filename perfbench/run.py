"""Benchmark of alap: three CLI workloads on the hydrostatic dam.

    python3 perfbench/run.py --workload solve_p3 --seed 1 --seconds 20 --trace 0

Workloads (see ``worker.WORKLOADS``):

* ``solve_p3``: ``alap solve`` at p=3 on a 97^2 grid;
* ``solve_p2_fine``: ``alap solve`` at p=2 on a 257^2 grid;
* ``certify_dam``: eight certificate commands on ``configs/dam.cfg``.

The load is a closed loop with one client: one workload run at a time, each
in a fresh Python process, with one thread per process, repeated while the
next run would still end within ``--seconds`` (at least twice untraced, and
at least once traced). ``--seed`` is
passed to every command as its sampling seed. Every command's outputs are checked; a command
that raises, exits non-zero, reports no convergence or misses the exact dam
head by more than the grid spacing is a failed operation.

With ``--trace 0`` the runs are unwrapped and give the end-to-end metrics;
set-up time also comes from extra processes that only import the program
and load the config. With ``--trace 1`` each untraced run is paired with a
traced one, which gives the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full report, with the environment.
"""

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from worker import WORKLOADS  # noqa: E402  (imports only the standard library)

#: end-to-end metrics of the final result line, as in BENCHMARK.json
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
#: outputs of the latest run, under the checkout
OUT_DIR = ".perfbench_out"
#: untraced workload runs per benchmark run, however long one takes: the
#: median of two is steadier than one run on a noisy shared host
UNTRACED_AT_LEAST = 2
#: extra set-up-only processes per untraced run
SETUP_PROBES = 3
#: a run ends within this many seconds, whatever ``--seconds`` says
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def environment(seed, env):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "seed": seed,
        "threads": {var: env[var] for var in THREAD_VARS},
        "loop": "closed, one client, one workload process at a time",
    }


def spawn(args, env, timeout):
    """Run the worker in a fresh process; (record, None) or (None, reason)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    spawn_time = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(spawn_time)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"worker exit {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), None


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p < 1:
        return None
    return {"p": p, "value": statistics.quantiles(samples, n=100, method="inclusive")[p - 1]}


def timing(samples, unit):
    return {"value": statistics.median(samples), "unit": unit, "n": len(samples),
            "tail": tail_percentile(samples), "samples": samples}


class Runs:
    """Worker processes of one benchmark run, with their failure count."""

    def __init__(self, workload, seed, out_base, env, started):
        self.workload, self.seed, self.out_base, self.env = workload, seed, out_base, env
        self.deadline = started + RUN_LIMIT_S
        self.records, self.errors = [], []
        self.attempted = self.failed = 0
        self._count = 0

    def remaining(self):
        return self.deadline - time.monotonic()

    def setup_probe(self):
        rec, err = spawn(["--workload", self.workload, "--setup-only"], self.env,
                         self.remaining())
        if rec is None:
            raise SystemExit(f"perfbench: set-up probe failed: {err}")
        return rec["setup_s"]

    def rep(self, trace=False):
        self._count += 1
        out = os.path.join(self.out_base, f"rep{self._count:02d}{'-traced' if trace else ''}")
        args = ["--workload", self.workload, "--seed", str(self.seed), "--out", out]
        rec, err = spawn(args + (["--trace"] if trace else []), self.env, self.remaining())
        ops = len(WORKLOADS[self.workload].commands)
        self.attempted += ops if rec is None else rec["attempted"]
        self.failed += ops if rec is None else rec["failed"]
        if rec is None:
            self.errors.append(err)
            return
        self.errors += [f"{op['command']}: {op['failure']}" for op in rec["ops"] if op["failure"]]
        rec["traced"] = trace
        self.records.append(rec)

    def repeat(self, seconds, one_round, at_least):
        """Run ``one_round`` ``at_least`` times, then again while another
        round, as long as the longest so far, still ends within ``seconds``;
        never past the run's deadline."""
        t0 = time.monotonic()
        longest = 0.0
        for done in itertools.count(1):
            t = time.monotonic()
            one_round()
            longest = max(longest, time.monotonic() - t)
            ends = time.monotonic() + longest
            if ends > self.deadline or (done >= at_least and ends - t0 > seconds):
                return


def end_to_end(runs, setup_samples):
    recs = [r for r in runs.records if not r["traced"]]
    if not recs:
        return None
    errs = [r["u_err_inf"] for r in recs if r["u_err_inf"] is not None]
    return {
        "wall_s": timing([r["wall_s"] for r in recs], "s"),
        "setup_s": timing(setup_samples + [r["setup_s"] for r in recs], "s"),
        "peak_rss_mb": timing([r["peak_rss_mb"] for r in recs], "MB"),
        "fail_rate": {"value": runs.failed / runs.attempted, "unit": "ratio",
                      "attempted": runs.attempted},
        "u_err_inf": {"value": max(errs) if errs else None, "unit": "head"},
        "csv_unparsed_cells": {"value": max(r["csv_unparsed_cells"] for r in recs),
                               "unit": "count"},
    }


def per_layer(runs):
    traced = [r for r in runs.records if r["traced"]]
    plain = [r for r in runs.records if not r["traced"]]
    if not traced or not plain:
        return None, None
    layers = {name: {"value": v, "unit": unit} for name, (v, unit) in traced[0]["layers"].items()}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    layers["trace.overhead_s"] = {
        "value": traced_wall - statistics.median(r["wall_s"] for r in plain), "unit": "s"}
    # counts must repeat exactly between traced runs of the same inputs
    counts = [{k: v for k, (v, unit) in r["layers"].items() if unit == "count"} for r in traced]
    return layers, all(c == counts[0] for c in counts)


def _note(metric, failed):
    if "attempted" in metric:
        return f"  ({failed} of {metric['attempted']} operations failed)"
    if "n" not in metric:
        return ""
    tail = metric["tail"]
    if tail is None:
        return f"  (median of {metric['n']}; no percentile has ten samples beyond it)"
    return f"  (median of {metric['n']}; p{tail['p']} {tail['value']!r})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    workload = WORKLOADS[args.workload]
    needed = [os.path.join(ROOT, "src", "alap", "cli.py"), workload.config_path()]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from an alap checkout",
              file=sys.stderr)
        return 2

    # only the latest run's outputs are kept
    shutil.rmtree(os.path.join(ROOT, OUT_DIR), ignore_errors=True)
    out_base = os.path.join(ROOT, OUT_DIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_base)
    env = child_env()
    runs = Runs(args.workload, args.seed, out_base, env, started)

    counters_repeat = None
    if args.trace:
        runs.repeat(args.seconds, lambda: (runs.rep(), runs.rep(trace=True)), at_least=1)
        metrics, counters_repeat = per_layer(runs)
    else:
        setup_samples = [runs.setup_probe() for _ in range(SETUP_PROBES)]
        runs.repeat(args.seconds, runs.rep, at_least=UNTRACED_AT_LEAST)
        metrics = end_to_end(runs, setup_samples)
    if metrics is None:
        print("perfbench: no run finished: " + "; ".join(runs.errors), file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "why": workload.why,
        "trace": args.trace,
        "environment": environment(args.seed, env),
        "runs": len(runs.records),
        "errors": runs.errors,
        "metrics": metrics,
    }
    if counters_repeat is not None:
        report["counters_repeat"] = counters_repeat
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']!r:>24} {m['unit']}{_note(m, runs.failed)}")
    for err in runs.errors:
        print(f"failed: {err}")
    print(json.dumps(report))

    names = set(metrics) if args.trace else set(END_TO_END)
    print(json.dumps({
        "correct": runs.failed == 0 and counters_repeat is not False,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items() if k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
