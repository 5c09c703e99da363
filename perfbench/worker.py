"""One workload run of the alap benchmark, in its own Python process.

Runs the workload's CLI commands serially through ``alap.cli.main``, times
them, then checks every command's outputs. Prints one JSON object as the
last line of standard output.

    python3 perfbench/worker.py --workload solve_p3 --seed 1 --out DIR [--trace]
    python3 perfbench/worker.py --workload solve_p3 --setup-only

``--spawn-time`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time is measured from it. Only the standard library is
imported before that mark is taken, and ``tracing`` only with ``--trace``.
"""

import argparse
import csv
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: header names of CSV columns that hold labels rather than numbers
TEXT_COLUMNS = frozenset({"barrier"})


@dataclass(frozen=True)
class Workload:
    """A config file and the CLI commands run on it, in order."""

    config: str  # relative to the repository root, or absolute
    commands: tuple  # tuples of (command, extra arguments...)
    why: str

    def config_path(self, root=ROOT):
        return os.path.join(root, self.config)


WORKLOADS = {
    "solve_p3": Workload(
        "perfbench/configs/dam_p3_97.cfg",
        (("solve",),),
        "degenerate p=3 dam solve: Newton steps and the DST-preconditioned linear solve",
    ),
    "solve_p2_fine": Workload(
        "perfbench/configs/dam_p2_257.cfg",
        (("solve",),),
        "p=2 dam solve at 257^2: one Newton step per sweep, residuals and CSV output",
    ),
    "certify_dam": Workload(
        "configs/dam.cfg",
        (
            ("check-profile",), ("check-barriers",), ("trace",), ("verify-fb", "--h", "0.2"),
            ("growth",), ("harnack",), ("rescale",), ("boundary-growth",),
        ),
        "every certificate on the shipped dam: orbit layer and repeated solves",
    ),
}


def load_program(config_path):
    """Import alap with numpy/scipy and load the config: the set-up phase."""
    from alap import cli, config  # noqa: F401  (cli pulls in every module)

    return config.load(config_path)


def run_commands(workload, seed, out_dir, tracer=None):
    """Run the workload's commands; returns (wall seconds, op records)."""
    from alap import cli

    ops = []
    t_first = time.perf_counter()
    for i, (command, *extra) in enumerate(workload.commands):
        op_out = os.path.join(out_dir, f"{i:02d}-{command}")
        argv = [command, "--config", workload.config_path(), "--out", op_out,
                "--seed", str(seed), *extra]
        t0 = time.perf_counter()
        code, error = None, None
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{command}"):
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising command is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"command": command, "out": op_out, "exit": code, "error": error,
                    "seconds": time.perf_counter() - t0})
    return time.perf_counter() - t_first, ops


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _parses(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def count_unparsed_cells(out_dir):
    """Numeric cells of every CSV under ``out_dir`` that are not floats."""
    bad = 0
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            if not name.endswith(".csv"):
                continue
            header, rows = read_csv(os.path.join(dirpath, name))
            numeric = [j for j, col in enumerate(header) if col not in TEXT_COLUMNS]
            bad += sum(1 for row in rows for j in numeric if not _parses(row[j]))
    return bad


def u_error(op_out, cfg):
    """max |u - (level - y)+| over the nodes, with u from the ``u`` column of
    u.csv and node coordinates from ``geometry.build_grid`` of the config.
    Returns (error, grid spacing h)."""
    import numpy as np
    from alap import geometry

    grid = geometry.build_grid(cfg.domain, cfg.resolution)
    header, rows = read_csv(os.path.join(op_out, "u.csv"))
    col = header.index("u")
    u = np.array([float(row[col]) for row in rows])
    y = grid.nodes().reshape(-1, grid.dim)[:, -1]
    if u.shape != y.shape:
        raise ValueError(f"u.csv has {u.size} rows for {y.size} nodes")
    level = float(cfg.domain.g.params[0])
    return float(np.max(np.abs(u - np.maximum(level - y, 0.0)))), float(np.max(grid.spacing))


def check_op(op, cfg):
    """Reason the operation failed, or None. Sets ``u_err_inf`` on solves."""
    if op["error"] is not None:
        return op["error"]
    if op["exit"] != 0:
        return f"exit code {op['exit']}"
    if op["command"] != "solve":
        return None
    try:
        with open(os.path.join(op["out"], "solve_report.txt"), encoding="utf-8") as fh:
            if "converged: True" not in fh.read().splitlines():
                return "solve_report.txt does not say converged: True"
        op["u_err_inf"], h = u_error(op["out"], cfg)
    except (OSError, ValueError) as exc:
        return f"unreadable solve output: {exc}"
    if not op["u_err_inf"] <= h:
        return f"u_err_inf {op['u_err_inf']:.3e} exceeds h = {h:.3e}"
    return None


def check_ops(ops, cfg):
    for op in ops:
        op["failure"] = check_op(op, cfg)
    return sum(1 for op in ops if op["failure"] is not None)


def run_once(workload, seed, out_dir, cfg, trace=False, run_id="run"):
    """Commands plus checks; the result record printed by ``main``."""
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(run_id)
        with tracer:
            wall, ops = run_commands(workload, seed, out_dir, tracer)
    else:
        wall, ops = run_commands(workload, seed, out_dir)
    # peak so far: the program's, before the checks below parse its outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = check_ops(ops, cfg)
    errs = [op["u_err_inf"] for op in ops if "u_err_inf" in op]
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "ops": ops,
        "u_err_inf": max(errs) if errs else None,
        "csv_unparsed_cells": count_unparsed_cells(out_dir),
    }
    return result, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawn-time", type=float, default=None)
    args = parser.parse_args(argv)
    if args.out is None and not args.setup_only:
        parser.error("--out is required unless --setup-only is given")
    spawn = args.spawn_time if args.spawn_time is not None else time.monotonic()
    workload = WORKLOADS[args.workload]

    # the checkout's own sources, ahead of any installed alap
    sys.path.insert(0, os.path.join(ROOT, "src"))
    cfg = load_program(workload.config_path())
    setup = time.monotonic() - spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    result, tracer = run_once(workload, args.seed, args.out, cfg, args.trace, run_id)
    result["setup_s"] = setup
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = {k: [v, u] for k, (v, u) in layer_metrics(tracer).items()}
        result["spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
