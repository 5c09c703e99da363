"""Tests of the benchmark itself: traced counters, self times, output checks
and wrapper hygiene, on a small dam config.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

# the shipped dam at p=3 on a 17^2 grid, with three orbits per level
SMALL_EDITS = {
    "grid.resolution = 129 129": "grid.resolution = 17 17",
    "profile.p = 2": "profile.p = 3",
    "fb.omega_count = 33": "fb.omega_count = 3",
}


def small_config_text():
    with open(os.path.join(ROOT, "configs", "dam.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in SMALL_EDITS.items():
        assert old in text
        text = text.replace(old, new)
    return text


def current_bindings():
    """The objects every wrapped name is bound to right now."""
    return {(owner, attr): tracing.resolve_owner(owner).__dict__[attr]
            for owner, attr, _ in tracing.TARGETS}


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    base = tmp_path_factory.mktemp("perfbench")
    cfg_path = base / "dam_small.cfg"
    cfg_path.write_text(small_config_text())
    workload = worker.Workload(
        str(cfg_path),
        (("solve",), ("trace", "--omega-count", "1"), ("verify-fb", "--h", "0.2")),
        "test",
    )
    cfg = worker.load_program(str(cfg_path))
    before = current_bindings()
    plain, _ = worker.run_once(workload, 3, str(base / "plain"), cfg)
    after_plain = current_bindings()
    traced = [
        worker.run_once(workload, 3, str(base / f"traced{i}"), cfg, trace=True, run_id=f"t{i}")
        for i in range(2)
    ]
    return {
        "base": base, "cfg": cfg, "plain": plain, "traced": traced,
        "before": before, "after_plain": after_plain, "after_traced": current_bindings(),
    }


def _counts(tracer):
    return {k: v for k, (v, unit) in tracing.layer_metrics(tracer).items() if unit == "count"}


def test_small_workload_passes_its_checks(small):
    for result in [small["plain"]] + [r for r, _ in small["traced"]]:
        assert result["failed"] == 0, [op["failure"] for op in result["ops"]]
        assert result["attempted"] == 3
        assert 0.0 < result["u_err_inf"] <= 1.0 / 16


def test_two_traced_runs_give_identical_counters(small):
    (_, first), (_, second) = small["traced"]
    assert _counts(first) == _counts(second)
    counts = _counts(first)
    for name in ("solver.newton_steps", "solver.precond_applies", "orbits.integrate_calls",
                 "fields.eval_calls", "solver.sweeps", "csvio.write_calls"):
        assert counts[name] > 0, name


def test_self_times_never_exceed_their_span(small):
    for _, tracer in small["traced"]:
        assert tracer.spans
        for _, name, start, end, _, own, _ in tracer.spans:
            assert -1e-9 <= own <= end - start + 1e-12, name
        for name, (calls, own) in tracer.stats.items():
            if name not in tracing.LEAVES:
                assert own <= tracing.group_seconds(tracer.spans, [name]) + 1e-9, name
        # self times and leaf times partition the top-level spans
        roots = sum(end - start for _, _, start, end, parent, _, _ in tracer.spans if parent is None)
        parts = sum(span[5] for span in tracer.spans)
        parts += sum(tracer.stats[name][1] for name in tracing.LEAVES)
        assert parts == pytest.approx(roots, rel=1e-9, abs=1e-9)


def test_spans_have_parents_and_run_id(small):
    _, tracer = small["traced"][0]
    ids = {span[0] for span in tracer.spans}
    names = {span[0]: span[1] for span in tracer.spans}
    assert all(span[4] is None or span[4] in ids for span in tracer.spans)
    assert {span[6] for span in tracer.spans} == {"t0"}
    roots = {span[1] for span in tracer.spans if span[4] is None}
    assert roots == {"cli.solve", "cli.trace", "cli.verify-fb"}
    residual_parents = {names[s[4]] for s in tracer.spans if s[1] == "solver.residual"}
    assert "solver.solve_problem" in residual_parents


def test_wrappers_see_from_imports_and_reversed_fields(small):
    from alap import fields, orbits

    _, tracer = small["traced"][0]
    # extract_graph reaches OrbitFamily and orbit_point through names bound
    # in free_boundary
    names = {s[0]: s[1] for s in tracer.spans}
    parents = {names.get(s[4]) for s in tracer.spans
               if s[1] in ("orbits.OrbitFamily.orbit", "orbits.orbit_point")}
    assert {"free_boundary.extract_graph", "free_boundary.wet_interval_sup"} <= parents
    # backward marches evaluate a reversed field, a new FieldH instance
    probe = tracing.Tracer("probe")
    with probe:
        orbits._reversed(fields.make_constant_field([0.0, 1.0]))([0.5, 0.5])
    assert probe.stats["fields.FieldH.__call__"][0] == 1


def test_untraced_run_leaves_every_wrapped_name_alone(small):
    from alap import solver

    assert small["after_plain"] == small["before"]
    assert small["after_traced"] == small["before"]
    assert solver.residual is small["before"][("alap.solver", "residual")]
    assert not hasattr(solver.residual, "__wrapped__")


def test_tracer_installs_and_restores():
    from alap import fields, free_boundary, orbits, solver

    original = solver.residual
    with tracing.Tracer("x"):
        assert solver.residual.__wrapped__ is original
        assert free_boundary.orbit_point is not orbits.orbit_point
        assert hasattr(fields.FieldH.__call__, "__wrapped__")
    assert solver.residual is original
    assert free_boundary.orbit_point is orbits.orbit_point


def test_planted_u_shift_fails_the_solve(small, tmp_path):
    op_dir = small["plain"]["ops"][0]["out"]
    planted = tmp_path / "00-solve"
    shutil.copytree(op_dir, planted)
    header, rows = worker.read_csv(planted / "u.csv")
    col = header.index("u")
    h = 1.0 / 16
    with open(planted / "u.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row[col] = repr(float(row[col]) + 2 * h)
            fh.write(",".join(row) + "\n")
    ok = {"command": "solve", "out": op_dir, "exit": 0, "error": None}
    bad = dict(ok, out=str(planted))
    assert worker.check_op(ok, small["cfg"]) is None
    assert "exceeds h" in worker.check_op(bad, small["cfg"])
    assert worker.check_ops([ok, bad], small["cfg"]) == 1


def test_unconverged_or_failing_commands_count_as_failed(small, tmp_path):
    (tmp_path / "solve_report.txt").write_text("converged: False\n")
    cases = [
        {"command": "solve", "out": str(tmp_path), "exit": 0, "error": None},
        {"command": "trace", "out": str(tmp_path), "exit": 3, "error": None},
        {"command": "trace", "out": str(tmp_path), "exit": None, "error": "ValueError: x"},
    ]
    assert worker.check_ops(cases, small["cfg"]) == 3


def test_unparsed_numeric_cells_are_counted(tmp_path):
    (tmp_path / "a.csv").write_text(
        "x1,x2,u\nnp.float64(0.0),0.5,1.0\n0.25,np.float64(0.5),2.0\n")
    (tmp_path / "barriers.csv").write_text("barrier,lhs\nradial,1.0\nhopf,oops\n")
    assert worker.count_unparsed_cells(tmp_path) == 3


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20)))["p"] == 50
    assert run.tail_percentile(list(range(100)))["p"] == 90


def test_benchmark_json_names_match_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = list(tracing.layer_metrics(tracing.Tracer("x"))) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layers


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_p3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
