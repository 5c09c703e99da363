import csv
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from alap import cli, config, csvio, fields, free_boundary, geometry, orbits, solver
from alap.errors import ConfigError

DAM_CONFIG = """
schema_version = 1
seed = 42
domain.lower = 0 0
domain.upper = 1 1
domain.t_faces = ymax
domain.m = 0.6
domain.g.kind = hydrostatic
domain.g.level = 0.6
grid.resolution = 33 33
profile.family = power
profile.p = 2
field.kind = constant
field.c = 0 1
fb.levels = 0.2
fb.omega_count = 9
"""


def write_config(tmp_path, text=DAM_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_config_roundtrip(tmp_path):
    cfg = config.load(write_config(tmp_path))
    assert cfg.seed == 42
    assert cfg.domain.m_ceiling == 0.6
    assert cfg.profile.family == "power"
    assert cfg.fieldh.kind == "constant"
    assert cfg.resolution == (33, 33)


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        config.load(text=DAM_CONFIG + "\nsolver.typo = 1\n")


def test_config_rejects_missing_schema_version():
    with pytest.raises(ConfigError):
        config.load(text="seed = 1\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config.load(text="schema_version = 1\nprofile.family = power\nprofile.p = frog\n")
    with pytest.raises(ConfigError):
        config.load(text="schema_version = 1\nprofile.family = power\nprofile.p = 0.5\n")


@pytest.mark.parametrize(
    "line",
    [
        "solver.eps = 0",
        "solver.eps = -1",
        "solver.eps = nan",
        "solver.eps = inf",
        "solver.relax = 0",
        "solver.relax = -0.5",
        "solver.relax = 1.5",
        "solver.relax = nan",
        "solver.inner_tol = nan",
        "solver.inner_tol = inf",
        "solver.inner_tol = 0",
        "solver.inner_tol = -1",
        "solver.outer_tol = inf",
        "solver.outer_tol = nan",
        "solver.outer_tol = 0",
        "solver.outer_tol = -1",
        "solver.max_inner = 0",
        "solver.max_inner = -1",
        "solver.max_outer = 0",
        "solver.max_outer = -1",
    ],
)
def test_bad_solver_inputs_rejected_at_load(tmp_path, monkeypatch, line):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started with an invalid solver config")

    monkeypatch.setattr(solver, "solve_problem", no_solve)
    with pytest.raises(ConfigError):
        config.load(text=DAM_CONFIG + "\n" + line + "\n")
    cfg_path = write_config(tmp_path, DAM_CONFIG + "\n" + line + "\n")
    out = str(tmp_path / "out_bad")
    assert cli.main(["solve", "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG


def test_good_solver_inputs_accepted_at_load():
    cfg = config.load(text=DAM_CONFIG + "\nsolver.eps = 0.01\nsolver.relax = 1\n")
    assert cfg.solver_config.eps == 0.01
    assert cfg.solver_config.relax == 1.0


def test_cli_solve_failed_constraints_exit_3(tmp_path, monkeypatch):
    real_solve = solver.solve_problem

    def failing_constraints(*args, **kwargs):
        pair, report = real_solve(*args, **kwargs)
        report.constraints = dataclasses.replace(report.constraints, passed=False)
        return pair, report

    monkeypatch.setattr(solver, "solve_problem", failing_constraints)
    out = str(tmp_path / "out_fail")
    code = cli.main(["solve", "--config", write_config(tmp_path), "--out", out])
    assert code == cli.EXIT_CERTIFICATION
    for name in ("u.csv", "chi.csv", "solve_report.txt"):
        assert os.path.exists(os.path.join(out, name))


def test_cli_solve_failed_field_certificate_exit_3(tmp_path, monkeypatch):
    # make_constant_field sets h_upper = max |c|, so the field is built by
    # hand: |H| = 1 lies above its h_upper at every sample
    planted = fields.FieldH(
        kind="constant", coeff=np.zeros((2, 2)), offset=np.array([0.0, 1.0]),
        h_upper=0.999, h_lower=0.999,
    )
    monkeypatch.setattr(config, "_build_field", lambda cfg: planted)
    real_solve, reports = solver.solve_problem, []

    def recorded(*args, **kwargs):
        pair, report = real_solve(*args, **kwargs)
        reports.append(report)
        return pair, report

    monkeypatch.setattr(solver, "solve_problem", recorded)
    out = tmp_path / "out_fail"
    code = cli.main(["solve", "--config", write_config(tmp_path), "--out", str(out)])
    assert code == cli.EXIT_CERTIFICATION
    assert [report.constraints.passed for report in reports] == [True]
    data = np.genfromtxt(out / "field_certification.csv", delimiter=",", names=True)
    assert data.size == 128 and np.all(data["pass"] == 0)
    assert sorted(os.listdir(out)) == ["chi.csv", "field_certification.csv", "solve_report.txt", "u.csv"]


def test_cli_csv_cells_parse_as_floats(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    trace_args = ["--h", "0.5", "--omega-count", "3"]
    contents = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"floats_{tag}")
        monkeypatch.setattr(cli, "_last_solve", None)  # each rerun solves afresh
        assert cli.main(["solve", "--config", cfg_path, "--out", out]) == 0
        assert cli.main(["trace", "--config", cfg_path, "--out", out] + trace_args) == 0
        files = {}
        for name in ("u.csv", "chi.csv", "trace.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        contents.append(files)
    # same inputs, same bytes
    assert contents[0] == contents[1]
    for name, data in contents[0].items():
        rows = list(csv.reader(data.decode("utf-8").splitlines()))[1:]
        assert rows, name
        for row in rows:
            for cell in row:
                float(cell)


def test_float_array_rows_write_the_bytes_of_mixed_rows(tmp_path):
    """Float array columns write the bytes of the same cells as Python floats
    in lists, which go through the mixed-cell path."""
    rng = np.random.default_rng(3)
    # more rows than one output block, and the float values with unusual reprs
    table = rng.normal(size=(2 * csvio._BLOCK_ROWS + 3, 3)) * 10.0 ** rng.integers(-300, 300, (1, 3))
    table[:6, 0] = [-0.0, 0.1, 1.0 / 3.0, np.nan, np.inf, -np.inf]
    header = ["x1", "x2", "u"]
    csvio.write_csv(tmp_path / "array.csv", header, list(table.T))
    csvio.write_csv(tmp_path / "rows.csv", header, table.T.tolist())
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_cli_solve_writes_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    code = cli.main(["solve", "--config", cfg_path, "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "u.csv"))
    assert os.path.exists(os.path.join(out, "chi.csv"))
    assert os.path.exists(os.path.join(out, "solve_report.txt"))


def test_cli_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schema_version = 1\nnot.a.key = 3\n", encoding="utf-8")
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG


def test_cli_nonconvergence_exit_code(tmp_path):
    text = DAM_CONFIG + "\nsolver.max_outer = 1\n"
    cfg_path = write_config(tmp_path, text)
    out = str(tmp_path / "out_nc")
    assert cli.main(["solve", "--config", cfg_path, "--out", out]) == cli.EXIT_NONCONVERGENCE
    # the report of the stalled solve is written beside the field certificate
    lines = (tmp_path / "out_nc" / "solve_report.txt").read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["converged: False", "outer iterations: 1"]
    assert sorted(os.listdir(out)) == ["field_certification.csv", "solve_report.txt"]


def test_cli_check_profile(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "prof")
    assert cli.main(["check-profile", "--config", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "ellipticity.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "t,ratio,pass"


def test_cli_check_barriers(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "bar")
    assert cli.main(["check-barriers", "--config", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "barriers.csv"))


def test_barriers_csv_agrees_with_each_report(tmp_path):
    # the boundary barrier is a supersolution, so its margin is rhs - lhs;
    # every report's rows must carry the margins its verdict is read from
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "bar")
    assert cli.main(["check-barriers", "--config", cfg_path, "--out", out]) == 0
    rows = {}
    with open(os.path.join(out, "barriers.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["barrier"], []).append(row)
    with open(os.path.join(out, "barriers_report.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == len(rows) and any(label.startswith("boundary_") for label in rows)
    for line in lines:
        label, verdict = line.split(": ")
        passed, min_margin = verdict.split(" ")
        margins = [float(r["margin"]) for r in rows[label]]
        assert passed == f"pass={all(r['pass'] == '1' for r in rows[label])}"
        assert min_margin == f"min_margin={min(margins):.3e}"


def test_cli_trace(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "trace")
    code = cli.main(["trace", "--config", cfg_path, "--out", out, "--h", "0.5", "--omega-count", "3"])
    assert code == 0
    data = np.genfromtxt(os.path.join(out, "trace.csv"), delimiter=",", names=True)
    assert data.size > 0
    rel = np.abs(data["jacobian_analytic"] - data["jacobian_numeric"]) / np.abs(
        data["jacobian_analytic"]
    )
    assert np.max(rel) < 1e-6


def test_trace_fails_a_planted_jacobian_gap(tmp_path, monkeypatch):
    # the closed form off by 1e-6 relative, far above the roundoff bound
    plain = orbits.jacobian_analytic
    monkeypatch.setattr(orbits, "jacobian_analytic", lambda *args: plain(*args) * (1.0 + 1e-6))
    out = tmp_path / "trace"
    argv = ["trace", "--config", write_config(tmp_path), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CERTIFICATION
    lines = (out / "trace.txt").read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("jacobian gap: pass=False max relative gap 1.000e-06")
    assert lines[2].startswith("jacobian bounds: pass=True")


def test_trace_fails_a_field_of_negative_divergence(tmp_path, monkeypatch):
    # make_affine_field refuses tr(A) < 0, so the field is built by hand:
    # H_n = 1 - 0.1 y lies in [0.9, 1] on the box, and -Y_h = H_n(seed)
    # e^(-0.2 t) falls below h_lower = 0.9 before the orbits leave the box
    planted = fields.FieldH(
        kind="affine", coeff=-0.1 * np.eye(2), offset=np.array([0.0, 1.0]),
        h_upper=1.0, h_lower=0.9,
    )
    monkeypatch.setattr(config, "_build_field", lambda cfg: planted)
    out = tmp_path / "trace"
    argv = ["trace", "--config", write_config(tmp_path), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CERTIFICATION
    lines = (out / "trace.txt").read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("jacobian gap: pass=True")
    assert lines[2].startswith("jacobian bounds: pass=False")


def test_extract_fb_fails_a_planted_graph_spike(tmp_path, monkeypatch):
    plain = free_boundary.extract_graph

    def spiked(*args, **kwargs):
        graph = plain(*args, **kwargs)
        values = graph.values.copy()
        values[len(values) // 2] += 0.2
        return dataclasses.replace(graph, values=values)

    monkeypatch.setattr(free_boundary, "extract_graph", spiked)
    out = tmp_path / "fb"
    argv = ["extract-fb", "--config", write_config(tmp_path), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CERTIFICATION
    data = np.genfromtxt(out / "free_boundary.csv", delimiter=",", names=True)
    assert np.all(data["lsc_pass"] == 0)


def test_cli_extract_and_verify_fb(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "fb")
    assert cli.main(["extract-fb", "--config", cfg_path, "--out", out]) == 0
    data = np.genfromtxt(os.path.join(out, "free_boundary.csv"), delimiter=",", names=True)
    assert np.allclose(data["level"], 0.2)
    assert np.max(np.abs(data["phi"] - 0.4)) < 2.0 / 32.0
    assert cli.main(["verify-fb", "--config", cfg_path, "--out", out]) == 0


def test_cli_growth_and_harnack(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "growth")
    assert cli.main(["growth", "--config", cfg_path, "--out", out]) == 0
    assert cli.main(["harnack", "--config", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "growth.csv"))
    assert os.path.exists(os.path.join(out, "harnack.csv"))


def test_cli_rescale(tmp_path):
    text = DAM_CONFIG + "\nrescale.center = 0.5 0.25\nrescale.radius = 0.15\n"
    cfg_path = write_config(tmp_path, text)
    out = str(tmp_path / "rescale")
    assert cli.main(["rescale", "--config", cfg_path, "--out", out]) == 0


def test_cli_boundary_growth(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "bg")
    assert cli.main(["boundary-growth", "--config", cfg_path, "--out", out]) == 0


def test_cli_deterministic_outputs(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"det_{tag}")
        monkeypatch.setattr(cli, "_last_solve", None)  # each rerun solves afresh
        assert cli.main(["solve", "--config", cfg_path, "--out", out, "--seed", "7"]) == 0
        with open(os.path.join(out, "u.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_cli_growth_multi_resolution(tmp_path):
    text = DAM_CONFIG + "\ngrowth.resolutions = 17 17 33 33\ngrowth.ball_count = 3\n"
    cfg_path = write_config(tmp_path, text)
    out = str(tmp_path / "growth_multi")
    assert cli.main(["growth", "--config", cfg_path, "--out", out]) == 0
    data = np.genfromtxt(os.path.join(out, "growth.csv"), delimiter=",", names=True)
    assert set(np.unique(data["resolution"])) == {17.0, 33.0}


def test_cli_check_barriers_bytes_follow_the_seed(tmp_path, monkeypatch):
    # two runs with one seed, each solving afresh, write the same bytes;
    # another seed draws other sample points
    cfg_path = write_config(tmp_path)
    outs = []
    for tag, seed in (("a", "42"), ("b", "42"), ("c", "43")):
        out = str(tmp_path / f"bar_{tag}")
        monkeypatch.setattr(cli, "_last_solve", None)
        argv = ["check-barriers", "--config", cfg_path, "--out", out, "--seed", seed]
        assert cli.main(argv) == 0
        with open(os.path.join(out, "barriers.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1] and outs[0] != outs[2]


@pytest.mark.parametrize(
    "command, extra, config_line",
    [
        ("trace", ["--h", "1.5"], ""),
        ("trace", ["--h", "0"], ""),
        ("trace", [], "trace.level = -0.25"),
        ("trace", ["--omega-count", "0"], ""),
        ("trace", [], "trace.omega_count = 0"),
        ("trace", [], "trace.omega_count = many"),
        ("trace", [], "trace.level = 0.2 0.3"),
        ("trace", [], "trace.omega_count = 9 33"),
        ("verify-fb", ["--h", "2"], ""),
        ("verify-fb", [], "fb.levels = 0.2 1.0"),
        ("verify-fb", [], "fb.omega_count = 0"),
        ("verify-fb", [], "fb.omega_count = 9 33"),
        ("extract-fb", ["--h", "nan"], ""),
        ("extract-fb", [], "fb.omega_count = -3"),
    ],
)
def test_bad_orbit_inputs_exit_4_before_any_work(tmp_path, monkeypatch, capsys,
                                                  command, extra, config_line):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with an invalid orbit input")

    monkeypatch.setattr(solver, "solve_problem", no_work)
    monkeypatch.setattr(orbits, "integrate_orbits", no_work)
    text = DAM_CONFIG.replace("fb.levels = 0.2\n", "").replace("fb.omega_count = 9\n", "")
    cfg_path = write_config(tmp_path, text + "\n" + config_line + "\n")
    out = tmp_path / "out_bad"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)] + extra) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not any(name.endswith(".csv") for name in os.listdir(out))


#: a slow field: an orbit from level 0.5 of the unit square may take up to
#: 0.5 / 0.0027 = 185.2 to leave it, at or past the (2 MAX_STEPS - 1) dt =
#: 181.0 that an orbit march follows; 0.5 / 0.0029 = 172.4 lies below it
SLOW_FIELD = DAM_CONFIG.replace("field.c = 0 1", "field.c = 0 0.0027")


@pytest.mark.parametrize("command", ["trace", "extract-fb", "verify-fb"])
def test_level_a_march_cannot_cross_exits_4_before_any_work(tmp_path, monkeypatch, capsys, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started at a level whose orbits a march cannot follow")

    monkeypatch.setattr(solver, "solve_problem", no_work)
    monkeypatch.setattr(orbits, "integrate_orbits", no_work)
    out = tmp_path / "out_slow"
    argv = [command, "--config", write_config(tmp_path, SLOW_FIELD), "--out", str(out), "--h", "0.5"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: --h = 0.5: h_lower = 0.0027 lets an orbit take up to 185.185 to cross "
        "the box; a march follows it below 181.019\n"
    )
    assert not os.listdir(out)
    assert orbits.march_capacity(config.load(text=SLOW_FIELD).domain) == pytest.approx(181.019, abs=1e-3)


def test_slowest_field_a_march_can_follow_still_traces(tmp_path):
    out = tmp_path / "trace"
    cfg_path = write_config(tmp_path, SLOW_FIELD.replace("0 0.0027", "0 0.0029"))
    assert cli.main(["trace", "--config", cfg_path, "--out", str(out), "--omega-count", "1"]) == 0
    data = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)
    assert data["t"][0] < -0.5 / 0.0029 < 0.5 / 0.0029 < data["t"][-1] + 1e-9


@pytest.mark.parametrize(
    "command, config_line",
    [
        ("growth", "growth.ball_count = five"),
        ("harnack", "growth.ball_count = five"),
        ("growth", "growth.ball_count = 0"),
        ("harnack", "growth.ball_count = 0"),
        ("growth", "growth.resolutions = 17 seventeen"),
        ("growth", "growth.resolutions = 17 2"),
        ("rescale", "rescale.radius = big"),
        ("rescale", "rescale.radius = 0.1 0.2"),
        ("rescale", "rescale.center = 0.5"),
        ("rescale", "rescale.radius = 0"),
        ("rescale", "rescale.radius = -1"),
        ("rescale", "rescale.center = 5 5"),  # the ball misses the box
        ("rescale", "rescale.radius = 0.01"),  # the ball spans less than a cell
        ("check-barriers", "barriers.radius = wide"),
        ("check-barriers", "barriers.kappa_count = 2.5"),
        ("check-barriers", "barriers.kappa_count = 0"),
        ("check-barriers", "barriers.kappa_count = -1"),
        ("check-barriers", "barriers.hopf_scales = 0.1 tiny"),
        ("boundary-growth", "boundary_growth.face = sideways"),
        ("boundary-growth", "boundary_growth.face = zmax"),
        ("boundary-growth", "boundary_growth.anchor_lo = left"),
        ("boundary-growth", "boundary_growth.anchor_hi = 0.6 0.7"),
        ("boundary-growth", "boundary_growth.sphere_radius = round"),
        ("boundary-growth", "boundary_growth.tube_width = thin"),
    ],
)
def test_bad_knob_values_exit_4_before_any_solve(tmp_path, monkeypatch, capsys,
                                                  command, config_line):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started with an invalid knob")

    monkeypatch.setattr(solver, "solve_problem", no_solve)
    cfg_path = write_config(tmp_path, DAM_CONFIG + "\n" + config_line + "\n")
    out = tmp_path / "out_bad"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not os.listdir(out)


#: the key prefix of each config section that a command can require
SECTION_KEYS = {"domain": "domain.", "resolution": "grid.", "profile": "profile.", "fieldh": "field."}


@pytest.mark.parametrize(
    "command, section",
    [(command, section) for command, (_, sections) in cli._COMMANDS.items() for section in sections],
)
def test_config_without_a_section_its_command_reads_exits_4_before_any_solve(
        tmp_path, monkeypatch, capsys, command, section):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started without a config section")

    monkeypatch.setattr(solver, "solve_problem", no_solve)
    text = "".join(line + "\n" for line in DAM_CONFIG.splitlines()
                   if not line.startswith(SECTION_KEYS[section]))
    out = tmp_path / "out_bad"
    assert cli.main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config is missing its {section} section\n"
    assert not os.listdir(out)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize(
    "old, new",
    [
        ("", "growth.ball_count = 0"),
        ("", "rescale.center = 0.5"),
        ("", "seed = -1"),
        # outside these bounds the certificate that reads the value raises
        ("", "barriers.radius = -1"),
        ("", "barriers.margin = 1.5"),
        ("", "barriers.floor = -1"),
        ("", "barriers.hopf_scales = 0.1 -1"),
        ("", "boundary_growth.sphere_radius = -1"),
        ("domain.t_faces = ymax", "domain.t_faces = top"),
        # a tube of negative width holds no sample to certify
        ("", "boundary_growth.tube_width = -1"),
    ],
)
def test_every_command_checks_every_knob_at_load(tmp_path, monkeypatch, capsys, command, old, new):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with an invalid knob")

    monkeypatch.setattr(solver, "solve_problem", no_work)
    monkeypatch.setattr(csvio, "write_csv", no_work)
    text = DAM_CONFIG.replace(old, "") + "\n" + new + "\n"
    with pytest.raises(ConfigError):
        config.load(text=text)
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out_bad"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not os.listdir(out)


def test_negative_seed_flag_exits_4_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with a negative seed")

    monkeypatch.setattr(solver, "solve_problem", no_work)
    out = tmp_path / "out_bad"
    argv = ["solve", "--config", write_config(tmp_path), "--out", str(out), "--seed", "-1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error: --seed = -1 must be >= 0" in capsys.readouterr().err
    assert not os.listdir(out)


def test_count_of_a_dimension_dependent_default_is_checked_by_its_reader():
    # rescale.center's default has two values: a 3-D config that leaves it
    # out still loads, and only the command that reads it fails
    text = DAM_CONFIG.replace("0 0\n", "0 0 0\n").replace("1 1\n", "1 1 1\n")
    text = text.replace("33 33", "5 5 5").replace("field.c = 0 1", "field.c = 0 0 1")
    cfg = config.load(text=text)
    assert cfg.domain.dim == 3 and cfg["boundary_growth.face"] == "ymax"
    with pytest.raises(ConfigError, match="rescale.center takes 3"):
        cfg["rescale.center"]
    with pytest.raises(ConfigError, match="rescale.center takes 3"):
        config.load(text=text + "rescale.center = 0.5 0.25\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--seed", "abc"],
        ["trace", "--omega-count", "x"],
        ["solve", "--bogus"],
        ["solve", "--parallel"],
        ["frobnicate"],
        ["solve", "--config"],
        ["solve", "--h", "0.2"],  # a prefix of --help, not an abbreviation of it
    ],
)
def test_usage_errors_exit_4_with_the_parser_message(tmp_path, capsys, argv):
    if argv[-1] != "--config":
        argv = argv[:1] + ["--config", write_config(tmp_path)] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_line",
    [
        "boundary_growth.tube_width = 1e-9",  # below one cell
        "boundary_growth.anchor_lo = 0.7\nboundary_growth.anchor_hi = 0.3",  # inverted patch
    ],
)
def test_empty_boundary_tube_exits_4_before_any_solve(tmp_path, monkeypatch, capsys, config_line):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started for an empty boundary tube")

    monkeypatch.setattr(solver, "solve_problem", no_solve)
    cfg_path = write_config(tmp_path, DAM_CONFIG + "\n" + config_line + "\n")
    out = tmp_path / "out_bad"
    assert cli.main(["boundary-growth", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: boundary_growth.tube_width" in err and "anchor_lo" in err
    assert not os.listdir(out)


def test_help_exits_0(capsys):
    for argv in (["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    assert "--parallel" not in capsys.readouterr().out


def test_parser_is_built_once_and_each_call_sees_only_its_own_flags(tmp_path, monkeypatch):
    seen = []
    monkeypatch.chdir(tmp_path)  # the call without --out makes the config's out_dir here
    monkeypatch.setitem(cli._COMMANDS, "verify-fb",
                        (lambda cfg, args: seen.append(vars(args)) or True, ()))
    cfg_path = write_config(tmp_path)
    base = ["verify-fb", "--config", cfg_path]
    assert cli.main(base + ["--h", "0.2", "--seed", "3", "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(base + ["--bogus"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert cli.main(base) == 0
    assert seen == [
        {"command": "verify-fb", "config": cfg_path, "out": str(tmp_path), "seed": 3, "level": 0.2},
        {"command": "verify-fb", "config": cfg_path, "out": None, "seed": None, "level": None},
    ]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_exits_4(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(DAM_CONFIG.encode("utf-8") + b"# \xff\xfe\n")
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "config error: cannot read" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        config.load(str(path))


def test_out_naming_a_file_exits_4(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert cli.main(["solve", "--config", write_config(tmp_path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error: output directory" in capsys.readouterr().err


def test_readme_config_table_matches_the_schema():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        rows = [line.split("|")[1:-1] for line in fh if line.startswith("| `")]
    table = {cells[0].strip().strip("`"): [c.strip() for c in cells[1:5]] for cells in rows}
    for key, row in config.SCHEMA.items():
        default = {None: "—", "": "empty"}.get(row.default, f"`{row.default}`")
        assert table.get(key) == [row.kind, str(row.count), default, row.bound or "—"], key
    assert set(table) == set(config.SCHEMA)


def test_rescale_ball_outside_wet_set_exits_4(tmp_path, capsys):
    text = DAM_CONFIG + "\nrescale.center = 0.5 0.5\nrescale.radius = 0.2\n"
    out = tmp_path / "out_dry"
    assert cli.main(["rescale", "--config", write_config(tmp_path, text), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "rescale ball must lie inside the wet set" in err
    assert not os.listdir(out)


MEMO_CONFIG = DAM_CONFIG + "rescale.center = 0.5 0.25\nrescale.radius = 0.15\n"
MEMO_COMMANDS = ("verify-fb", "growth", "harnack", "rescale", "boundary-growth")


def count_solves(monkeypatch):
    """Wrap solver.solve_problem; the returned list holds one entry per call."""
    real_solve = solver.solve_problem
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].counts)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_problem", counted)
    return calls


def test_certificate_commands_share_one_solve(tmp_path, monkeypatch):
    calls = count_solves(monkeypatch)
    cfg_path = write_config(tmp_path, MEMO_CONFIG)
    for command in MEMO_COMMANDS:
        assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / command)]) == 0
    assert calls == [(33, 33)]


@pytest.mark.parametrize(
    "old, new, command",
    [
        ("", "solver.eps = 0.002", "harnack"),
        ("grid.resolution = 33 33", "grid.resolution = 17 17", "harnack"),
        ("", "growth.resolutions = 17 17", "growth"),
    ],
)
def test_solve_inputs_change_solves_again(tmp_path, monkeypatch, old, new, command):
    calls = count_solves(monkeypatch)
    first = write_config(tmp_path, MEMO_CONFIG)
    assert cli.main([command, "--config", first, "--out", str(tmp_path / "a")]) == 0
    changed = tmp_path / "changed.cfg"
    changed.write_text(MEMO_CONFIG.replace(old, "") + "\n" + new + "\n", encoding="utf-8")
    assert cli.main([command, "--config", str(changed), "--out", str(tmp_path / "b")]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize(
    "extra, config_line",
    [
        ([], ""),  # only --out differs
        (["--seed", "9"], ""),
        ([], "growth.ball_count = 3"),
        ([], "barriers.radius = 0.2"),
        ([], "out_dir = elsewhere"),
        ([], "trace.level = 0.3"),
    ],
)
def test_other_inputs_reuse_the_solve(tmp_path, monkeypatch, extra, config_line):
    calls = count_solves(monkeypatch)
    first = write_config(tmp_path, MEMO_CONFIG)
    assert cli.main(["growth", "--config", first, "--out", str(tmp_path / "a")]) == 0
    changed = tmp_path / "changed.cfg"
    changed.write_text(MEMO_CONFIG + "\n" + config_line + "\n", encoding="utf-8")
    assert cli.main(["growth", "--config", str(changed), "--out", str(tmp_path / "b")] + extra) == 0
    assert len(calls) == 1


def test_rebound_solver_solves_again(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, MEMO_CONFIG)
    assert cli.main(["harnack", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    calls = count_solves(monkeypatch)
    assert cli.main(["harnack", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    assert calls == [(33, 33)]


def test_memo_pair_is_read_only(tmp_path):
    _, pair, _ = cli._solved(config.load(write_config(tmp_path, MEMO_CONFIG)))
    with pytest.raises(ValueError):
        pair.u[1, 1] = 0.0
    with pytest.raises(ValueError):
        pair.chi *= 0.5
    assert cli._solved(config.load(write_config(tmp_path, MEMO_CONFIG)))[1] is pair


def _files(folder):
    out = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            # a memo hit repeats the stored report, wall time included
            out[name] = [line for line in fh.read().splitlines() if not line.startswith(b"wall time")]
    return out


def test_memo_hit_writes_the_bytes_of_a_fresh_solve(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, MEMO_CONFIG)
    commands = ("solve", "extract-fb") + MEMO_COMMANDS
    for tag in ("fresh", "hit"):
        for command in commands:
            if tag == "fresh":
                monkeypatch.setattr(cli, "_last_solve", None)
            out = str(tmp_path / tag / command)
            assert cli.main([command, "--config", cfg_path, "--out", out, "--seed", "3"]) == 0
    for command in commands:
        fresh = _files(tmp_path / "fresh" / command)
        assert fresh and fresh == _files(tmp_path / "hit" / command), command


@pytest.mark.parametrize(
    "old, new",
    [
        ("domain.g.level = 0.6", "domain.g.level = 0.9"),
        ("domain.m = 0.6", "domain.m = 0.5"),
        ("grid.resolution = 33 33", "grid.resolution = 33 33 33"),
        ("grid.resolution = 33 33", "grid.resolution = 33 big"),
    ],
)
def test_bad_grid_or_boundary_data_rejected_at_load(tmp_path, monkeypatch, old, new):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started with an invalid config")

    monkeypatch.setattr(solver, "solve_problem", no_solve)
    text = DAM_CONFIG.replace(old, new)
    with pytest.raises(ConfigError):
        config.load(text=text)
    out = str(tmp_path / "out_bad")
    assert cli.main(["solve", "--config", write_config(tmp_path, text), "--out", out]) == cli.EXIT_CONFIG


def test_shipped_configs_load():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = [
        os.path.join(root, folder, name)
        for folder in ("configs", os.path.join("perfbench", "configs"))
        for name in sorted(os.listdir(os.path.join(root, folder)))
        if name.endswith(".cfg")
    ]
    assert len(paths) >= 5
    for path in paths:
        cfg = config.load(path)
        assert cfg.domain is not None and cfg.resolution is not None


def test_solver_import_leaves_the_certificate_modules_unloaded():
    # a solve needs none of them, and the package imports no submodule itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys, alap.solver\n"
        "names = ('barriers', 'harness', 'free_boundary', 'orbits')\n"
        "sys.exit(sorted(n for n in names if f'alap.{n}' in sys.modules) or None)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         timeout=120, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the log-power inverse is a numpy Newton iteration; scipy.optimize never loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, alap.cli; sys.exit(int('scipy.optimize' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_cli_import_leaves_scipy_ndimage_unloaded(tmp_path):
    # the touching balls take a numpy distance transform
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg_path = write_config(tmp_path)
    code = (
        "import sys, alap.cli\n"
        "loaded = 'scipy.ndimage' in sys.modules\n"
        "for command in ('growth', 'harnack', 'verify-fb'):\n"
        "    code = alap.cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "    assert code == 0, (command, code)\n"
        "    loaded = loaded or 'scipy.ndimage' in sys.modules\n"
        "sys.exit(3 if loaded else 0)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, cfg_path, str(tmp_path / "out")], env=env, timeout=300
    )
    assert run.returncode == 0
    assert (tmp_path / "out" / "growth.csv").exists()


def test_cli_import_and_orbit_commands_leave_scipy_linalg_unloaded(tmp_path):
    # orbits take the exact flow through a numpy matrix exponential
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg_path = write_config(tmp_path)
    code = (
        "import sys, alap.cli\n"
        "loaded = 'scipy.linalg' in sys.modules\n"
        "for command in ('trace', 'verify-fb'):\n"
        "    code = alap.cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "    assert code == 0, (command, code)\n"
        "    loaded = loaded or 'scipy.linalg' in sys.modules\n"
        "sys.exit(3 if loaded else 0)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, cfg_path, str(tmp_path / "out")], env=env, timeout=300
    )
    assert run.returncode == 0
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_import_and_every_command_leave_scipy_unloaded(tmp_path):
    # the package runs on numpy alone: scipy serves the tests as a reference
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    paths = []
    for name in ("dam", "affine", "two_level"):
        with open(os.path.join(root, f"{name}.cfg"), encoding="utf-8") as fh:
            text = fh.read().replace("grid.resolution = 129 129", "grid.resolution = 33 33")
        assert "grid.resolution = 33 33" in text
        path = tmp_path / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # a solve, the first command, also loads no certificate module and no
    # numpy.polynomial (the Gauss table is built on a log-power's first use)
    code = (
        "import sys, alap.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "def certificate_layer():\n"
        "    names = ('alap.barriers', 'alap.harness', 'alap.free_boundary', 'alap.orbits',\n"
        "             'numpy.polynomial')\n"
        "    return sorted(n for n in names if n in sys.modules)\n"
        "assert not loaded(), ('import', loaded())\n"
        "assert not certificate_layer(), ('import', certificate_layer())\n"
        "out, paths = sys.argv[1], sys.argv[2:]\n"
        "for i, path in enumerate(paths):\n"
        "    for command in alap.cli._COMMANDS:\n"
        "        code = alap.cli.main([command, '--config', path, '--out', f'{out}/{i}/{command}'])\n"
        "        assert code == 0, (path, command, code)\n"
        "        assert not loaded(), (path, command, loaded())\n"
        "        if (i, command) == (0, 'solve'):\n"
        "            assert not certificate_layer(), ('solve', certificate_layer())\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out"), *paths],
        env=env, timeout=600, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert (tmp_path / "out" / "2" / "trace" / "trace.csv").exists()


#: every command that can exit with EXIT_CERTIFICATION
CERTIFICATE_COMMANDS = (
    "solve", "check-profile", "check-barriers", "trace", "extract-fb", "verify-fb", "growth",
    "boundary-growth", "rescale",
)


@pytest.mark.parametrize("name", ["dam", "affine", "two_level"])
def test_shipped_configs_pass_every_certificate(tmp_path, name):
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    cfg_path = os.path.join(root, f"{name}.cfg")
    codes = {
        command: cli.main([command, "--config", cfg_path, "--out", str(tmp_path / command)])
        for command in CERTIFICATE_COMMANDS
    }
    assert codes == dict.fromkeys(CERTIFICATE_COMMANDS, cli.EXIT_OK)


def test_batched_certificates_write_the_bytes_of_the_lone_loops(tmp_path, monkeypatch):
    # the lone bisection, the greedy loop and scipy's transform, as references
    from test_free_boundary import ref_extract_graph
    from test_harness import ref_find_touching_balls

    from alap import free_boundary, harness

    cfg_path = write_config(tmp_path)
    # extract-fb writes the graph values that verify-fb only summarizes
    commands = ("verify-fb", "extract-fb", "growth", "harnack")
    for tag in ("shipped", "reference"):
        if tag == "reference":
            monkeypatch.setattr(free_boundary, "extract_graph", ref_extract_graph)
            monkeypatch.setattr(harness, "find_touching_balls", ref_find_touching_balls)
        for command in commands:
            out = str(tmp_path / tag / command)
            assert cli.main([command, "--config", cfg_path, "--out", out]) == 0
    for command in commands:
        names = sorted(os.listdir(tmp_path / "shipped" / command))
        assert names and names == sorted(os.listdir(tmp_path / "reference" / command))
        for name in names:
            shipped = (tmp_path / "shipped" / command / name).read_bytes()
            assert shipped == (tmp_path / "reference" / command / name).read_bytes(), name


def _report_value(lines, key):
    return next(line for line in lines if line.startswith(key + ":")).split(":", 1)[1].strip()


def test_affine_solve_is_deterministic_in_fewer_sweeps_than_plain_relaxation(tmp_path, monkeypatch):
    # affine.cfg is where the Anderson history restarts; plain relaxed
    # sweeps took 176 on it
    cfg_path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "affine.cfg")
    outs = []
    for tag in ("a", "b"):
        monkeypatch.setattr(cli, "_last_solve", None)
        outs.append(tmp_path / tag)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(outs[-1])]) == cli.EXIT_OK
    for name in ("u.csv", "chi.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    lines = (outs[0] / "solve_report.txt").read_text(encoding="utf-8").splitlines()
    assert _report_value(lines, "converged") == "True"
    assert int(_report_value(lines, "outer iterations")) <= 176
    assert float(_report_value(lines, "fixed-point residual (max norm)")) <= 1e-7


def test_affine_chi_is_within_outer_tol_of_its_tight_reference():
    cfg = config.load(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "affine.cfg"))
    grid = cfg.grid(cfg.resolution)
    pair, _ = solver.solve_problem(grid, cfg.profile, cfg.fieldh, cfg.domain, cfg.solver_config)
    tight_cfg = dataclasses.replace(cfg.solver_config, outer_tol=1e-13)
    tight, _ = solver.solve_problem(grid, cfg.profile, cfg.fieldh, cfg.domain, tight_cfg)
    assert np.max(np.abs(pair.chi - tight.chi)) <= cfg.solver_config.outer_tol


@pytest.mark.parametrize("name", ["dam", "affine", "two_level"])
def test_boundary_barrier_samples_lie_in_the_domain(tmp_path, name):
    # the supersolution inequality is claimed in the domain only
    cfg_path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.cfg")
    out = tmp_path / "bar"
    assert cli.main(["check-barriers", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_OK
    dom = config.load(cfg_path).domain
    with open(out / "barriers.csv", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["barrier"].startswith("boundary_")]
    assert len(rows) == 200 and {r["barrier"] for r in rows} == {f"boundary_power_n{dom.dim}"}
    pts = np.array([[float(r[f"x{k + 1}"]) for k in range(dom.dim)] for r in rows])
    assert np.all(dom.contains(pts))
    assert all(r["pass"] == "1" for r in rows)


def test_flat_box_without_boundary_samples_exits_4(tmp_path, capsys):
    text = DAM_CONFIG.replace("domain.upper = 1 1", "domain.upper = 1 1e-7").replace(
        "domain.m = 0.6", "domain.m = 1e-8").replace("domain.g.level = 0.6", "domain.g.level = 1e-8")
    code = cli.main(["check-barriers", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "exterior-sphere samples lie in the domain" in capsys.readouterr().err


def test_certificate_commands_draw_their_samples_without_numpy_random(tmp_path):
    # the eight certificate commands on the shipped dam, in one process
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "dam.cfg")
    code = (
        "import sys, alap.cli\n"
        "cfg, out = sys.argv[1], sys.argv[2]\n"
        "for command in ('check-profile', 'check-barriers', 'trace', 'verify-fb --h 0.2',\n"
        "                'growth', 'harnack', 'rescale', 'boundary-growth'):\n"
        "    name, *extra = command.split()\n"
        "    argv = [name, '--config', cfg, '--out', out, *extra]\n"
        "    assert alap.cli.main(argv) == 0, command\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), timeout=600, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    rows = list(csv.DictReader((tmp_path / "out" / "barriers.csv").read_text().splitlines()))
    assert rows and all(row["pass"] == "1" for row in rows)


def test_certificate_commands_integrate_no_barrier_profile(tmp_path, monkeypatch):
    # the certificates read theta' and theta'' in closed form; theta itself,
    # the one integral, is for ``boundary_profile_value`` alone
    from alap import barriers

    def refuse(*args):
        raise AssertionError("a certificate command integrated theta")

    monkeypatch.setattr(barriers, "adaptive_simpson", refuse)
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "dam.cfg")
    codes = {}
    for command in ("check-profile", "check-barriers", "trace", "verify-fb --h 0.2",
                    "growth", "harnack", "rescale", "boundary-growth"):
        name, *extra = command.split()
        argv = [name, "--config", cfg, "--out", str(tmp_path / name), *extra]
        codes[command] = cli.main(argv)
    assert codes == dict.fromkeys(codes, cli.EXIT_OK)


@pytest.mark.parametrize("old, new", [
    # the slope's argument E(0) overflows: a bound of inf
    ("rescale.radius = 0.2", "rescale.radius = 0.2\nboundary_growth.sphere_radius = 0.001"),
    # a_inv(E(0)) lies beyond float64: it is inf
    ("profile.family = power\nprofile.p = 2",
     "profile.family = logpower\nprofile.alpha = 0.01\nprofile.beta = 1000\nprofile.gamma = 1"),
], ids=["small_sphere", "logpower"])
def test_boundary_growth_refuses_a_bound_that_is_not_finite(tmp_path, monkeypatch, capsys, old, new):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "dam.cfg")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("grid.resolution = 129 129", "grid.resolution = 33 33")
    assert old in text

    def refuse(*args, **kwargs):
        raise AssertionError("solved before the bound was checked")

    monkeypatch.setattr(solver, "solve_problem", refuse)
    out = tmp_path / "out"
    argv = ["boundary-growth", "--config", write_config(tmp_path, text.replace(old, new)),
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "boundary_growth.sphere_radius" in err and "slope at 0 is inf, not finite" in err
    assert not (out / "boundary_growth.csv").exists()


def test_solve_draws_its_field_samples_by_seed_without_numpy_random(tmp_path):
    # importing numpy.random is a sizeable part of a solve-only process
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys, alap.cli\n"
        "cfg, out = sys.argv[1], sys.argv[2]\n"
        "for tag, seed in (('a', '7'), ('b', '7'), ('c', '8')):\n"
        "    argv = ['solve', '--config', cfg, '--out', f'{out}/{tag}', '--seed', seed]\n"
        "    assert alap.cli.main(argv) == 0, tag\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, write_config(tmp_path), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), timeout=600, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    data = {
        tag: (tmp_path / "out" / tag / "field_certification.csv").read_bytes()
        for tag in "abc"
    }
    assert data["a"] == data["b"] and data["a"] != data["c"]
    rows = list(csv.DictReader(data["a"].decode("utf-8").splitlines()))
    assert len(rows) == 128 and all(row["pass"] == "1" for row in rows)
    points = np.array([[float(row["x1"]), float(row["x2"])] for row in rows])
    assert np.all((points >= 0.0) & (points <= 1.0)) and len(np.unique(points, axis=0)) == 128


def _exterior_sphere(dom):
    """The exterior sphere of ``check-barriers``: tangent to the bottom face,
    centred below its middle."""
    sphere_r = 0.2 * dom.delta
    mid = 0.5 * (dom.lower + dom.upper)
    return np.array(list(mid[:-1]) + [float(dom.lower[-1]) - sphere_r]), sphere_r


def _ref_exterior_sphere_points(dom, x1, sphere_r, seed):
    """The draws one at a time, each tested on its own, as they were made."""
    import random

    rng = random.Random(seed)
    dist_lo, dist_hi = 1e-3 * dom.delta, 0.999 * dom.delta
    kept = []
    for _ in range(20000):
        dist = rng.uniform(dist_lo, dist_hi)
        raw = np.array([rng.gauss(0.0, 1.0) for _ in range(dom.dim)])
        raw[-1] = abs(raw[-1])
        pt = x1 + (sphere_r + dist) * raw / np.linalg.norm(raw)
        if dom.contains(pt):
            kept.append(pt)
            if len(kept) == 200:
                return np.array(kept)
    raise ConfigError(f"only {len(kept)} of 20000 exterior-sphere samples lie in the domain")


@pytest.mark.parametrize("lower, upper", [([0, 0], [1, 1]), ([-0.2, 0.1, 0.0], [0.9, 0.6, 1.3])],
                         ids=["unit_square", "box_3d"])
@pytest.mark.parametrize("seed", range(10))
def test_block_sphere_draws_keep_the_points_of_the_lone_draws(lower, upper, seed):
    faces = ["ymax"] if len(lower) == 2 else ["zmax"]
    dom = geometry.box_domain(lower, upper, faces, geometry.BoundaryData("zero"), 1.0)
    x1, sphere_r = _exterior_sphere(dom)
    got = cli._exterior_sphere_points(dom, x1, sphere_r, seed)
    assert got.shape == (200, dom.dim)
    assert np.array_equal(got, _ref_exterior_sphere_points(dom, x1, sphere_r, seed))


def test_thin_box_exits_4_with_the_count_of_the_lone_draws(tmp_path, capsys):
    # 65 of the 20000 draws lie in a box 0.004 high at seed 42
    text = DAM_CONFIG.replace("domain.upper = 1 1", "domain.upper = 1 0.004").replace(
        "domain.m = 0.6", "domain.m = 1e-3").replace("domain.g.level = 0.6", "domain.g.level = 1e-3")
    cfg_path = write_config(tmp_path, text)
    dom = config.load(cfg_path).domain
    with pytest.raises(ConfigError) as ref:
        _ref_exterior_sphere_points(dom, *_exterior_sphere(dom), 42)
    assert cli.main(["check-barriers", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == f"config error: {ref.value}\n"
    assert "only 0 of" not in str(ref.value)


def test_ring_margins_that_are_not_finite_are_counted(tmp_path):
    # logpower with a small a0: the radial ring's exp(-alpha rho^2) underflows
    # and (2 alpha k)^3 overflows, so margins are nan
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "dam.cfg")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("grid.resolution = 129 129", "grid.resolution = 33 33")
    text = text.replace("profile.p = 2", "profile.alpha = 0.01\nprofile.beta = 1000\nprofile.gamma = 1")
    text = text.replace("profile.family = power", "profile.family = logpower")
    out = tmp_path / "out"
    argv = ["check-barriers", "--config", write_config(tmp_path, text), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CERTIFICATION
    lines = (out / "barriers_report.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "radial_logpower_n2_k402: pass=False min_margin=nan (366 of 740 margins not finite)"
    )
    # a line whose margins are all finite keeps its form
    assert lines[-1].startswith("boundary_logpower_n2: pass=True min_margin=")
    assert lines[-1].endswith("e+01")


DAM_3D = """
schema_version = 1
seed = 5
domain.lower = 0 0 0
domain.upper = 1 1 1
domain.t_faces = zmax
domain.m = 0.6
domain.g.kind = hydrostatic
domain.g.level = 0.6
grid.resolution = 17 17 17
profile.family = power
profile.p = 2
field.kind = constant
field.c = 0 0 1
fb.levels = 0.1 0.3
fb.omega_count = 5
"""


def test_free_boundary_commands_run_in_3d(tmp_path):
    # the omegas are the tensor grid of 5 x 5 points of each level
    cfg_path = write_config(tmp_path, DAM_3D)
    out = tmp_path / "out"
    assert cli.main(["extract-fb", "--config", cfg_path, "--out", str(out)]) in (0, 3)
    with open(out / "free_boundary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["level", "omega1", "omega2", "phi", "set_empty",
                             "boundary_touching", "identity_ok", "lsc_pass"]
    assert len(rows) == 2 * 25
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    assert [(float(r["omega1"]), float(r["omega2"])) for r in rows[:25]] == [
        (a, b) for a in grid for b in grid
    ]
    assert cli.main(["verify-fb", "--config", cfg_path, "--out", str(out)]) in (0, 3)
    report = (out / "verify_fb.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split(":")[0] for line in report] == ["level 0.1", "level 0.3"]
