"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the alap modules from outside the
package: it swaps the module (or class) attribute for a timing wrapper and
puts the original back on exit. Every call opens a span with a name, start,
end, parent span and run id; a span's self time is its duration minus the
time its direct child spans cover. Spans stay in memory and are written out
once, at the end of the run. Calls of the hottest leaf, ``FieldH.__call__``,
are counted and timed but not kept as single spans.

Untraced runs never import this module, so they run the program unwrapped.
"""

import contextlib
import importlib
import itertools
import json
import os
import time

# (owner, attribute, span name). The owner is a module, or "module:Class"
# for a method. Names bound with ``from ... import`` are
# wrapped where they are used, under the span name of their definition.
TARGETS = (
    ("alap.solver", "solve_problem", "solver.solve_problem"),
    ("alap.solver", "residual", "solver.residual"),
    ("alap.solver", "energy", "solver.energy"),
    ("alap.solver", "dstn", "solver.dstn"),
    ("alap.solver", "idstn", "solver.idstn"),
    ("alap.geometry", "gradient_at_faces", "geometry.gradient_at_faces"),
    ("alap.geometry", "interpolate_nodes", "geometry.interpolate_nodes"),
    ("alap.geometry", "cell_values_at", "geometry.cell_values_at"),
    ("alap.fields:FieldH", "__call__", "fields.FieldH.__call__"),
    ("alap.fields", "certify_field", "fields.certify_field"),
    ("alap.orbits", "integrate_orbit", "orbits.integrate_orbit"),
    ("alap.orbits", "orbit_point", "orbits.orbit_point"),
    ("alap.free_boundary", "orbit_point", "orbits.orbit_point"),
    ("alap.orbits", "jacobian_numeric", "orbits.jacobian_numeric"),
    ("alap.orbits", "jacobian_analytic", "orbits.jacobian_analytic"),
    ("alap.free_boundary:OrbitFamily", "orbit", "orbits.OrbitFamily.orbit"),
    ("alap.free_boundary", "extract_graph", "free_boundary.extract_graph"),
    ("alap.free_boundary", "wet_interval_sup", "free_boundary.wet_interval_sup"),
    ("alap.free_boundary", "sample_along_orbit", "free_boundary.sample_along_orbit"),
    ("alap.free_boundary", "certify_chi_monotone", "free_boundary.certify_chi_monotone"),
    ("alap.free_boundary", "certify_no_rewetting", "free_boundary.certify_no_rewetting"),
    ("alap.free_boundary", "certify_lower_semicontinuity",
     "free_boundary.certify_lower_semicontinuity"),
    ("alap.barriers", "certify_radial_inequality", "barriers.certify_radial_inequality"),
    ("alap.barriers", "certify_hopf_inequality", "barriers.certify_hopf_inequality"),
    ("alap.barriers", "certify_boundary_supersolution",
     "barriers.certify_boundary_supersolution"),
    ("alap.profiles", "certify_ellipticity", "profiles.certify_ellipticity"),
    ("alap.harness", "find_touching_balls", "harness.find_touching_balls"),
    ("alap.harness", "growth_report", "harness.growth_report"),
    ("alap.harness", "harnack_check", "harness.harnack_check"),
    ("alap.harness", "boundary_growth_report", "harness.boundary_growth_report"),
    ("alap.harness", "rescale_check", "harness.rescale_check"),
    ("alap.csvio", "write_csv", "csvio.write_csv"),
    ("alap.config", "load", "config.load"),
)

#: hot leaves that call nothing wrapped: counted and timed, no single spans
LEAVES = frozenset({"fields.FieldH.__call__"})

#: CLI commands that get a ``cli.<command>_s`` metric
CLI_COMMANDS = (
    "solve", "check-profile", "check-barriers", "trace", "verify-fb",
    "growth", "harnack", "rescale", "boundary-growth",
)


def resolve_owner(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Stack-based span recorder; single-threaded, like the serial CLI."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent id, self time, run id)
        self.stats = {}  # name -> [calls, self seconds]
        self.counts = {
            "solver.sweeps": 0, "solver.newton_steps": 0, "orbits.samples": 0,
            "barriers.points": 0, "csvio.bytes": 0,
        }
        self.orbit_seeds = set()
        self._stack = []
        self._ids = itertools.count(1)
        self._saved = []

    def _open(self):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0, parent, time.perf_counter()]
        stack.append(frame)
        return frame

    def _close(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        sid, covered, parent, start = frame
        dur = end - start
        own = dur - covered
        if parent is not None:
            parent[1] += dur
        stat = self.stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += own
        self.spans.append((sid, name, start, end, parent[0] if parent else None, own, self.run_id))

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def _leaf(self, name, fn):
        """Wrapper for a hot leaf that calls nothing wrapped: it adds its time
        to the open span's children and to its totals, and keeps no span."""
        stack, stat, clock = self._stack, self.stats.setdefault(name, [0, 0.0]), time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stat[0] += 1
                stat[1] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _spanned(self, name, fn):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap(self, name, fn):
        wrapper = self._leaf(name, fn) if name in LEAVES else self._spanned(name, fn)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        # look every name up before swapping any, so that a missing one
        # leaves the program unwrapped
        found = []
        for owner, attr, name in TARGETS:
            obj = resolve_owner(owner)
            found.append((obj, attr, name, obj.__dict__[attr]))
        for obj, attr, name, original in found:
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_solve(tracer, args, kwargs, result):
    report = result[1]
    tracer.counts["solver.sweeps"] += report.outer_iterations
    tracer.counts["solver.newton_steps"] += report.inner_iterations


def _observe_orbit(tracer, args, kwargs, result):
    tracer.orbit_seeds.add((tuple(result.omega), result.level))
    tracer.counts["orbits.samples"] += len(result.times)


def _observe_barrier(tracer, args, kwargs, result):
    tracer.counts["barriers.points"] += int(result.points.shape[0])


def _observe_csv(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["csvio.bytes"] += os.path.getsize(path)


_OBSERVERS = {
    "solver.solve_problem": _observe_solve,
    "orbits.integrate_orbit": _observe_orbit,
    "barriers.certify_radial_inequality": _observe_barrier,
    "barriers.certify_hopf_inequality": _observe_barrier,
    "barriers.certify_boundary_supersolution": _observe_barrier,
    "csvio.write_csv": _observe_csv,
}


def group_seconds(spans, names):
    """Time covered by spans named in ``names``, counting each outermost one.

    A span inside another span of the same group (``growth_report`` calls
    ``harnack_check``) is already covered by its ancestor.
    """
    names = set(names)
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for sid, name, start, end, parent, _, _ in spans:
        if name not in names:
            continue
        while parent is not None and by_id[parent][1] not in names:
            parent = by_id[parent][4]
        if parent is None:
            total += end - start
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    spans, stats, counts = tracer.spans, tracer.stats, tracer.counts

    def calls(*names):
        return sum(stats.get(n, (0, 0.0))[0] for n in names)

    def seconds(*names):
        return group_seconds(spans, names)

    newton = counts["solver.newton_steps"]
    integrations = calls("orbits.integrate_orbit")
    m = {
        "solver.solve_calls": (calls("solver.solve_problem"), "count"),
        "solver.solve_s": (seconds("solver.solve_problem"), "s"),
        "solver.self_s": (stats.get("solver.solve_problem", (0, 0.0))[1], "s"),
        "solver.sweeps": (counts["solver.sweeps"], "count"),
        "solver.newton_steps": (newton, "count"),
        "solver.newton_per_sweep": (_ratio(newton, counts["solver.sweeps"]), "ratio"),
        "solver.residual_calls": (calls("solver.residual"), "count"),
        "solver.residual_s": (seconds("solver.residual"), "s"),
        "solver.residuals_per_newton": (_ratio(calls("solver.residual"), newton), "ratio"),
        "solver.precond_applies": (calls("solver.dstn"), "count"),
        "solver.precond_s": (seconds("solver.dstn", "solver.idstn"), "s"),
        "solver.precond_per_newton": (_ratio(calls("solver.dstn"), newton), "ratio"),
        "solver.energy_calls": (calls("solver.energy"), "count"),
        "solver.energy_s": (seconds("solver.energy"), "s"),
        "geometry.gradient_calls": (calls("geometry.gradient_at_faces"), "count"),
        "geometry.gradient_s": (seconds("geometry.gradient_at_faces"), "s"),
        "geometry.interp_calls": (
            calls("geometry.interpolate_nodes", "geometry.cell_values_at"), "count"),
        "geometry.interp_s": (
            seconds("geometry.interpolate_nodes", "geometry.cell_values_at"), "s"),
        "fields.eval_calls": (calls("fields.FieldH.__call__"), "count"),
        "fields.eval_s": (stats.get("fields.FieldH.__call__", (0, 0.0))[1], "s"),
        "fields.certify_s": (seconds("fields.certify_field"), "s"),
        "orbits.integrate_calls": (integrations, "count"),
        "orbits.integrate_s": (seconds("orbits.integrate_orbit"), "s"),
        "orbits.integrations_per_seed": (_ratio(integrations, len(tracer.orbit_seeds)), "ratio"),
        "orbits.samples": (counts["orbits.samples"], "count"),
    }
    for short, name in (("jacobian_numeric", "orbits.jacobian_numeric"),
                        ("jacobian_analytic", "orbits.jacobian_analytic"),
                        ("orbit_point", "orbits.orbit_point")):
        m[f"orbits.{short}_calls"] = (calls(name), "count")
        m[f"orbits.{short}_s"] = (seconds(name), "s")
    m.update({
        "free_boundary.extract_s": (seconds("free_boundary.extract_graph"), "s"),
        "free_boundary.wet_sup_s": (seconds("free_boundary.wet_interval_sup"), "s"),
        "free_boundary.sample_calls": (calls("free_boundary.sample_along_orbit"), "count"),
        "free_boundary.sample_s": (seconds("free_boundary.sample_along_orbit"), "s"),
        "free_boundary.certify_s": (seconds(
            "free_boundary.certify_chi_monotone", "free_boundary.certify_no_rewetting",
            "free_boundary.certify_lower_semicontinuity"), "s"),
        "barriers.certify_s": (seconds(
            "barriers.certify_radial_inequality", "barriers.certify_hopf_inequality",
            "barriers.certify_boundary_supersolution"), "s"),
        "barriers.points": (counts["barriers.points"], "count"),
        "profiles.certify_s": (seconds("profiles.certify_ellipticity"), "s"),
        "harness.s": (seconds(*(n for _, _, n in TARGETS if n.startswith("harness."))), "s"),
        "csvio.write_calls": (calls("csvio.write_csv"), "count"),
        "csvio.write_s": (seconds("csvio.write_csv"), "s"),
        "csvio.bytes": (counts["csvio.bytes"], "bytes"),
        "config.load_s": (seconds("config.load"), "s"),
    })
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = (seconds(f"cli.{command}"), "s")
    return m
