"""Traced mode: spans and counts around dualcat's public functions.

``instrument`` replaces public functions in dualcat's module namespaces with
wrappers defined here, so every call the CLI or the library makes into them
records a span (name, start, end, parent) or a count.  Nothing in dualcat is
edited, and untraced runs never import this module.  Spans stay in memory;
the worker writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from time import perf_counter

# Span names, and the (module, attribute) places each wrapped function is
# looked up from.  A place missing from the program is skipped, so the
# metric reads 0 rather than the run failing.
SPANS = {
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "closed_forms.closed_form": [("cli", "closed_form"), ("closed_forms", "closed_form")],
    "solver.solve_real": [("cli", "solve_real"), ("solver", "solve_real")],
    "solver.solve_dual": [("cli", "solve_dual"), ("solver", "solve_dual")],
    "solver.recover_w": [("cli", "recover_w"), ("solver", "recover_w")],
    "solver.assemble": [("cli", "assemble"), ("solver", "assemble")],
    "variational.residual_report": [("cli", "residual_report")],
    "variational.energy": [("cli", "energy"), ("variational", "energy")],
    "variational.make_constrained_variation": [("cli", "make_constrained_variation")],
    "variational.perturbed_curve": [("cli", "perturbed_curve"), ("variational", "perturbed_curve")],
    "variational.first_variation": [("cli", "first_variation")],
}

QUADRATURE_RULES = ("gauss_legendre_nodes", "partitioned_nodes", "cell_integrals")


class Tracer:
    """In-memory spans plus named counters, for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def top(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def self_times(self) -> dict[str, list[float]]:
        """Self time of each span in ms (duration minus its children), by name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            out.setdefault(name, []).append((t1 - t0 - c) * 1e3)
        return out

    def calls_between(self, name: str, t_start: float, t_end: float) -> int:
        return sum(1 for n, t0, _, _ in self.spans if n == name and t_start <= t0 <= t_end)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def instrument(tracer: Tracer, dualcat) -> None:
    """Wrap dualcat's public functions so calls record spans and counts."""
    from dualcat import cli, closed_forms, curves, quadrature, solver, variational

    modules = {
        "cli": cli, "closed_forms": closed_forms, "curves": curves,
        "solver": solver, "variational": variational,
    }
    counts = tracer.counts

    def after_real(sol):
        counts["solver.rk4_steps"] += len(sol.grid) - 1
        counts["solver.truncations"] += int(sol.truncated)

    def after_report(report):
        counts["variational.residual_report_points"] += len(report.grid)

    after = {"solver.solve_real": after_real, "variational.residual_report": after_report}

    # Hermite spline evaluations.  The counting subclass adds one increment
    # per call; solve_dual's wrapper books the calls made inside it.
    spline_evals = [0]
    if hasattr(solver, "CubicHermiteSpline"):
        base_call = solver.CubicHermiteSpline.__call__

        class CountingSpline(solver.CubicHermiteSpline):
            def __call__(self, x, nu=0, extrapolate=None):
                spline_evals[0] += 1
                return base_call(self, x, nu, extrapolate)

        solver.CubicHermiteSpline = CountingSpline

    def count_spline_evals(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = spline_evals[0]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["solver.solve_dual_spline_evals"] += spline_evals[0] - start

        return counted

    def count_retries(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except dualcat.DegenerateVariation:
                counts["variational.degenerate_retries"] += 1
                raise

        return counted

    pre = {
        "solver.solve_dual": count_spline_evals,
        "variational.make_constrained_variation": count_retries,
    }

    for name, places in SPANS.items():
        found = [(modules[m], attr) for m, attr in places if hasattr(modules[m], attr)]
        if not found:
            continue
        fn = getattr(*found[0])
        if name in pre:
            fn = pre[name](fn)
        wrapped = tracer.wrap(name, fn, after.get(name))
        for mod, attr in found:
            setattr(mod, attr, wrapped)

    # Quadrature nodes, counted once per outermost rule call
    # (partitioned_nodes calls gauss_legendre_nodes).
    depth = [0]

    def nodes_counter(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            depth[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                n = len(out[0]) if isinstance(out, tuple) else len(out) * kwargs.get(
                    "order", args[2] if len(args) > 2 else quadrature.GL_ORDER)
                counts["quadrature.nodes"] += n
                if tracer.top() == "variational.energy":
                    counts["variational.energy_nodes"] += n
            return out

        return counted

    for rule in QUADRATURE_RULES:
        if hasattr(quadrature, rule):
            counted = nodes_counter(getattr(quadrature, rule))
            for mod in (quadrature, solver):
                if hasattr(mod, rule):
                    setattr(mod, rule, counted)

    # Arc-length inversion: one span per call, with the arc_length calls and
    # speed evaluations made inside it counted.
    graph = curves.GraphCurve
    graph.x_at_arclength = tracer.wrap("curves.x_at_arclength", graph.x_at_arclength)
    arc_length = graph.arc_length

    @functools.wraps(arc_length)
    def counted_arc_length(self, *args, **kwargs):
        if tracer.top() == "curves.x_at_arclength":
            counts["curves.arc_length_calls"] += 1
        return arc_length(self, *args, **kwargs)

    graph.arc_length = counted_arc_length

    if hasattr(curves, "quad"):
        quad = curves.quad

        # quad's own evaluation count, so the integrand is not wrapped.  With
        # full_output quad returns its warnings instead of issuing them.
        @functools.wraps(quad)
        def counted_quad(func, *args, **kwargs):
            if tracer.top() != "curves.x_at_arclength" or kwargs.get("full_output"):
                return quad(func, *args, **kwargs)
            val, err, info, *_ = quad(func, *args, full_output=1, **kwargs)
            counts["curves.speed_evals"] += info["neval"]
            return val, err

        curves.quad = counted_quad


def layer_metrics(tracer: Tracer, ops: int, window: tuple[float, float], counts_before: Counter) -> dict:
    """Per-layer metrics of a traced run.

    ``_ms`` metrics are the median self time per call over every call the run
    made (set-up included); per-call counts average over the same calls; the
    ``per_op`` and ``_calls`` metrics count the timed window only.
    """
    selfs = tracer.self_times()
    counts = tracer.counts
    timed = counts - counts_before

    def ms(name):
        vals = selfs.get(name)
        return statistics.median(vals) if vals else 0.0

    def per_call(counter, name):
        n = len(selfs.get(name, ()))
        return counts[counter] / n if n else 0.0

    out = {f"{name}_ms": ms(name) for name in (
        "cli.build_parser", "closed_forms.closed_form",
        "solver.solve_real", "solver.solve_dual", "solver.recover_w", "solver.assemble",
        "variational.residual_report", "variational.energy",
        "variational.make_constrained_variation", "variational.perturbed_curve",
        "variational.first_variation", "curves.x_at_arclength",
    )}
    out["cli.main_self_ms"] = ms("cli.main")
    out["cli.build_parser_calls"] = tracer.calls_between("cli.build_parser", *window) / ops
    out["solver.rk4_steps"] = per_call("solver.rk4_steps", "solver.solve_real")
    out["solver.solve_dual_spline_evals"] = per_call("solver.solve_dual_spline_evals", "solver.solve_dual")
    out["solver.truncations"] = float(counts["solver.truncations"])
    out["variational.residual_report_points"] = per_call(
        "variational.residual_report_points", "variational.residual_report")
    out["variational.energy_nodes"] = per_call("variational.energy_nodes", "variational.energy")
    out["variational.degenerate_retries"] = float(counts["variational.degenerate_retries"])
    out["quadrature.nodes_per_op"] = timed["quadrature.nodes"] / ops
    out["curves.arc_length_calls_per_inversion"] = per_call("curves.arc_length_calls", "curves.x_at_arclength")
    out["curves.speed_evals_per_inversion"] = per_call("curves.speed_evals", "curves.x_at_arclength")
    return out
