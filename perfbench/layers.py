"""Per-layer metrics from the spans of a traced pass.

A span's self time is its duration minus the durations of its direct
child spans.  A layer's self time (``parser.self_s``) sums the self
times of its spans.  A function's self time (``engine.derive.self_s``)
also counts the self time of the same-module functions it calls that
have no self-time metric of their own, such as ``oracle.sol_finite``
under ``is_slice`` or ``report.argument_positions`` under
``compute_stats``.  Counts and self times are per op (the pass's
totals divided by its op count), so passes of different lengths
compare.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import math
from collections import defaultdict

# name -> (unit, better); the order is the order printed
PER_LAYER = {
    "parser.calls": ("calls/op", "lower"),
    "parser.self_s": ("s/op", "lower"),
    "constraints.satisfiable.calls": ("calls/op", "lower"),
    "constraints.satisfiable.self_s": ("s/op", "lower"),
    "constraints.satisfiable.rows_mean": ("rows", "lower"),
    "constraints.satisfiable.unsat_ratio": ("ratio", "lower"),
    "constraints.constraint_linear.calls": ("calls/op", "lower"),
    "engine.derive.calls": ("calls/op", "lower"),
    "engine.derive.self_s": ("s/op", "lower"),
    "engine.constraints_of.calls": ("calls/op", "lower"),
    "engine.nosolution": ("calls/op", "lower"),
    "engine.nodes_per_s": ("1/s", "higher"),
    "engine.size_exponent": ("slope", "lower"),
    "depgraph.tree_dep_graph.calls": ("calls/op", "lower"),
    "depgraph.tree_dep_graph.self_s": ("s/op", "lower"),
    "depgraph.tree_slice.self_s": ("s/op", "lower"),
    "depgraph.edges_mean": ("edges", "lower"),
    "directional.annotate.self_s": ("s/op", "lower"),
    "directional.directional_slice.calls": ("calls/op", "lower"),
    "directional.directional_slice.self_s": ("s/op", "lower"),
    "directional.orient.self_s": ("s/op", "lower"),
    "directional.io_classes.self_s": ("s/op", "lower"),
    "directional.orient_per_slice": ("ratio", "lower"),
    "directional.sweep_size_exponent": ("slope", "lower"),
    "report.compute_stats.self_s": ("s/op", "lower"),
    "report.argument_positions.calls": ("calls/op", "lower"),
    "report.emit_report.self_s": ("s/op", "lower"),
    "report.highlight_listing.self_s": ("s/op", "lower"),
    "oracle.is_slice.calls": ("calls/op", "lower"),
    "oracle.is_slice.self_s": ("s/op", "lower"),
    "cli.main.self_s": ("s/op", "lower"),
    "cli.import_s": ("s/op", "lower"),
    "cli.startup_s": ("s/op", "lower"),
    "cli.deep_term_exit": ("code", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(y) on log(x), or None without two
    distinct sizes."""
    if len({x for x, _ in points}) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer, ops, *, overhead_ratio: float, deep_term_exit: int,
              import_s: list[float], startup_s: list[float]) -> dict[str, float]:
    names, spans = tracer.names, tracer.spans
    duration = [end - start for _, _, _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for i, (parent, *_rest) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]

    # a function's self time, with its unmeasured same-module helpers
    timed = {name.rsplit(".", 1)[0] for name in PER_LAYER
             if name.endswith(".self_s") and name.count(".") == 2}
    folded = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # children come after parents
        parent, _op, n = spans[i][:3]
        folded[i] += duration[i] - children[i]
        if parent >= 0 and names[n] not in timed and \
                names[spans[parent][2]].split(".", 1)[0] == names[n].split(".", 1)[0]:
            folded[parent] += folded[i]

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    size = defaultdict(int)
    flags = defaultdict(int)
    layer_calls = defaultdict(int)
    layer_self = defaultdict(float)
    op_roots = {}
    op_work = defaultdict(lambda: defaultdict(list))  # op -> name -> [(size, seconds)]
    for i, (parent, op, n, _start, _end, sz, flag) in enumerate(spans):
        name = names[n]
        if parent == -1:
            op_roots[op] = duration[i]
            continue
        own = duration[i] - children[i]
        calls[name] += 1
        self_s[name] += folded[i]
        total_s[name] += duration[i]
        size[name] += sz
        flags[name] += flag
        layer = name.split(".", 1)[0]
        layer_calls[layer] += 1
        layer_self[layer] += own
        op_work[op][name].append((sz, duration[i]))

    n_ops = max(len(op_roots), 1)

    def per_op(value: float) -> float:
        return value / n_ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    family_points = defaultdict(list)
    sweep_points = []
    for op_id, op in enumerate(ops):
        work = op_work.get(op_id, {})
        derived = work.get("engine.derive", [])
        nodes = sum(sz for sz, _ in derived)
        if op.family is not None and not op.sweep and nodes > 0:
            family_points[op.family].append((nodes, sum(t for _, t in derived)))
        graphs = work.get("depgraph.tree_dep_graph", [])
        if op.sweep and len(graphs) == 1 and op_id in op_roots:
            sweep_points.append((graphs[0][0], op_roots[op_id]))
    slopes = [s for s in map(_slope, family_points.values()) if s is not None]

    sat, derive = "constraints.satisfiable", "engine.derive"
    values = {
        "parser.calls": per_op(layer_calls["parser"]),
        "parser.self_s": per_op(layer_self["parser"]),
        "constraints.satisfiable.calls": per_op(calls[sat]),
        "constraints.satisfiable.self_s": per_op(self_s[sat]),
        "constraints.satisfiable.rows_mean": ratio(size[sat], calls[sat]),
        "constraints.satisfiable.unsat_ratio": ratio(flags[sat], calls[sat]),
        "constraints.constraint_linear.calls": per_op(calls["constraints.constraint_linear"]),
        "engine.derive.calls": per_op(calls[derive]),
        "engine.derive.self_s": per_op(self_s[derive]),
        "engine.constraints_of.calls": per_op(calls["engine.constraints_of"]),
        "engine.nosolution": per_op(flags[derive]),
        "engine.nodes_per_s": ratio(size[derive], total_s[derive]),
        "engine.size_exponent": _mean(slopes),
        "depgraph.tree_dep_graph.calls": per_op(calls["depgraph.tree_dep_graph"]),
        "depgraph.tree_dep_graph.self_s": per_op(self_s["depgraph.tree_dep_graph"]),
        "depgraph.tree_slice.self_s": per_op(self_s["depgraph.tree_slice"]),
        "depgraph.edges_mean": ratio(size["depgraph.tree_dep_graph"],
                                     calls["depgraph.tree_dep_graph"]),
        "directional.annotate.self_s": per_op(self_s["directional.annotate"]),
        "directional.directional_slice.calls": per_op(calls["directional.directional_slice"]),
        "directional.directional_slice.self_s": per_op(self_s["directional.directional_slice"]),
        "directional.orient.self_s": per_op(self_s["directional.orient"]),
        "directional.io_classes.self_s": per_op(self_s["directional.io_classes"]),
        "directional.orient_per_slice": ratio(calls["directional.orient"],
                                              calls["directional.directional_slice"]),
        "directional.sweep_size_exponent": _slope(sweep_points) or 0.0,
        "report.compute_stats.self_s": per_op(self_s["report.compute_stats"]),
        "report.argument_positions.calls": per_op(calls["report.argument_positions"]),
        "report.emit_report.self_s": per_op(self_s["report.emit_report"]),
        "report.highlight_listing.self_s": per_op(self_s["report.highlight_listing"]),
        "oracle.is_slice.calls": per_op(calls["oracle.is_slice"]),
        "oracle.is_slice.self_s": per_op(self_s["oracle.is_slice"]),
        "cli.main.self_s": per_op(self_s["cli.main"]),
        "cli.import_s": _mean(import_s),
        "cli.startup_s": _mean(startup_s),
        "cli.deep_term_exit": deep_term_exit,
        "trace.overhead_ratio": overhead_ratio,
    }
    assert list(values) == list(PER_LAYER)
    return values
