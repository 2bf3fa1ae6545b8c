"""Per-layer metrics computed from the spans of a traced run.

Counts and self times are means per traced pass.  ``spaces.make_space.
self_s`` is the exception: it is the self time of ``make_space`` while the
inputs are built, which is the part of ``setup_s`` that the package
controls.  Self time excludes time spent in other wrapped functions, so a
layer's ``self_s`` is the time its own code ran.
"""

from __future__ import annotations

from collections import defaultdict

from spans import LAYERS, Span, percentile, self_times

#: name -> (unit, better); the order is the print order
PER_LAYER = {
    "spaces.self_s": ("s", "lower"),
    "spaces.make_space.self_s": ("s", "lower"),
    "spaces.pair_moments.calls": ("count", "lower"),
    "spaces.pair_moments.self_s": ("s", "lower"),
    "spaces.boundary_product_moment.calls": ("count", "lower"),
    "spaces.boundary_product_moment.self_s": ("s", "lower"),
    "spaces.pair_derivative_rows.calls": ("count", "lower"),
    "spaces.pair_derivative_rows.self_s": ("s", "lower"),
    "spaces.vandermonde.calls": ("count", "lower"),
    "spaces.vandermonde.self_s": ("s", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.least_squares_rule.calls": ("count", "lower"),
    "quadrature.least_squares_rule.self_s": ("s", "lower"),
    "quadrature.verify_exactness.calls": ("count", "lower"),
    "quadrature.verify_exactness.self_s": ("s", "lower"),
    "quadrature.candidates": ("count", "lower"),
    "quadrature.rule_yield": ("ratio", "higher"),
    "operators.self_s": ("s", "lower"),
    "operators.build_operator.calls": ("count", "lower"),
    "operators.build_operator.self_s": ("s", "lower"),
    "operators.build_yield": ("ratio", "higher"),
    "operators.verify_sbp.self_s": ("s", "lower"),
    "operators.ladder_rungs": ("count", "lower"),
    "operators.search_s.trig": ("s", "lower"),
    "operators.search_s.poly": ("s", "lower"),
    "operators.search_s.exp": ("s", "lower"),
    "operators.search_s.rbf": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.ssprk33_step.calls": ("count", "lower"),
    "solver.ssprk33_step.self_s": ("s", "lower"),
    "solver.step_us.p50": ("us", "lower"),
    "solver.step_us.p98": ("us", "lower"),
    "solver.step_us.samples": ("count", "higher"),
    "solver.rhs.calls": ("count", "lower"),
    "solver.rhs.self_s": ("s", "lower"),
    "solver.node_steps_per_s": ("1/s", "higher"),
    "diagnostics.self_s": ("s", "lower"),
    "diagnostics.mass_energy.calls": ("count", "lower"),
    "diagnostics.mass_energy.self_s": ("s", "lower"),
    "diagnostics.burgers_reference.calls": ("count", "lower"),
    "diagnostics.burgers_reference.self_s": ("s", "lower"),
    "diagnostics.reference_us_per_point": ("us", "lower"),
    "diagnostics.error_report.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

FAMILIES = ("trig", "poly", "exp", "rbf")

CANDIDATE_BUILDERS = ("trapezoid_rule", "gauss_lobatto_rule", "least_squares_rule")


def _family(args, kwargs, result):
    space = args[0] if args else kwargs["space"]
    return {"family": space.kind.split(":", 1)[0].split("-", 1)[0]}


def _run_size(args, kwargs, result):
    if result is None:
        return {}
    return {"steps": result.steps, "nodes": result.state.total_nodes}


def _points(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"points": len(x) if hasattr(x, "__len__") else 1}


def _passed(args, kwargs, result):
    return {"passed": bool(result is not None and result.passed)}


#: span attributes the metrics need, keyed by "layer.function"
ATTRS = {
    "operators.find_operator": _family,
    "solver.run": _run_size,
    "diagnostics.burgers_reference": _points,
    "operators.verify_sbp": _passed,
}


def compute(spans: list[Span], passes: list[str]) -> dict[str, float]:
    """Per-layer metrics (without ``trace.overhead_s``) over ``passes``.

    ``passes`` names the traced passes; spans of other passes are ignored
    except set-up spans for ``spaces.make_space.self_s``.
    """
    selfs = self_times(spans)
    wanted = set(passes)
    n = max(1, len(passes))
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    search = dict.fromkeys(FAMILIES, 0.0)
    steps_us: list[float] = []
    run_node_steps = 0
    ref_points = 0
    ref_time = 0.0
    candidates = rules = built = verified = rungs = 0
    setup_make_space = 0.0
    n_spans = 0

    for span, own in zip(spans, selfs):
        key = f"{span.layer}.{span.name}"
        if span.pass_id not in wanted:
            if key == "spaces.make_space" and span.pass_id == "setup":
                setup_make_space += own
            continue
        n_spans += 1
        parent = spans[span.parent].name if span.parent >= 0 else None
        calls[key] += 1
        self_s[key] += own
        layer_self[span.layer] += own
        if key == "operators.find_operator":
            search[span.attrs["family"]] += span.duration
        elif key == "solver.ssprk33_step":
            steps_us.append(1e6 * span.duration)
        elif key == "solver.run" and span.ok:
            run_node_steps += span.attrs["steps"] * span.attrs["nodes"]
        elif key == "diagnostics.burgers_reference":
            ref_points += span.attrs["points"]
            ref_time += span.duration
        elif span.name in CANDIDATE_BUILDERS and parent == "find_positive_rule":
            candidates += span.ok
        elif key == "quadrature.find_positive_rule":
            rules += span.ok
            rungs += parent == "find_operator"
        elif key == "operators.build_operator":
            built += span.ok
        elif key == "operators.verify_sbp" and parent == "find_operator":
            verified += span.attrs["passed"]

    def both(*keys):
        return sum(calls[k] for k in keys) / n, sum(self_s[k] for k in keys) / n

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / n
    out["spaces.make_space.self_s"] = setup_make_space
    for metric, keys in (
        ("spaces.pair_moments", ("spaces.pair_moments",)),
        ("spaces.boundary_product_moment", ("spaces.boundary_product_moment",)),
        ("spaces.pair_derivative_rows", ("spaces.pair_derivative_rows",)),
        ("spaces.vandermonde", ("spaces.vandermonde", "spaces.vandermonde_derivative")),
        ("quadrature.least_squares_rule", ("quadrature.least_squares_rule",)),
        ("quadrature.verify_exactness", ("quadrature.verify_exactness",)),
        ("operators.build_operator", ("operators.build_operator",)),
        ("solver.ssprk33_step", ("solver.ssprk33_step",)),
        ("solver.rhs", ("solver.rhs_advection", "solver.rhs_burgers")),
        ("diagnostics.mass_energy", ("diagnostics.mass", "diagnostics.energy")),
        ("diagnostics.burgers_reference", ("diagnostics.burgers_reference",)),
    ):
        c, s = both(*keys)
        out[f"{metric}.calls"] = c
        out[f"{metric}.self_s"] = s
    out["operators.verify_sbp.self_s"] = both("operators.verify_sbp")[1]
    out["diagnostics.error_report.self_s"] = both("diagnostics.error_report")[1]
    out["quadrature.candidates"] = candidates / n
    out["quadrature.rule_yield"] = rules / candidates if candidates else 0.0
    out["operators.build_yield"] = verified / built if built else 0.0
    out["operators.ladder_rungs"] = rungs / n
    for fam in FAMILIES:
        out[f"operators.search_s.{fam}"] = search[fam] / n
    step_total = sum(steps_us) / 1e6
    out["solver.step_us.p50"] = percentile(steps_us, 50) or 0.0
    out["solver.step_us.p98"] = percentile(steps_us, 98) or 0.0
    out["solver.step_us.samples"] = float(len(steps_us))
    out["solver.node_steps_per_s"] = run_node_steps / step_total if step_total else 0.0
    out["diagnostics.reference_us_per_point"] = (
        1e6 * ref_time / ref_points if ref_points else 0.0
    )
    out["trace.spans"] = n_spans / n
    return out


def span_counts(spans: list[Span], passes: list[str]) -> dict[str, int]:
    """Totals over ``passes`` that the self-check compares with known counts."""
    wanted = set(passes)
    counts = defaultdict(int)
    for s in spans:
        if s.pass_id in wanted:
            counts[s.name] += 1
            if s.name == "run" and s.layer == "solver" and s.ok:
                counts["run.steps"] += s.attrs["steps"]
    return counts
