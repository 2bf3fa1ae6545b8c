"""Tests of the benchmark harness's own logic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, Span, percentile, self_times  # noqa: E402


def _span(name, start, end, parent=-1, layer="solver", pass_id="p", **attrs):
    return Span(name, layer, start, end, parent, pass_id, True, attrs)


def test_self_time_subtracts_direct_children_only():
    s = [
        _span("run", 0.0, 10.0),
        _span("ssprk33_step", 1.0, 4.0, parent=0),
        _span("rhs_advection", 1.5, 2.5, parent=1),
        _span("ssprk33_step", 5.0, 7.0, parent=0),
    ]
    assert self_times(s) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_and_clips_children():
    s = [
        _span("outer", 0.0, 10.0),
        _span("a", 2.0, 6.0, parent=0),
        _span("b", 4.0, 8.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),
    ]
    # covered: [2, 8] and [9, 10] -> 7
    assert self_times(s)[0] == pytest.approx(3.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 501)), 98) == 490
    assert percentile(list(range(1, 500)), 98) is None
    assert percentile(list(range(1, 21)), 50) == 10
    assert percentile(list(range(1, 20)), 50) is None
    assert percentile([], 50) is None


def test_recorder_nests_spans_and_ignores_calls_outside_a_pass():
    rec = Recorder()

    def inner(x):
        return x + 1

    w_inner = rec.wrap("spaces", "inner", inner)
    w_outer = rec.wrap("quadrature", "outer", lambda x: w_inner(x) * 2)
    assert w_outer(1) == 4
    assert rec.spans == []
    with rec.recording("p0"):
        assert w_outer(1) == 4
    assert [(s.name, s.parent, s.pass_id) for s in rec.spans] == [
        ("outer", -1, "p0"),
        ("inner", 0, "p0"),
    ]
    assert rec.spans[0].start <= rec.spans[1].start <= rec.spans[1].end <= rec.spans[0].end


def test_recorder_marks_raising_calls():
    rec = Recorder()

    def boom():
        raise ValueError("no")

    w = rec.wrap("operators", "boom", boom)
    with rec.recording("p"), pytest.raises(ValueError):
        w()
    assert rec.spans[0].ok is False


def test_instrument_patches_every_binding_site():
    import sbpkit
    import sbpkit.cli
    import sbpkit.operators
    import sbpkit.solver

    original = sbpkit.operators.find_positive_rule
    rec = Recorder()
    inst = spans.instrument(rec)
    try:
        assert spans.unpatched_sites(inst) == []
        for site in spans.REQUIRED_SITES:
            assert site in inst.sites
        assert sbpkit.solver.find_operator is sbpkit.find_operator
        assert sbpkit.cli.run is sbpkit.solver.run
        assert sbpkit.operators.find_positive_rule.__wrapped__ is original
        # a binding left pointing at the original is reported
        sbpkit.operators.find_positive_rule = original
        assert "sbpkit.operators.find_positive_rule" in spans.unpatched_sites(inst)
    finally:
        inst.restore()
    assert sbpkit.operators.find_positive_rule is original


def test_layer_metrics_from_a_small_traced_run():
    import numpy as np

    import sbpkit

    rec = Recorder()
    inst = spans.instrument(rec, layers.ATTRS)
    try:
        spec = sbpkit.ProblemSpec(
            kind="advection", domain=sbpkit.Interval(0.0, 1.0),
            initial_condition=lambda x: np.cos(2 * np.pi * np.asarray(x)),
        )
        with rec.recording("setup"):
            space = sbpkit.make_space("trig:d=1")
        with rec.recording("p0"):
            result = sbpkit.run(spec, space, n_blocks=2, t_final=0.1)
    finally:
        inst.restore()
    out = layers.compute(rec.spans, ["p0"])
    assert set(out) == set(layers.PER_LAYER) - {"trace.overhead_s"}
    assert out["solver.ssprk33_step.calls"] == result.steps
    assert out["solver.rhs.calls"] == 3 * result.steps
    assert out["diagnostics.mass_energy.calls"] == 2 * (result.steps + 1)
    assert out["operators.build_yield"] == 1.0
    assert out["operators.search_s.trig"] > 0.0
    assert out["operators.search_s.poly"] == 0.0
    assert out["spaces.make_space.self_s"] > 0.0
    counts = layers.span_counts(rec.spans, ["p0"])
    assert counts["run.steps"] == result.steps
    assert counts["find_operator"] == 1


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        layers.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
