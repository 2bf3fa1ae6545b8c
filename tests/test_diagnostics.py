"""Conserved quantities, reference solutions and error measurement."""

from __future__ import annotations

import math

import numpy as np
import pytest

import sbpkit.solver
from sbpkit.diagnostics import (
    burgers_reference,
    convergence_table,
    energy,
    error_report,
    exact_advection,
    mass,
    reference_solution,
)
from sbpkit.operators import find_operator
from sbpkit.solver import BlockState, Interval, ProblemSpec, run
from sbpkit.spaces import make_space

UNIT = Interval(0.0, 1.0)


def _state_with(space_text: str, u) -> BlockState:
    op = find_operator(make_space(space_text, UNIT))
    u = np.asarray(u, dtype=float)[None, :]
    return BlockState(u=u, operator=op, edges=(0.0, 1.0), t=0.0)


def test_mass_and_energy_hand_sums():
    state = _state_with("poly:d=1", [2.0, 3.0])
    assert mass(state) == pytest.approx(2.5)
    assert energy(state) == pytest.approx(6.5)


def test_mass_of_constant_equals_interval_width():
    op = find_operator(make_space("exp:d=2", UNIT))
    u = np.ones((1, op.n_nodes))
    state = BlockState(u=u, operator=op, edges=(0.0, 1.0), t=0.0)
    assert mass(state) == pytest.approx(1.0, abs=1e-12)
    assert energy(state) == pytest.approx(1.0, abs=1e-12)


def test_exact_advection_transport():
    u0 = lambda x: np.sin(2 * np.pi * np.asarray(x))
    x = np.linspace(0.0, 1.0, 33)
    # a full period returns the initial data
    np.testing.assert_allclose(
        exact_advection(u0, 1.0, 1.0, x, UNIT), u0(x), atol=1e-12
    )
    np.testing.assert_allclose(
        exact_advection(u0, 1.0, 0.0, x, UNIT), u0(x), atol=1e-12
    )
    # a quarter period shifts the profile right
    got = exact_advection(u0, 1.0, 0.25, x, UNIT)
    np.testing.assert_allclose(got, u0(x - 0.25), atol=1e-12)


def test_burgers_reference_constant_and_linear_data():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    assert burgers_reference(ones, 0.3, 0.5) == pytest.approx(1.0, abs=1e-12)
    # linear data u0(x) = x gives u(x, t) = x / (1 + t)
    lin = lambda x: np.asarray(x, dtype=float)
    assert burgers_reference(lin, 0.75, 0.5) == pytest.approx(0.5, abs=1e-10)
    x = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(burgers_reference(lin, x, 0.0), x, atol=1e-14)


def test_burgers_reference_satisfies_characteristic_equation():
    u0 = lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(x, dtype=float))
    t = 0.05
    x = np.linspace(0.0, 1.0, 21)
    u = burgers_reference(u0, x, t)
    # the traced foot xi = x - t u must reproduce the value exactly
    resid = np.abs(np.asarray(u0(x - t * u)) - u)
    assert np.max(resid) <= 1e-10


def test_burgers_reference_detects_crossing_characteristics():
    steep = lambda x: -10.0 * np.asarray(x, dtype=float)
    with pytest.raises(ValueError):
        burgers_reference(steep, 0.5, 0.5)


def test_reference_solution_periodic_advection():
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    ref = reference_solution(spec, 0.3)
    x = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(ref(x), ic(x - 0.3), atol=1e-12)


def test_reference_solution_forced_boundary_layer():
    """With constant inflow the source problem settles on exp growth in x."""
    dom = Interval(0.0, np.pi)
    spec = ProblemSpec(
        kind="advection_source",
        domain=dom,
        initial_condition=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        periodic=False,
        inflow=lambda t: 1.0,
    )
    ref = reference_solution(spec, 3.5)
    x = np.linspace(0.0, np.pi, 9)
    np.testing.assert_allclose(ref(x), np.exp(2.0 * x), rtol=1e-12)


def test_reference_solution_missing_for_burgers_inflow():
    spec = ProblemSpec(
        kind="burgers",
        domain=UNIT,
        initial_condition=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        periodic=False,
        inflow=lambda t: 1.0,
    )
    assert reference_solution(spec, 0.1) is None


def test_error_report_zero_error():
    op = find_operator(make_space("poly:d=1", UNIT))
    state = BlockState(u=op.nodes[None, :], operator=op, edges=(0.0, 1.0), t=0.0)
    report = error_report(state, lambda x: np.asarray(x, dtype=float))
    assert report.err_p == 0.0
    assert report.err_2 == 0.0
    assert report.err_max == 0.0


def test_error_report_single_node_defect():
    op = find_operator(make_space("trig:d=1", UNIT))
    u = np.zeros(op.n_nodes)
    delta = 0.125
    j = 1
    u[j] = delta
    state = BlockState(u=u[None, :], operator=op, edges=(0.0, 1.0), t=0.0)
    report = error_report(state, lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    assert report.err_p == pytest.approx(math.sqrt(op.p[j]) * delta, rel=1e-12)
    assert report.err_2 == pytest.approx(delta / math.sqrt(op.n_nodes), rel=1e-12)
    assert report.err_max == pytest.approx(delta)


def test_error_report_on_resolved_run():
    # with data inside the span the only error is the time integration,
    # which a small step keeps below 1e-3
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    result = run(spec, "trig:d=1", t_final=0.25, cfl=0.05)
    ref = reference_solution(spec, 0.25)
    report = error_report(result.state, ref)
    assert report.err_max < 1e-3
    assert report.err_p <= report.err_max + 1e-15  # domain has unit measure


def test_convergence_table_orders_and_shape():
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    rows = convergence_table(
        spec, ["poly:d=2"], [2, 4], t_final=0.25, cfl=0.4
    )
    assert len(rows) == 2
    assert math.isnan(rows[0].order)
    assert rows[1].err_p < rows[0].err_p
    assert rows[1].order > 2.0


def test_convergence_table_rejects_a_missing_reference_before_running(monkeypatch):
    spec = ProblemSpec(
        kind="burgers",
        domain=UNIT,
        initial_condition=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        periodic=False,
        inflow=lambda t: 1.0,
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("run() called for a problem without a reference")

    monkeypatch.setattr(sbpkit.solver, "run", forbidden)
    with pytest.raises(ValueError, match="no reference solution"):
        convergence_table(spec, ["poly:d=2"], [2, 4], t_final=0.1)


def test_convergence_table_resets_between_spaces():
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    rows = convergence_table(
        spec, ["poly:d=1", "poly:d=2"], [2, 4], t_final=0.1, cfl=0.4
    )
    assert [r.space for r in rows] == ["poly:d=1", "poly:d=1", "poly:d=2", "poly:d=2"]
    assert math.isnan(rows[0].order)
    assert math.isnan(rows[2].order)
