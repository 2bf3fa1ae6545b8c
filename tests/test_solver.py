"""Semidiscrete forms, their conservation identities and the time loop."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import sbpkit.cli
import sbpkit.operators
import sbpkit.solver
import sbpkit.spaces
from sbpkit.cli import _bumpy
from sbpkit.operators import find_operator
from sbpkit.solver import (
    PROBLEM_KINDS,
    BlockState,
    InstabilityError,
    Interval,
    ProblemSpec,
    rhs_advection,
    rhs_burgers,
    run,
    ssprk33_step,
)
from sbpkit.spaces import make_space

UNIT = Interval(0.0, 1.0)

#: the model problems as (kind, source coefficient): advection without
#: and with its source, and Burgers; the ids are the CLI problem names
_PROBLEMS = [("advection", 0.0), ("advection", 2.0), ("burgers", 0.0)]
_PROBLEM_IDS = ["advection", "advection-source", "burgers"]


def _single_block_state(space_text: str, u: np.ndarray) -> BlockState:
    op = find_operator(make_space(space_text, UNIT))
    u = np.asarray(u, dtype=float)[None, :]
    return BlockState(u=u, operator=op, edges=(0.0, 1.0), t=0.0)


def _linear_state(u) -> BlockState:
    return _single_block_state("poly:d=1", np.asarray(u, dtype=float))


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(kind="heat", domain=UNIT, initial_condition=np.sin)
    with pytest.raises(ValueError):
        ProblemSpec(
            kind="advection", domain=UNIT, initial_condition=np.sin, wave_speed=0.0
        )
    with pytest.raises(TypeError):
        ProblemSpec(
            kind="advection", domain=UNIT, initial_condition=np.sin, periodic=False
        )
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    assert spec.sigma == 1.0
    assert spec == ProblemSpec(
        kind="advection", domain=UNIT, initial_condition=np.sin, sigma=1.0
    )
    burgers = ProblemSpec(kind="burgers", domain=UNIT, initial_condition=np.sin)
    assert burgers.sigma == 2.0
    given = ProblemSpec(kind="burgers", domain=UNIT, initial_condition=np.sin, sigma=3)
    assert type(given.sigma) is float
    assert (
        ProblemSpec(
            kind="advection", domain=UNIT, initial_condition=np.sin, sigma=0.6
        ).sigma
        == 0.6
    )


def test_problem_spec_states_the_boundary_and_the_source_once():
    assert PROBLEM_KINDS == ("advection", "burgers")
    with pytest.raises(ValueError, match="unknown problem kind 'advection_source'"):
        ProblemSpec(kind="advection_source", domain=UNIT, initial_condition=np.sin)
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    assert spec.inflow is None and spec.source_coefficient == 0.0


def test_an_advection_source_coefficient_is_applied():
    state = _linear_state([2.0, 3.0])
    plain, forced = (
        ProblemSpec(
            kind="advection",
            domain=UNIT,
            initial_condition=np.sin,
            inflow=lambda t: 5.0,
            source_coefficient=c,
        )
        for c in (0.0, 3.0)
    )
    du = rhs_advection(state, 0.0, forced) - rhs_advection(state, 0.0, plain)
    np.testing.assert_allclose(du[0], [6.0, 9.0], atol=1e-12)


@pytest.mark.parametrize("domain", [(0.0, 1.0), [0.0, 1.0], None])
def test_problem_spec_refuses_a_domain_that_is_not_an_interval(domain):
    with pytest.raises(ValueError) as exc:
        ProblemSpec(kind="advection", domain=domain, initial_condition=np.sin)
    assert str(exc.value) == f"domain must be an Interval, got {domain!r}"


@pytest.mark.parametrize("value", [True, np.True_])
@pytest.mark.parametrize("field", ["wave_speed", "source_coefficient", "sigma"])
@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_problem_spec_refuses_boolean_parameters(kind, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a number, got True$"):
        ProblemSpec(
            kind=kind, domain=UNIT, initial_condition=np.sin, **{field: value}
        )


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_problem_spec_refuses_problem_data_that_is_not_callable(kind):
    with pytest.raises(ValueError) as exc:
        ProblemSpec(kind=kind, domain=UNIT, initial_condition=np.zeros(3))
    assert str(exc.value).startswith("initial_condition must be callable, got array(")
    for inflow in (1.0, "0.5", np.float64(0.5)):
        with pytest.raises(ValueError) as exc:
            ProblemSpec(
                kind=kind, domain=UNIT, initial_condition=np.sin, inflow=inflow
            )
        assert str(exc.value) == (
            f"inflow must be None (periodic) or callable, got {inflow!r}"
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("source_coefficient", 3.0),
        ("source_coefficient", -1e-300),
        ("wave_speed", 5.0),
        ("wave_speed", -1.0),
    ],
)
def test_burgers_refuses_the_fields_it_has_no_use_for(field, value):
    only = {"source_coefficient": "0", "wave_speed": "1.0"}[field]
    with pytest.raises(ValueError) as exc:
        ProblemSpec(
            kind="burgers", domain=UNIT, initial_condition=np.sin, **{field: value}
        )
    assert str(exc.value) == f"{field} must be {only} for 'burgers', got {value}"
    # the defaults, and the same values given as other number types, build
    spec = ProblemSpec(
        kind="burgers",
        domain=UNIT,
        initial_condition=np.sin,
        wave_speed=1,
        source_coefficient=-0.0,
    )
    assert (spec.wave_speed, spec.source_coefficient) == (1.0, 0.0)


def test_run_refuses_an_initial_condition_of_the_wrong_length():
    spec = ProblemSpec(
        kind="advection", domain=UNIT, initial_condition=lambda x: np.sin(x[:-1])
    )
    message = r"^initial condition values gave shape \(7,\), expected \(8,\)$"
    with pytest.raises(ValueError, match=message):
        run(spec, "trig:d=1", n_blocks=2, t_final=0.1)


def test_block_state_validates_its_grid():
    op = find_operator(make_space("trig:d=1", UNIT))
    u = np.zeros((2, op.n_nodes))
    with pytest.raises(ValueError):
        BlockState(u=u, operator=op, edges=(0.0, 1.0), t=0.0)
    with pytest.raises(ValueError):
        BlockState(u=u[:, :-1], operator=op, edges=(0.0, 0.5, 1.0), t=0.0)
    with pytest.raises(ValueError):
        BlockState(u=u, operator=op, edges=(0.0, 0.5, 0.5), t=0.0)
    state = BlockState(u=u, operator=op, edges=(0.0, 0.25, 1.0), t=0.0)
    np.testing.assert_array_equal(state.s, [0.25, 0.75])
    assert state.total_nodes == state.n_blocks * op.n_nodes == 2 * op.n_nodes
    for nodes, mapped in zip(state.nodes, state.operators):
        np.testing.assert_array_equal(nodes, mapped.nodes)


@pytest.mark.parametrize(
    "edges", [(0.0, math.inf), (math.nan, 1.0), (0.0, 0.5, -math.inf)]
)
def test_block_state_refuses_non_finite_edges(edges):
    op = find_operator(make_space("trig:d=1", UNIT))
    u = np.zeros((len(edges) - 1, op.n_nodes))
    bad = next(e for e in edges if not math.isfinite(e))
    with pytest.raises(ValueError, match=f"^edges must be finite, got {bad}$"):
        BlockState(u=u, operator=op, edges=edges, t=0.0)


def test_block_state_names_a_block_whose_width_ratio_underflows():
    # the edges increase, but 5e-324 over a width of 2 rounds to 0
    op = find_operator(make_space("poly:d=2", Interval(0.0, 2.0)))
    u = np.zeros((2, op.n_nodes))
    want = (
        "block 0 on [0.0, 5e-324] is too narrow: its width ratio to the "
        "operator's interval of width 2.0 is 0.0"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        BlockState(u=u, operator=op, edges=(0.0, 5e-324, 1.0), t=0.0)


@pytest.mark.parametrize(
    "edges, n_blocks, shape",
    [((0.0,), 0, "(1,)"), ((), 0, "(0,)"), (((0, 1), (1, 2)), 1, "(2, 2)")],
    ids=["one-edge", "empty", "2-D"],
)
def test_block_state_refuses_malformed_edges_by_name(edges, n_blocks, shape):
    op = find_operator(make_space("trig:d=1", UNIT))
    u = np.zeros((n_blocks, op.n_nodes))
    want = f"edges must be a 1-D array of at least 2 values, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        BlockState(u=u, operator=op, edges=edges, t=0.0)


@pytest.mark.parametrize(
    "t, reason",
    [
        (math.nan, "be finite"),
        (math.inf, "be finite"),
        (-math.inf, "be finite"),
        # numpy adds booleans as a logical or, so such a time never advances
        (True, "be a number"),
        (np.True_, "be a number"),
    ],
)
def test_block_state_refuses_a_non_finite_time(t, reason):
    op = find_operator(make_space("trig:d=1", UNIT))
    u = np.zeros((1, op.n_nodes))
    with pytest.raises(ValueError, match=f"^t must {reason}, got {t}$"):
        BlockState(u=u, operator=op, edges=(0.0, 1.0), t=t)


def test_block_state_rejects_complex_values():
    op = find_operator(make_space("trig:d=1", UNIT))
    u = np.ones((1, op.n_nodes), dtype=complex)
    with pytest.raises(ValueError, match="complex"):
        BlockState(u=u, operator=op, edges=(0.0, 1.0), t=0.0)


def test_ssprk33_rejects_a_complex_stage():
    # a complex stage has another dtype, so it reaches the validating
    # constructor instead of being cast to its real part
    state = _linear_state([1.0, 1.0])
    with pytest.raises(ValueError, match="complex"):
        ssprk33_step(lambda s, t: 1j * s.u, state, 0.1)


def test_run_rejects_a_complex_initial_condition():
    spec = ProblemSpec(
        kind="advection", domain=UNIT, initial_condition=lambda x: np.exp(1j * x)
    )
    with pytest.raises(ValueError, match="initial condition.*complex"):
        run(spec, "trig:d=1", t_final=0.1)


def test_advection_rhs_two_node_example():
    state = _linear_state([2.0, 3.0])
    spec = ProblemSpec(
        kind="advection",
        domain=UNIT,
        initial_condition=np.sin,
        inflow=lambda t: 5.0,
    )
    du = rhs_advection(state, 0.0, spec)
    np.testing.assert_allclose(du[0], [5.0, -1.0], atol=1e-12)


def test_advection_rhs_vanishes_on_periodic_constants():
    state = _single_block_state("trig:d=1", np.full(4, 3.25))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    du = rhs_advection(state, 0.0, spec)
    np.testing.assert_allclose(du[0], 0.0, atol=1e-9)


def test_burgers_rhs_two_node_example():
    state = _linear_state([1.0, 2.0])
    spec = ProblemSpec(
        kind="burgers",
        domain=UNIT,
        initial_condition=np.sin,
        inflow=lambda t: 1.0,
        sigma=2.0,
    )
    du = rhs_burgers(state, 0.0, spec)
    np.testing.assert_allclose(du[0], [-4.0 / 3.0, -5.0 / 3.0], atol=1e-12)
    # the induced energy rate matches the boundary flux expression
    op = state.operators[0]
    rate = 2.0 * float(np.dot(state.u[0] * op.p, du[0]))
    assert rate == pytest.approx(-14.0 / 3.0, abs=1e-12)


def test_burgers_rhs_vanishes_on_matched_constant():
    state = _single_block_state("poly:d=2", np.full(3, 2.0))
    spec = ProblemSpec(
        kind="burgers",
        domain=UNIT,
        initial_condition=np.sin,
        inflow=lambda t: 2.0,
    )
    du = rhs_burgers(state, 0.0, spec)
    np.testing.assert_allclose(du[0], 0.0, atol=1e-9)


def test_advection_mass_rate_identity():
    """Weighted sums of the right-hand side reduce to boundary fluxes."""
    rng = np.random.default_rng(52)
    for text in ("poly:d=2", "trig:d=1", "exp:d=2"):
        op = find_operator(make_space(text, UNIT))
        for _ in range(20):
            u = rng.normal(size=op.n_nodes)
            g = float(rng.normal())
            spec = ProblemSpec(
                kind="advection",
                domain=UNIT,
                initial_condition=np.sin,
                inflow=lambda t, g=g: g,
                wave_speed=1.5,
            )
            state = BlockState(u=u[None, :], operator=op, edges=(0.0, 1.0), t=0.0)
            du = rhs_advection(state, 0.0, spec)[0]
            a = spec.wave_speed
            rate = float(np.dot(op.p, du))
            scale = a * (1.0 + np.max(np.abs(u)) + abs(g))
            assert abs(rate + a * (u[-1] - g)) <= 1e-12 * scale


def test_advection_energy_rate_identity():
    rng = np.random.default_rng(53)
    op = find_operator(make_space("trig:d=1", UNIT))
    for sigma in (0.6, 1.0, 2.0):
        for _ in range(20):
            u = rng.normal(size=op.n_nodes)
            g = float(rng.normal())
            spec = ProblemSpec(
                kind="advection",
                domain=UNIT,
                initial_condition=np.sin,
                inflow=lambda t, g=g: g,
                sigma=sigma,
            )
            state = BlockState(u=u[None, :], operator=op, edges=(0.0, 1.0), t=0.0)
            du = rhs_advection(state, 0.0, spec)[0]
            rate = 2.0 * float(np.dot(u * op.p, du))
            expected = (
                u[0] ** 2 - u[-1] ** 2 - 2 * sigma * u[0] ** 2 + 2 * sigma * u[0] * g
            )
            scale = 1.0 + abs(expected)
            assert abs(rate - expected) <= 1e-11 * scale


def test_advection_energy_bound():
    # for sigma above one half the energy rate is bounded by the inflow
    # datum alone, independent of the state
    rng = np.random.default_rng(54)
    op = find_operator(make_space("poly:d=2", UNIT))
    for sigma in (0.6, 1.0, 2.0):
        for _ in range(20):
            u = 3.0 * rng.normal(size=op.n_nodes)
            g = float(rng.normal())
            spec = ProblemSpec(
                kind="advection",
                domain=UNIT,
                initial_condition=np.sin,
                inflow=lambda t, g=g: g,
                sigma=sigma,
            )
            state = BlockState(u=u[None, :], operator=op, edges=(0.0, 1.0), t=0.0)
            du = rhs_advection(state, 0.0, spec)[0]
            rate = 2.0 * float(np.dot(u * op.p, du))
            bound = g**2 * sigma**2 / (2 * sigma - 1.0)
            assert rate <= bound + 1e-10


def test_burgers_energy_rate_identity():
    rng = np.random.default_rng(55)
    op = find_operator(make_space("poly:d=2", UNIT))
    for sigma in (1.0, 2.0):
        for _ in range(25):
            u = rng.normal(size=op.n_nodes)
            g = float(rng.normal())
            spec = ProblemSpec(
                kind="burgers",
                domain=UNIT,
                initial_condition=np.sin,
                inflow=lambda t, g=g: g,
                sigma=sigma,
            )
            state = BlockState(u=u[None, :], operator=op, edges=(0.0, 1.0), t=0.0)
            du = rhs_burgers(state, 0.0, spec)[0]
            rate = 2.0 * float(np.dot(u * op.p, du))
            expected = (2.0 / 3.0) * (
                sigma * u[0] ** 2 * g - (sigma - 1.0) * u[0] ** 3 - u[-1] ** 3
            )
            scale = 1.0 + abs(expected)
            assert abs(rate - expected) <= 1e-11 * scale


def test_multi_block_mass_rates_telescope():
    """Interior penalties cancel in the total mass budget on a periodic loop."""
    rng = np.random.default_rng(56)
    ref = find_operator(make_space("trig:d=1", UNIT))
    edges = np.linspace(0.0, 1.0, 4)
    zeros = np.zeros((3, ref.n_nodes))
    ops = BlockState(u=zeros, operator=ref, edges=edges, t=0.0).operators
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    for _ in range(20):
        blocks = rng.normal(size=(len(ops), ref.n_nodes))
        state = BlockState(u=blocks, operator=ref, edges=edges, t=0.0)
        dus = rhs_advection(state, 0.0, spec)
        total = sum(float(np.dot(op.p, du)) for op, du in zip(ops, dus))
        scale = 1.0 + max(np.max(np.abs(u)) for u in blocks)
        assert abs(total) <= 1e-12 * scale


def _per_block_rhs(state: BlockState, t: float, spec: ProblemSpec) -> list:
    """The right-hand side as a loop over mapped block operators.

    Each block applies its own operator of ``state.operators`` and takes
    its boundary datum from the left neighbour, the inflow data or, without
    inflow data, the last block.
    """
    sigma = spec.sigma
    a = spec.wave_speed
    c = spec.source_coefficient
    out = []
    for i, (u, op) in enumerate(zip(state.u, state.operators)):
        if i > 0:
            g = state.u[i - 1][-1]
        elif spec.inflow is None:
            g = state.u[-1][-1]
        else:
            g = spec.inflow(t)
        if spec.kind == "burgers":
            du = -(op.D @ (u * u) + u * (op.D @ u)) / 3.0
            du[0] -= (sigma / 3.0) * u[0] * (u[0] - g) / op.p[0]
        else:
            du = -a * (op.D @ u) + c * u
            du[0] -= sigma * a * (u[0] - g) / op.p[0]
        out.append(du)
    return out


@pytest.mark.parametrize("n_blocks", [1, 3, 64])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize(
    "kind, source",
    [("advection", 0.0), ("advection", 0.7), ("burgers", 0.0)],
    ids=_PROBLEM_IDS,
)
def test_stacked_rhs_matches_per_block_loop(kind, source, periodic, n_blocks):
    rng = np.random.default_rng(57)
    ref = find_operator(make_space("exp:d=2", UNIT))
    domain = Interval(-0.5, 1.5)
    spec = ProblemSpec(
        kind=kind,
        domain=domain,
        initial_condition=np.sin,
        inflow=None if periodic else (lambda t: 1.0 + 0.5 * np.sin(3.0 * t)),
        wave_speed=1.3 if kind == "advection" else 1.0,
        source_coefficient=source,
        sigma=1.5,
    )
    edges = np.linspace(domain.left, domain.right, n_blocks + 1)
    u = 1.0 + rng.random((n_blocks, ref.n_nodes))
    state = BlockState(u=u, operator=ref, edges=edges, t=0.3)
    rhs = rhs_burgers if kind == "burgers" else rhs_advection
    got = rhs(state, 0.3, spec)
    want = np.array(_per_block_rhs(state, 0.3, spec))
    assert got.shape == want.shape
    # the stacked form divides by the width ratio after the product, the
    # loop before it; with a source, -a D u and c u can nearly cancel, so
    # the rounding bound is relative to the scale of the whole right side
    np.testing.assert_allclose(
        got, want, rtol=1e-13, atol=1e-13 * float(np.max(np.abs(want)))
    )


def test_ssprk33_linear_amplification():
    # one step applied to u' = -u multiplies by the cubic Taylor section
    state = _linear_state([1.0, -2.0])
    decay = lambda s, t: -s.u
    dt = 0.1
    z = -dt
    factor = 1.0 + z + z**2 / 2.0 + z**3 / 6.0
    out = ssprk33_step(decay, state, dt)
    np.testing.assert_allclose(out.u[0], factor * state.u[0], rtol=1e-14)
    assert out.t == pytest.approx(dt)


def test_ssprk33_exact_cases():
    state = _linear_state([0.7, 1.3])
    frozen = ssprk33_step(lambda s, t: np.zeros_like(s.u), state, 0.2)
    np.testing.assert_allclose(frozen.u[0], state.u[0], rtol=1e-15)
    shifted = ssprk33_step(lambda s, t: np.ones_like(s.u), state, 0.2)
    np.testing.assert_allclose(shifted.u[0], state.u[0] + 0.2, rtol=1e-15)


def test_ssprk33_flags_nonfinite_states():
    state = _linear_state([1.0, 1.0])
    blowup = lambda s, t: np.full_like(s.u, np.inf)
    with pytest.raises(InstabilityError):
        ssprk33_step(blowup, state, 0.1)


@pytest.mark.parametrize(
    "dt, reason",
    [(math.nan, "be finite"), (math.inf, "be finite"),
     (True, "be a number"), (np.True_, "be a number")],
)
def test_ssprk33_refuses_a_non_finite_dt(dt, reason):
    # a bad step size is the caller's error, not an instability
    state = _linear_state([1.0, 1.0])
    calls = []

    def rhs(s, t):
        calls.append(t)
        return -s.u

    with pytest.raises(ValueError, match=rf"^dt must {reason}, got {dt}$"):
        ssprk33_step(rhs, state, dt)
    assert calls == []


def test_ssprk33_failure_names_the_stage_time():
    # only the second stage, evaluated at t + dt, produces non-finite values
    state = replace(_linear_state([1.0, 1.0]), t=1.0)
    calls = []

    def rhs(s, t):
        calls.append(t)
        value = np.inf if len(calls) == 2 else 0.0
        return np.full_like(s.u, value)

    with pytest.raises(InstabilityError, match=r"near t=1\.25$"):
        ssprk33_step(rhs, state, 0.25)
    assert calls == [1.0, 1.25]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stage_check_messages_are_unchanged(bad):
    u = np.ones((5, 4))
    u[2, 1] = bad
    with pytest.raises(
        InstabilityError, match=r"^non-finite solution values in block 2 near t=0\.5$"
    ):
        sbpkit.solver._check_finite(u, 0.5)
    u[4, 3] = bad
    with pytest.raises(
        InstabilityError,
        match=r"^non-finite solution values in block 2 \(and 1 more\) near t=0\.5$",
    ):
        sbpkit.solver._check_finite(u, 0.5)


def test_run_whose_energy_overflows_is_unstable():
    # with sigma = 10 the values grow to about 1e170 and stay finite, but
    # their squares overflow: the recorded energy is inf, which is an
    # instability, and no numpy warning escapes (warnings are errors here)
    spec = ProblemSpec(
        kind="advection", domain=UNIT, initial_condition=sbpkit.cli._oscillatory,
        sigma=10.0,
    )
    with pytest.raises(
        InstabilityError, match=r"^non-finite mass or energy near t=0\.422222$"
    ):
        run(spec, "trig:d=4", n_blocks=10, t_final=0.5, cfl=0.5)


def test_run_refuses_initial_values_whose_energy_overflows():
    spec = ProblemSpec(
        kind="advection", domain=UNIT, initial_condition=lambda x: 0 * x + 1e200
    )
    with pytest.raises(
        ValueError,
        match=r"^initial condition values give a non-finite mass or energy: "
        r"mass [0-9.e+]+, energy inf$",
    ):
        run(spec, "trig:d=1", t_final=0.1)


@pytest.mark.parametrize("shape", [(3, 4), (0, 4), (3, 0)])
def test_stage_check_passes_finite_and_empty_values(shape):
    assert sbpkit.solver._check_finite(np.zeros(shape), 0.5) is None


def test_ssprk33_failure_names_the_block():
    ref = find_operator(make_space("trig:d=1", UNIT))
    edges = np.linspace(0.0, 1.0, 65)
    u = np.ones((64, ref.n_nodes))
    state = BlockState(u=u, operator=ref, edges=edges, t=1.0)
    calls = []

    def rhs(s, t):
        calls.append(t)
        du = np.zeros_like(s.u)
        if len(calls) == 2:
            du[37, 2] = np.inf
        return du

    with pytest.raises(
        InstabilityError,
        match=r"^non-finite solution values in block 37 near t=1\.25$",
    ):
        ssprk33_step(rhs, state, 0.25)


def _replace_ssprk33_step(rhs_fn, state, dt):
    """The former SSP-RK3 step, which built every stage state through
    ``dataclasses.replace`` and so re-validated the grid three times;
    kept as the reference for the shared-grid stage states."""
    t, u0 = state.t, state.u
    u1 = u0 + dt * rhs_fn(state, t)
    k = rhs_fn(replace(state, u=u1, t=t + dt), t + dt)
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * k)
    k = rhs_fn(replace(state, u=u2, t=t + 0.5 * dt), t + 0.5 * dt)
    u3 = (u0 + 2.0 * (u2 + dt * k)) / 3.0
    return replace(state, u=u3, t=t + dt)


def _recomputing_rhs_for(spec):
    """The right-hand sides as they were before the state carried its
    per-block constants: ``s[:, None]`` and ``s * p[0]`` on every call."""
    sigma = spec.sigma
    a = spec.wave_speed

    def rhs(state, t):
        u, s, op = state.u, state.s, state.operator
        g = np.empty(u.shape[0])
        g[1:] = u[:-1, -1]
        g[0] = u[-1, -1] if spec.inflow is None else spec.inflow(t)
        if spec.kind == "burgers":
            DT = op.D.T
            du = -((u * u) @ DT + u * (u @ DT)) / (3.0 * s[:, None])
            du[:, 0] -= (sigma / 3.0) * u[:, 0] * (u[:, 0] - g) / (s * op.p[0])
            return du
        du = (-a * (u @ op.D.T)) / s[:, None]
        if spec.source_coefficient:
            du += spec.source_coefficient * u
        du[:, 0] -= sigma * a * (u[:, 0] - g) / (s * op.p[0])
        return du

    return rhs


def _stepping_spec(
    kind: str,
    source: float,
    periodic: bool,
    wave_speed: float = 1.0,
    sigma: float | None = None,
) -> ProblemSpec:
    return ProblemSpec(
        kind=kind,
        domain=UNIT,
        initial_condition=lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x),
        inflow=None if periodic else (lambda t: 1.0 + 0.3 * np.sin(5.0 * t)),
        wave_speed=wave_speed,
        source_coefficient=source,
        sigma=sigma,
    )


def _stepping_cases(cases) -> list:
    """``(kind, source, periodic)`` cases at ``a = 1`` and the default sigma,
    plus one advection case at ``a = 1.3``, ``sigma = 1.5``.

    At the defaults the advection right side skips its products by
    exactly 1.0; the last case takes the branches that multiply by ``a``
    and by ``sigma * a``.
    """
    params = [
        pytest.param(*case, 1.0, None, id="-".join(map(str, case))) for case in cases
    ]
    params.append(
        pytest.param("advection", 2.0, False, 1.3, 1.5, id="advection-a1.3-sigma1.5")
    )
    return params


def _random_edges(n_edges: int, seed: int) -> np.ndarray:
    """Strictly increasing edges on [0, 1] with seeded random widths."""
    widths = np.random.default_rng(seed).uniform(0.1, 1.0, n_edges - 1)
    return np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))


# on a uniform grid every width ratio is the same float, so only a
# non-uniform one shows a divisor whose rows hold another block's ratio
@pytest.mark.parametrize(
    "edges",
    [(0.0, 0.2, 0.5, 1.0), _random_edges(17, 26)],
    ids=["3-blocks", "16-random-blocks"],
)
@pytest.mark.parametrize("space", ["trig:d=4", "poly:d=16"])
@pytest.mark.parametrize(
    "kind, source, periodic, wave_speed, sigma",
    _stepping_cases(
        [(kind, c, periodic) for kind, c in _PROBLEMS for periodic in (True, False)]
    ),
)
def test_rhs_matches_the_recomputing_rhs_on_a_non_uniform_grid(
    kind, source, periodic, wave_speed, sigma, space, edges
):
    spec = _stepping_spec(kind, source, periodic, wave_speed, sigma)
    ref = find_operator(make_space(space, UNIT))
    n_blocks = len(edges) - 1
    u = 1.0 + 0.5 * np.random.default_rng(7).standard_normal((n_blocks, ref.n_nodes))
    state = BlockState(u=u, operator=ref, edges=edges, t=0.3)
    assert np.unique(state.s).size > 1
    rhs = rhs_burgers if kind == "burgers" else rhs_advection
    got = rhs(state, 0.3, spec)
    want = _recomputing_rhs_for(spec)(state, 0.3)
    assert got.tobytes() == want.tobytes()


# poly:d=16 has 17 nodes, where D.T as a contiguous copy rounds the
# products differently from the transposed view
@pytest.mark.parametrize(
    "n_blocks, space",
    [
        (1, "exp:d=2"),
        (10, "exp:d=2"),
        (64, "exp:d=2"),
        (1, "poly:d=16"),
        (10, "poly:d=16"),
    ],
    ids=["1", "10", "64", "1-poly:d=16", "10-poly:d=16"],
)
@pytest.mark.parametrize(
    "kind, source, periodic, wave_speed, sigma",
    _stepping_cases(
        [
            ("advection", 0.0, True),
            ("advection", 2.0, False),
            ("burgers", 0.0, True),
            ("burgers", 0.0, False),
        ]
    ),
)
def test_run_matches_the_replace_based_step(
    monkeypatch, kind, source, periodic, wave_speed, sigma, n_blocks, space
):
    spec = _stepping_spec(kind, source, periodic, wave_speed, sigma)
    got = run(spec, space, n_blocks=n_blocks, t_final=0.1)
    with monkeypatch.context() as m:
        m.setattr(sbpkit.solver, "ssprk33_step", _replace_ssprk33_step)
        for name in ("rhs_advection", "rhs_burgers"):
            m.setattr(
                sbpkit.solver,
                name,
                lambda state, t, spec: _recomputing_rhs_for(spec)(state, t),
            )
        want = run(spec, space, n_blocks=n_blocks, t_final=0.1)
    assert got.steps == want.steps > 0
    np.testing.assert_array_equal(got.state.u, want.state.u)
    assert got.state.t == want.state.t == 0.1
    assert [(r.t, r.mass, r.energy) for r in got.history] == [
        (r.t, r.mass, r.energy) for r in want.history
    ]


def test_run_validates_the_grid_a_fixed_number_of_times(monkeypatch):
    calls = []
    validate = BlockState.__post_init__

    def counting(self):
        calls.append(self.t)
        validate(self)

    monkeypatch.setattr(BlockState, "__post_init__", counting)
    spec = _stepping_spec("advection", 0.0, True)
    per_run = []
    for t_final in (0.02, 0.2):
        calls.clear()
        result = run(spec, "trig:d=1", n_blocks=8, t_final=t_final)
        per_run.append((result.steps, len(calls)))
    (few, few_calls), (many, many_calls) = per_run
    assert many > few
    assert many_calls == few_calls


def test_ssprk33_revalidates_a_stage_of_another_shape():
    ref = find_operator(make_space("trig:d=1", UNIT))
    state = BlockState(
        u=np.ones((3, ref.n_nodes)), operator=ref, edges=(0.0, 0.2, 0.5, 1.0), t=0.0
    )
    misshapen = lambda s, t: np.zeros((s.n_blocks, 1, s.u.shape[1]))
    with pytest.raises(ValueError, match="do not match"):
        ssprk33_step(misshapen, state, 0.1)


@pytest.mark.parametrize(
    "stage",
    [
        lambda s: s.u,
        lambda s: -s.u.astype(np.float32),
        lambda s: np.float32(0.3) * s.u[0],
        lambda s: 2.0,
        lambda s: 1j * s.u,
    ],
    ids=["read-only", "float32", "broadcast", "scalar", "complex"],
)
def test_ssprk33_matches_the_replace_based_step_for_any_stage(stage):
    # the step works in place on its own arrays only: a right side that
    # returns the state's read-only values, another dtype or shape, or a
    # scalar gives the out-of-place result or the same error
    ref = find_operator(make_space("trig:d=1", UNIT))
    u = np.random.default_rng(3).standard_normal((3, ref.n_nodes))
    state = BlockState(u=u, operator=ref, edges=(0.0, 0.2, 0.5, 1.0), t=0.0)
    rhs = lambda s, t: stage(s)
    try:
        want = _replace_ssprk33_step(rhs, state, 0.1)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            ssprk33_step(rhs, state, 0.1)
        return
    got = ssprk33_step(rhs, state, 0.1)
    assert got.u.dtype == want.u.dtype == np.float64
    assert got.u.tobytes() == want.u.tobytes()
    assert got.t == want.t


def test_ssprk33_stage_states_share_the_grid():
    ref = find_operator(make_space("trig:d=1", UNIT))
    state = BlockState(
        u=np.ones((3, ref.n_nodes)), operator=ref, edges=(0.0, 0.2, 0.5, 1.0), t=0.0
    )
    seen = []

    def rhs(s, t):
        seen.append(s)
        return -s.u

    out = ssprk33_step(rhs, state, 0.1)
    assert len(seen) == 3 and seen[0] is state
    for stage in (*seen[1:], out):
        assert stage.operator is state.operator
        assert stage.edges is state.edges
        assert stage.s is state.s
        assert stage._left_last is state._left_last
        for name in ("_DT", "_ms_div", "_m3s_div", "_s_p0"):
            assert getattr(stage, name) is getattr(state, name)
        assert not stage.u.flags.writeable
        with pytest.raises(ValueError):
            stage.u[0, 0] = 0.0
    for name in ("_ms_div", "_m3s_div", "_s_p0"):
        assert not getattr(state, name).flags.writeable
        with pytest.raises(ValueError):
            getattr(state, name)[0] = 1.0
    for name in ("_ms_div", "_m3s_div"):
        assert getattr(state, name).shape == state.u.shape
        assert getattr(state, name).flags.c_contiguous
    assert [s.t for s in seen] == [0.0, 0.1, 0.05]
    assert out.t == 0.1


def test_run_builds_no_per_block_operators(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-block operator built on the hot path")

    for module in (sbpkit.spaces, sbpkit.solver):
        monkeypatch.setattr(module, "affine_map", forbidden)
    ic = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x)
    for kind in ("advection", "burgers"):
        spec = ProblemSpec(kind=kind, domain=UNIT, initial_condition=ic)
        result = run(spec, "trig:d=1", n_blocks=8, t_final=0.05)
        assert result.state.u.shape == (8, 4)
        assert result.steps > 0


def test_run_validates_arguments():
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    with pytest.raises(ValueError):
        run(spec, "trig:d=1", cfl=0.0)
    with pytest.raises(ValueError):
        run(spec, "trig:d=1", cfl=1.5)
    with pytest.raises(ValueError):
        run(spec, "trig:d=1", t_final=-1.0)
    with pytest.raises(ValueError):
        run(spec, "trig:d=1", n_blocks=0)


def test_run_refuses_a_fractional_block_count():
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    for n_blocks in (2.5, math.inf, math.nan, True, np.True_):
        message = f"block count must be a whole number, got {n_blocks}"
        with pytest.raises(ValueError, match=message):
            run(spec, "poly:d=2", n_blocks=n_blocks)
    # numpy integers are counts like ints
    a = run(spec, "trig:d=1", n_blocks=np.int64(3), t_final=0.05)
    b = run(spec, "trig:d=1", n_blocks=3, t_final=0.05)
    assert np.array_equal(a.state.u, b.state.u)


@pytest.mark.parametrize("name", ["t_final", "cfl"])
@pytest.mark.parametrize("value", [True, np.True_])
def test_run_refuses_a_boolean_time_or_cfl(name, value):
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    with pytest.raises(ValueError, match=f"^{name} must be a number, got True$"):
        run(spec, "trig:d=1", **{name: value})


def test_run_records_the_final_time_as_a_float():
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    result = run(spec, "trig:d=1", n_blocks=2, t_final=1)
    assert type(result.state.t) is float and result.state.t == 1.0
    assert type(result.history[-1].t) is float


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind, source", _PROBLEMS, ids=_PROBLEM_IDS)
def test_run_refuses_non_finite_inflow_by_name(kind, source, bad):
    spec = ProblemSpec(
        kind=kind,
        domain=UNIT,
        initial_condition=lambda x: np.ones_like(x),
        inflow=lambda t: bad if t > 0.05 else 1.0,
        source_coefficient=source,
    )
    # the first of the 65 samples of [0, 0.1] after t = 0.05
    message = r"^inflow values are not finite near t=0\.0515625$"
    with pytest.raises(ValueError, match=message):
        run(spec, "trig:d=1", t_final=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["advection", "burgers"])
def test_run_refuses_non_finite_initial_data_by_name(kind, bad):
    # refused before the Burgers sign check, which NaN would slip past,
    # and before any step, so it is not reported as an instability
    spec = ProblemSpec(
        kind=kind, domain=UNIT, initial_condition=lambda x: np.where(x > 0.5, bad, 1.0)
    )
    with pytest.raises(ValueError) as err:
        run(spec, "trig:d=1", n_blocks=2, t_final=0.1)
    got = re.fullmatch(
        r"initial condition values are not finite near x=(\S+)", str(err.value)
    )
    assert got is not None and float(got.group(1)) > 0.5


@pytest.mark.parametrize("t_final", [math.nan, math.inf])
def test_run_rejects_non_finite_final_time(t_final):
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    with pytest.raises(ValueError, match="finite"):
        run(spec, "trig:d=1", t_final=t_final)


def test_run_zero_time_returns_initial_data():
    ic = lambda x: np.cos(2 * np.pi * x)
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    result = run(spec, "trig:d=1", t_final=0.0)
    assert result.steps == 0
    assert len(result.history) == 1
    op = result.state.operators[0]
    np.testing.assert_array_equal(result.state.u[0], ic(op.nodes))


def test_run_lands_exactly_on_final_time():
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    result = run(spec, "trig:d=1", n_blocks=2, t_final=0.37, cfl=0.4)
    assert result.state.t == 0.37
    assert result.steps == len(result.history) - 1
    assert result.history[0].t == 0.0


@pytest.mark.parametrize(
    "field, value",
    [("wave_speed", math.inf), ("source_coefficient", math.nan), ("sigma", -math.inf)],
)
@pytest.mark.parametrize(
    "kind, source", _PROBLEMS[1:], ids=_PROBLEM_IDS[1:]
)
def test_problem_spec_refuses_non_finite_parameters(kind, source, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        ProblemSpec(
            kind=kind,
            domain=UNIT,
            initial_condition=np.sin,
            **{"source_coefficient": source, field: value},
        )


@pytest.mark.parametrize(
    "kind, source, sigma, bound",
    [
        ("advection", 0.0, -1.0, "exceed 1/2"),
        ("advection", 0.0, 0.25, "exceed 1/2"),
        ("advection", 0.0, 0.5, "exceed 1/2"),
        ("advection", 2.0, 0.5, "exceed 1/2"),
        ("burgers", 0.0, 0.5, "be at least 1"),
    ],
)
def test_problem_spec_refuses_anti_dissipative_sigma(kind, source, sigma, bound):
    with pytest.raises(
        ValueError, match=f"^sigma must {bound} for '{kind}', got {sigma}$"
    ):
        ProblemSpec(
            kind=kind,
            domain=UNIT,
            initial_condition=np.sin,
            source_coefficient=source,
            sigma=sigma,
        )


def test_a_blow_up_raises_instability_error_not_a_warning():
    # poly:d=2 on four blocks overflows in the Burgers right side before
    # the stage check sees the non-finite values
    spec = ProblemSpec(kind="burgers", domain=UNIT, initial_condition=_bumpy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="non-finite solution values"):
            run(spec, "poly:d=2", n_blocks=4, t_final=0.5)


def test_run_rejects_negative_burgers_data():
    spec = ProblemSpec(
        kind="burgers", domain=UNIT, initial_condition=lambda x: x - 0.5
    )
    with pytest.raises(ValueError):
        run(spec, "poly:d=2", t_final=0.01)
    inflow_spec = ProblemSpec(
        kind="burgers",
        domain=UNIT,
        initial_condition=lambda x: np.ones_like(x),
        inflow=lambda t: -1.0,
    )
    with pytest.raises(ValueError):
        run(inflow_spec, "poly:d=2", t_final=0.01)
