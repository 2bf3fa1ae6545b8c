"""Semidiscrete forms, their conservation identities and the time loop."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from sbpkit.operators import affine_block_operator, find_operator
from sbpkit.solver import (
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


def _single_block_state(space_text: str, u: np.ndarray) -> BlockState:
    op = find_operator(make_space(space_text, UNIT))
    return BlockState(blocks=(np.asarray(u, dtype=float),), operators=(op,), t=0.0)


def _linear_state(u) -> BlockState:
    return _single_block_state("poly:d=1", np.asarray(u, dtype=float))


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(kind="heat", domain=UNIT, initial_condition=np.sin)
    with pytest.raises(ValueError):
        ProblemSpec(
            kind="advection", domain=UNIT, initial_condition=np.sin, wave_speed=0.0
        )
    with pytest.raises(ValueError):
        ProblemSpec(
            kind="advection", domain=UNIT, initial_condition=np.sin, periodic=False
        )
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    assert spec.effective_sigma == 1.0
    burgers = ProblemSpec(kind="burgers", domain=UNIT, initial_condition=np.sin)
    assert burgers.effective_sigma == 2.0
    assert (
        ProblemSpec(
            kind="advection", domain=UNIT, initial_condition=np.sin, sigma=0.6
        ).effective_sigma
        == 0.6
    )


def test_advection_rhs_two_node_example():
    state = _linear_state([2.0, 3.0])
    spec = ProblemSpec(
        kind="advection",
        domain=UNIT,
        initial_condition=np.sin,
        periodic=False,
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
        periodic=False,
        inflow=lambda t: 1.0,
        sigma=2.0,
    )
    du = rhs_burgers(state, 0.0, spec)
    np.testing.assert_allclose(du[0], [-4.0 / 3.0, -5.0 / 3.0], atol=1e-12)
    # the induced energy rate matches the boundary flux expression
    op = state.operators[0]
    rate = 2.0 * float(np.dot(state.blocks[0] * op.p, du[0]))
    assert rate == pytest.approx(-14.0 / 3.0, abs=1e-12)


def test_burgers_rhs_vanishes_on_matched_constant():
    state = _single_block_state("poly:d=2", np.full(3, 2.0))
    spec = ProblemSpec(
        kind="burgers",
        domain=UNIT,
        initial_condition=np.sin,
        periodic=False,
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
                periodic=False,
                inflow=lambda t, g=g: g,
                wave_speed=1.5,
            )
            state = BlockState(blocks=(u,), operators=(op,), t=0.0)
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
                periodic=False,
                inflow=lambda t, g=g: g,
                sigma=sigma,
            )
            state = BlockState(blocks=(u,), operators=(op,), t=0.0)
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
                periodic=False,
                inflow=lambda t, g=g: g,
                sigma=sigma,
            )
            state = BlockState(blocks=(u,), operators=(op,), t=0.0)
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
                periodic=False,
                inflow=lambda t, g=g: g,
                sigma=sigma,
            )
            state = BlockState(blocks=(u,), operators=(op,), t=0.0)
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
    ops = tuple(
        affine_block_operator(ref, Interval(float(a), float(b)))
        for a, b in zip(edges[:-1], edges[1:])
    )
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    for _ in range(20):
        blocks = tuple(rng.normal(size=op.n_nodes) for op in ops)
        state = BlockState(blocks=blocks, operators=ops, t=0.0)
        dus = rhs_advection(state, 0.0, spec)
        total = sum(float(np.dot(op.p, du)) for op, du in zip(ops, dus))
        scale = 1.0 + max(np.max(np.abs(u)) for u in blocks)
        assert abs(total) <= 1e-12 * scale


def test_ssprk33_linear_amplification():
    # one step applied to u' = -u multiplies by the cubic Taylor section
    state = _linear_state([1.0, -2.0])
    decay = lambda s, t: [-u for u in s.blocks]
    dt = 0.1
    z = -dt
    factor = 1.0 + z + z**2 / 2.0 + z**3 / 6.0
    out = ssprk33_step(decay, state, dt)
    np.testing.assert_allclose(out.blocks[0], factor * state.blocks[0], rtol=1e-14)
    assert out.t == pytest.approx(dt)


def test_ssprk33_exact_cases():
    state = _linear_state([0.7, 1.3])
    frozen = ssprk33_step(lambda s, t: [np.zeros_like(u) for u in s.blocks], state, 0.2)
    np.testing.assert_allclose(frozen.blocks[0], state.blocks[0], rtol=1e-15)
    shifted = ssprk33_step(
        lambda s, t: [np.ones_like(u) for u in s.blocks], state, 0.2
    )
    np.testing.assert_allclose(shifted.blocks[0], state.blocks[0] + 0.2, rtol=1e-15)


def test_ssprk33_flags_nonfinite_states():
    state = _linear_state([1.0, 1.0])
    blowup = lambda s, t: [np.full_like(u, np.inf) for u in s.blocks]
    with pytest.raises(InstabilityError):
        ssprk33_step(blowup, state, 0.1)


def test_ssprk33_failure_names_the_stage_time():
    # only the second stage, evaluated at t + dt, produces non-finite values
    state = replace(_linear_state([1.0, 1.0]), t=1.0)
    calls = []

    def rhs(s, t):
        calls.append(t)
        value = np.inf if len(calls) == 2 else 0.0
        return [np.full_like(u, value) for u in s.blocks]

    with pytest.raises(InstabilityError, match=r"near t=1\.25$"):
        ssprk33_step(rhs, state, 0.25)
    assert calls == [1.0, 1.25]


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


def test_run_zero_time_returns_initial_data():
    ic = lambda x: np.cos(2 * np.pi * x)
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    result = run(spec, "trig:d=1", t_final=0.0)
    assert result.steps == 0
    assert len(result.history) == 1
    op = result.state.operators[0]
    np.testing.assert_array_equal(result.state.blocks[0], ic(op.nodes))


def test_run_lands_exactly_on_final_time():
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=np.sin)
    result = run(spec, "trig:d=1", n_blocks=2, t_final=0.37, cfl=0.4)
    assert result.state.t == 0.37
    assert result.steps == len(result.history) - 1
    assert result.history[0].t == 0.0


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
        periodic=False,
        inflow=lambda t: -1.0,
    )
    with pytest.raises(ValueError):
        run(inflow_spec, "poly:d=2", t_final=0.01)
