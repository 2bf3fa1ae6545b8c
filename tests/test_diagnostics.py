"""Conserved quantities, reference solutions and error measurement."""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import sbpkit.operators
import sbpkit.solver
from sbpkit.cli import _bumpy
from sbpkit.diagnostics import (
    ConvergenceRow,
    _wrap,
    burgers_reference,
    convergence_table,
    energy,
    error_report,
    mass,
    reference_solution,
)
from sbpkit.operators import find_operator, read_operator, write_operator
from sbpkit.quadrature import QuadratureRule
from sbpkit.solver import BlockState, Interval, ProblemSpec, run, ssprk33_step
from sbpkit.spaces import (
    FunctionSpace,
    make_space,
    rbf_cubic_space,
    vandermonde,
    vandermonde_derivative,
)

UNIT = Interval(0.0, 1.0)


def _state_with(space_text: str, u) -> BlockState:
    op = find_operator(make_space(space_text, UNIT))
    u = np.asarray(u, dtype=float)[None, :]
    return BlockState(u=u, operator=op, edges=(0.0, 1.0), t=0.0)


#: values that are no real, finite number, or are booleans
_NOT_NUMBERS = {
    "bool": True,
    "numpy-bool": np.True_,
    "text": "1",
    "none": None,
    "complex": 1j,
    "numpy-complex": np.complex128(1 + 2j),
    "nan": math.nan,
    "inf": math.inf,
    "huge": 10**400,
}


def _sine_advection(**numbers) -> ProblemSpec:
    return ProblemSpec(
        kind="advection", domain=UNIT, initial_condition=np.sin, **numbers
    )


def _study(**numbers):
    return convergence_table(_sine_advection(), ["trig:d=1"], [2], **numbers)


#: each number parameter: its name and a call that passes it the value v,
#: given a one-block state st
_NUMBER_CALLS = {
    "ProblemSpec-wave_speed": (
        "wave_speed",
        lambda st, v: _sine_advection(wave_speed=v),
    ),
    "ProblemSpec-source_coefficient": (
        "source_coefficient",
        lambda st, v: _sine_advection(source_coefficient=v),
    ),
    "ProblemSpec-sigma": ("sigma", lambda st, v: _sine_advection(sigma=v)),
    "BlockState-t": (
        "t",
        lambda st, v: BlockState(u=st.u, operator=st.operator, edges=st.edges, t=v),
    ),
    "ssprk33_step-dt": ("dt", lambda st, v: ssprk33_step(lambda s, t: -s.u, st, v)),
    "run-cfl": ("cfl", lambda st, v: run(_sine_advection(), "trig:d=1", cfl=v)),
    "run-t_final": (
        "t_final",
        lambda st, v: run(_sine_advection(), "trig:d=1", t_final=v),
    ),
    "convergence_table-cfl": ("cfl", lambda st, v: _study(cfl=v)),
    "convergence_table-t_final": ("t_final", lambda st, v: _study(t_final=v)),
    "reference_solution-t": (
        "t",
        lambda st, v: reference_solution(
            ProblemSpec(kind="burgers", domain=UNIT, initial_condition=_bumpy), v
        ),
    ),
    "burgers_reference-t": ("t", lambda st, v: burgers_reference(_bumpy, 0.5, v)),
}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{call}-{value_id}")
        for call in _NUMBER_CALLS
        for value_id, value in _NOT_NUMBERS.items()
        # sigma=None stands for the kind's default strength
        if not (call == "ProblemSpec-sigma" and value is None)
    ],
)
def test_number_parameters_refuse_values_by_name(monkeypatch, call, value):
    state = _state_with("poly:d=1", [1.0, 1.0])
    name, fn = _NUMBER_CALLS[call]

    def no_search(*args, **kwargs):
        raise AssertionError("a refused number must stop the call before a search")

    monkeypatch.setattr(sbpkit.solver, "find_operator", no_search)
    with pytest.raises(ValueError) as exc:
        fn(state, value)
    assert re.match(
        rf"{name} must be (a number|finite|a finite real number), got ", str(exc.value)
    )


def test_number_parameters_are_stored_as_floats():
    spec = _sine_advection(
        wave_speed=2, source_coefficient=np.float32(0.5), sigma=np.int64(1)
    )
    for value in (spec.wave_speed, spec.source_coefficient, spec.sigma):
        assert type(value) is float
    assert (spec.wave_speed, spec.source_coefficient, spec.sigma) == (2.0, 0.5, 1.0)
    st = _state_with("poly:d=1", [1.0, 1.0])
    later = BlockState(u=st.u, operator=st.operator, edges=st.edges, t=np.float64(0.25))
    assert type(later.t) is float and later.t == 0.25


def _first_leaf_set(a: np.ndarray, leaf) -> list:
    # a as nested lists, with its first entry replaced by leaf
    items = a.tolist()
    inner = items
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = leaf
    return items


#: each way an array argument can hold something that is no real number:
#: a function that spoils a valid float array, and the refusal's "got" text
_NOT_REALS = {
    "text": (lambda a: a.astype(str).tolist(), "text"),
    "bool-in-list": (lambda a: _first_leaf_set(a, True), "booleans"),
    "numpy-bool": (lambda a: np.ones(a.shape, dtype=bool), "booleans"),
    "none": (lambda a: _first_leaf_set(a, None), "None or objects"),
    "complex": (lambda a: a + 1j, "complex values"),
}

def _user_space(values, derivatives) -> FunctionSpace:
    return FunctionSpace(UNIT, values, derivatives, kind="user")


def _spoiled_reference(bad, t, x, **spec):
    # the reference at t of advection (or of spec's kind) with u0 = sin
    # spoiled by bad, at the points x
    spec = {"kind": "advection", "domain": UNIT, **spec}
    spec["initial_condition"] = lambda x: bad(np.sin(x))
    return reference_solution(ProblemSpec(**spec), t)(np.array(x))


def _burgers_last_call_spoiled(bad, x, t):
    # burgers_reference with u0 = _bumpy, whose last call (the values at the
    # feet) returns bad(values); every call before it solves as usual
    calls = []
    burgers_reference(lambda xi: calls.append(None) or _bumpy(xi), x, t)
    left = iter(range(len(calls) - 1, -1, -1))
    return burgers_reference(
        lambda xi: bad(_bumpy(xi)) if next(left) == 0 else _bumpy(xi), x, t
    )


#: each array argument: the name its refusal gives, and a call that passes
#: it bad(valid value), given a one-block poly:d=1 state st
_ARRAY_CALLS = {
    "QuadratureRule-nodes": (
        "nodes",
        lambda st, bad: QuadratureRule(bad(np.array([0.0, 0.5, 1.0])), [0.25] * 3),
    ),
    "QuadratureRule-weights": (
        "weights",
        lambda st, bad: QuadratureRule([0.0, 0.5, 1.0], bad(np.full(3, 0.25))),
    ),
    **{
        f"FsbpOperator-{name}": (
            name,
            lambda st, bad, name=name: replace(
                st.operator, **{name: bad(getattr(st.operator, name))}
            ),
        )
        for name in ("nodes", "p", "Q", "D")
    },
    "BlockState-u": (
        "u",
        lambda st, bad: BlockState(
            u=bad(st.u), operator=st.operator, edges=st.edges, t=0.0
        ),
    ),
    "BlockState-edges": (
        "edges",
        lambda st, bad: BlockState(
            u=st.u, operator=st.operator, edges=bad(st.edges), t=0.0
        ),
    ),
    "run-initial_condition": (
        "initial condition values",
        lambda st, bad: run(
            ProblemSpec(
                kind="advection",
                domain=UNIT,
                initial_condition=lambda x: bad(np.sin(x)),
            ),
            "trig:d=1",
        ),
    ),
    "rbf_cubic_space-centers": (
        "radial centers",
        lambda st, bad: rbf_cubic_space(bad(np.array([0.0, 0.5, 1.0])), UNIT),
    ),
    "vandermonde-grid": (
        "grid",
        lambda st, bad: vandermonde(st.operator.space, bad(np.array([0.0, 0.5]))),
    ),
    "vandermonde_derivative-grid": (
        "grid",
        lambda st, bad: vandermonde_derivative(
            st.operator.space, bad(np.array([0.0, 0.5]))
        ),
    ),
    "Interval.contains-x": ("x", lambda st, bad: UNIT.contains(bad(np.zeros(2)))),
    "FunctionSpace-values": (
        "space 'user': values",
        lambda st, bad: _user_space(
            lambda x: bad(np.ones((len(x), 1))), lambda x: np.zeros((len(x), 1))
        ),
    ),
    "FunctionSpace-derivatives": (
        "space 'user': derivatives",
        lambda st, bad: _user_space(
            lambda x: np.ones((len(x), 1)), lambda x: bad(np.zeros((len(x), 1)))
        ),
    ),
    "burgers_reference-x": (
        "x",
        lambda st, bad: burgers_reference(_bumpy, bad(np.array([0.25, 0.5])), 0.01),
    ),
    "error_report-reference": (
        "reference values",
        lambda st, bad: error_report(st, lambda x: bad(np.zeros_like(x))),
    ),
    "reference_solution-t0-u0": (
        "initial condition values",
        lambda st, bad: _spoiled_reference(bad, 0.0, [0.25, 0.5]),
    ),
    "reference_solution-periodic-u0": (
        "initial condition values",
        lambda st, bad: _spoiled_reference(bad, 0.25, [0.25, 0.5]),
    ),
    "reference_solution-inflow-u0": (
        "initial condition values",
        lambda st, bad: _spoiled_reference(
            bad, 0.25, [0.5, 0.75], inflow=lambda t: 1.0
        ),
    ),
    "reference_solution-burgers-u0": (
        "initial condition values",
        lambda st, bad: _spoiled_reference(bad, 0.01, [0.25, 0.5], kind="burgers"),
    ),
    "burgers_reference-t0-u0": (
        "u0 values",
        lambda st, bad: burgers_reference(
            lambda x: bad(_bumpy(x)), np.array([0.25, 0.5]), 0.0
        ),
    ),
    "burgers_reference-u0": (
        "u0 values",
        lambda st, bad: _burgers_last_call_spoiled(bad, np.array([0.25, 0.5]), 0.01),
    ),
    # every call spoiled, so the first one, which sizes the brackets, fails
    "burgers_reference-bracket-u0": (
        "u0 values",
        lambda st, bad: burgers_reference(
            lambda x: bad(_bumpy(x)), np.array([0.25, 0.5]), 0.01
        ),
    ),
    # the points a closure of reference_solution is given
    **{
        f"reference_solution-{closure}-x": (
            "x",
            lambda st, bad, t=t, spec=spec: reference_solution(
                ProblemSpec("advection", UNIT, np.sin, **spec), t
            )(bad(np.array([0.1, 0.9]))),
        )
        for closure, t, spec in [
            ("t0", 0.0, {}),
            ("periodic", 0.25, {}),
            ("inflow", 0.25, {"inflow": lambda t: 1.0}),
        ]
    },
}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{call}-{value}")
        for call in _ARRAY_CALLS
        for value in _NOT_REALS
    ],
)
def test_array_arguments_refuse_values_by_name(call, value):
    state = _state_with("poly:d=1", [1.0, 1.0])
    name, fn = _ARRAY_CALLS[call]
    bad, got = _NOT_REALS[value]
    with pytest.raises(ValueError) as exc:
        fn(state, bad)
    assert str(exc.value) == f"{name} must hold real numbers, got {got}"


def test_burgers_reference_refuses_text_values_in_its_bracket():
    # the first call of u0 sizes each point's bracket before any guard
    text_u0 = lambda x: np.full(np.shape(x), "0.5")
    with pytest.raises(ValueError) as exc:
        burgers_reference(text_u0, np.array([0.1]), 0.01)
    assert str(exc.value) == "u0 values must hold real numbers, got text"


@pytest.mark.parametrize("key", ["nodes", "weights", "Q", "D"])
@pytest.mark.parametrize(
    # JSON has no complex numbers
    "value",
    [value for value in _NOT_REALS if value != "complex"],
)
def test_operator_file_arrays_refuse_values_by_name(tmp_path, key, value):
    state = _state_with("poly:d=1", [1.0, 1.0])
    path = tmp_path / "op.json"
    write_operator(state.operator, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    bad, got = _NOT_REALS[value]
    spoiled = bad(np.array(data[key]))
    data[key] = spoiled.tolist() if isinstance(spoiled, np.ndarray) else spoiled
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_operator(path)
    assert str(exc.value) == (
        f"operator file {path}: {key} must hold real numbers, got {got}"
    )


@pytest.mark.parametrize("key", ["nodes", "weights", "Q", "D"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_operator_file_names_the_array_that_is_not_finite(tmp_path, key, value):
    state = _state_with("poly:d=1", [1.0, 1.0])
    path = tmp_path / "op.json"
    write_operator(state.operator, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data[key] = _first_leaf_set(np.array(data[key]), value)
    # written as NaN, Infinity or -Infinity, which json reads back
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_operator(path)
    # the nodes are the operator's to judge, as a grid
    reason = "must hold finite numbers"
    if key == "nodes":
        reason = f"must be finite, got {value}"
    assert str(exc.value) == f"operator file {path}: {key} {reason}"


#: each way an inflow can return no finite real number: the value, and the
#: refusal's text after "inflow values " in run and in the inflow reference,
#: which samples the inflow at t = 0.5 - 0.1 and 0.5 - 0.2
_BAD_INFLOWS = {
    "text": ("0.5", "must hold real numbers, got text", None),
    "bool": (True, "must hold real numbers, got booleans", None),
    "none": (None, "must hold real numbers, got None or objects", None),
    "complex": (0.5 + 1j, "must hold real numbers, got complex values", None),
    "2-vector": (
        np.array([0.5, 0.5]),
        "gave shape (65, 2), expected (65,)",
        "gave shape (2, 2), expected (2,)",
    ),
    "nan": (math.nan, "are not finite near t=0", "are not finite near t=0.4"),
}


@pytest.mark.parametrize("where", ["run", "reference"])
@pytest.mark.parametrize("inflow", list(_BAD_INFLOWS))
def test_inflow_values_are_refused_by_name(where, inflow):
    value, in_run, in_reference = _BAD_INFLOWS[inflow]
    spec = _sine_advection(inflow=lambda t: value)
    with pytest.raises(ValueError) as exc:
        if where == "run":
            run(spec, "trig:d=1", t_final=0.5)
        else:
            reference_solution(spec, 0.5)(np.array([0.1, 0.2]))
    text = in_run if where == "run" or in_reference is None else in_reference
    assert str(exc.value) == f"inflow values {text}"


def test_reference_refuses_an_initial_condition_that_returns_a_scalar():
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=lambda x: 0.5)
    message = r"^initial condition values gave shape \(\), expected \(2,\)$"
    with pytest.raises(ValueError, match=message):
        reference_solution(spec, 0.25)(np.array([0.25, 0.5]))


def test_error_report_refuses_a_reference_of_the_wrong_size():
    state = _state_with("poly:d=1", [1.0, 1.0])
    size = state.total_nodes
    with pytest.raises(ValueError) as exc:
        error_report(state, lambda x: np.zeros(size + 1))
    assert str(exc.value) == f"reference values gave {size + 1} for {size} nodes"


def test_mass_and_energy_hand_sums():
    state = _state_with("poly:d=1", [2.0, 3.0])
    assert mass(state) == pytest.approx(2.5)
    assert energy(state) == pytest.approx(6.5)


@pytest.mark.parametrize(
    "space, n_blocks", [("trig:d=4", 64), ("poly:d=16", 1), ("poly:d=16", 7)]
)
def test_mass_and_energy_round_like_the_matrix_products(space, n_blocks):
    op = find_operator(make_space(space, UNIT))
    rng = np.random.default_rng(n_blocks)
    edges = np.cumsum(rng.uniform(0.5, 1.5, n_blocks + 1))
    u = rng.standard_normal((n_blocks, op.n_nodes))
    state = BlockState(u=u, operator=op, edges=edges, t=0.0)
    assert mass(state) == float(state.s @ (u @ op.p))
    assert energy(state) == float(state.s @ ((u * u) @ op.p))


def test_mass_of_constant_equals_interval_width():
    op = find_operator(make_space("exp:d=2", UNIT))
    u = np.ones((1, op.n_nodes))
    state = BlockState(u=u, operator=op, edges=(0.0, 1.0), t=0.0)
    assert mass(state) == pytest.approx(1.0, abs=1e-12)
    assert energy(state) == pytest.approx(1.0, abs=1e-12)


def test_exact_advection_transport():
    u0 = lambda x: np.sin(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=u0)
    x = np.linspace(0.0, 1.0, 33)
    # a full period returns the initial data
    np.testing.assert_allclose(reference_solution(spec, 1.0)(x), u0(x), atol=1e-12)
    np.testing.assert_allclose(reference_solution(spec, 0.0)(x), u0(x), atol=1e-12)
    # a quarter period shifts the profile right
    got = reference_solution(spec, 0.25)(x)
    np.testing.assert_allclose(got, u0(x - 0.25), atol=1e-12)


def _np_mod_wrap(x, domain):
    """The periodic wrap as numpy's remainder computes it."""
    return domain.left + np.mod(x - domain.left, domain.width)


@pytest.mark.parametrize(
    "left, right, rounds_up",
    # on [0.3, 0.7] a difference x - 0.3 near a multiple of the width is
    # a multiple of ulp(0.3) = ulp(0.4), so m + width never rounds up
    [(0.0, 1.0, True), (0.0, np.pi, True), (-1.0, 2.5, True), (0.3, 0.7, False)],
)
def test_wrap_matches_np_mod_bit_for_bit(left, right, rounds_up):
    dom = Interval(left, right)
    w = dom.width
    k = np.arange(-3.0, 4.0)
    below = np.nextafter(k * w, -np.inf)
    x = np.concatenate(
        [
            [0.0, -0.0, -1e-300, 1e-300, 1e6, -1e6, 1e6 + 0.1, -1234567.89],
            [np.nan, left, right],
            k * w,  # exact multiples of the width
            left + k * w,
            below,  # just below a multiple
            left + below,
            np.nextafter(left + k * w, -np.inf),
            np.random.default_rng(7).uniform(-5.0 * w, 5.0 * w, 200),
        ]
    )
    oracle = _np_mod_wrap(x, dom)
    # some remainder m < 0 is so small that m + width rounds up to the width
    assert np.any(np.mod(x - left, w) == w) == rounds_up
    assert np.array_equal(_wrap(x, dom).view(np.int64), oracle.view(np.int64))
    with np.errstate(invalid="ignore"):
        inf = np.array([np.inf, -np.inf])
        assert np.array_equal(
            _wrap(inf, dom).view(np.int64), _np_mod_wrap(inf, dom).view(np.int64)
        )


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
    with pytest.raises(ValueError, match="could not bracket the characteristic foot"):
        burgers_reference(steep, 0.5, 0.5)


def _trace_burgers_point(u0, x: float, t: float) -> float:
    """The former per-point solver, kept as the reference for the
    array-wide ``burgers_reference``."""
    if t == 0.0:
        return float(u0(x))

    def char(xi):
        return xi + t * float(u0(xi)) - x

    r = max(1.0, abs(t) * (1.0 + abs(float(u0(x)))))
    lo, hi = x - r, x + r
    for _ in range(60):
        if char(lo) <= 0.0 <= char(hi):
            break
        r *= 2.0
        lo, hi = x - r, x + r
    else:
        raise ValueError("could not bracket the characteristic foot")

    xs = np.linspace(lo, hi, 64)
    h = 1e-6 * max(1.0, hi - lo)
    slopes = (np.asarray(u0(xs + h)) - np.asarray(u0(xs - h))) / (2.0 * h)
    if t * float(np.max(np.abs(slopes))) >= 1.0:
        raise ValueError(
            f"characteristics cross before t={t:.6g}; no smooth reference exists"
        )

    xi = x
    f = char(xi)
    for _ in range(200):
        if abs(f) <= 1e-12:
            return float(u0(xi))
        fp = (char(xi + h) - char(xi - h)) / (2.0 * h)
        step_ok = fp != 0.0
        if step_ok:
            cand = xi - f / fp
            step_ok = lo < cand < hi
        if not step_ok:
            cand = 0.5 * (lo + hi)
        fc = char(cand)
        if char(lo) * fc <= 0.0:
            hi = cand
        else:
            lo = cand
        xi, f = cand, fc
    raise ValueError("characteristic solve did not reach the residual target")


def _bumpy_periodic(xi):
    xi = np.asarray(xi, dtype=float)
    return _bumpy(UNIT.left + np.mod(xi - UNIT.left, UNIT.width))


def _smooth(x):
    return 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(x, dtype=float))


def _block_nodes(space_text: str, blocks: int) -> np.ndarray:
    op = find_operator(make_space(space_text, UNIT))
    state = BlockState(
        u=np.zeros((blocks, op.n_nodes)),
        operator=op,
        edges=np.linspace(0.0, 1.0, blocks + 1),
        t=0.0,
    )
    return state.nodes.ravel()


_RNG_POINTS = np.random.default_rng(20261018).uniform(-1.0, 2.0, 500)


@pytest.mark.parametrize(
    "u0, x, t",
    [
        (_bumpy_periodic, np.linspace(0.0, 1.0, 257), 0.01),
        (_bumpy_periodic, np.linspace(0.0, 1.0, 257), 0.05),
        *[
            (_bumpy_periodic, _block_nodes(space, blocks), 0.01)
            for space in ("exp:d=2", "poly:d=2")
            for blocks in (10, 40, 160)
        ],
        (_bumpy_periodic, _RNG_POINTS, 0.03),
        (_smooth, _RNG_POINTS, 0.05),
    ],
)
def test_burgers_reference_matches_the_per_point_solver(u0, x, t):
    expected = np.array([_trace_burgers_point(u0, float(v), t) for v in x])
    got = burgers_reference(u0, x, t)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("t", [0.0, 0.05])
def test_burgers_reference_empty_input(t):
    got = burgers_reference(_smooth, np.array([]), t)
    assert isinstance(got, np.ndarray)
    assert got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize("t", [0.0, 0.05])
def test_burgers_reference_scalar_in_float_out(t):
    got = burgers_reference(_smooth, 0.3, t)
    assert type(got) is float
    assert got == pytest.approx(_trace_burgers_point(_smooth, 0.3, t), abs=1e-13)


def test_burgers_reference_at_time_zero_is_the_initial_data():
    x = np.linspace(-0.5, 1.5, 41)
    np.testing.assert_array_equal(burgers_reference(_smooth, x, 0.0), _smooth(x))


def test_burgers_reference_solves_each_distinct_point_once():
    seen = []

    def counted(x):
        seen.append(np.size(x))
        return _smooth(x)

    x = np.linspace(0.0, 1.0, 17)
    r = burgers_reference(counted, x, 0.05)
    single = sum(seen)
    got = burgers_reference(counted, np.concatenate([x, x[::-1]]), 0.05)
    assert np.array_equal(got, np.concatenate([r, r[::-1]]))
    seen.clear()
    got = burgers_reference(counted, np.repeat(x, 3), 0.05)
    assert sum(seen) == single
    assert np.array_equal(got, np.repeat(r, 3))
    # values come back in the shape of the input
    assert np.array_equal(burgers_reference(_smooth, x[1:].reshape(4, 4), 0.05),
                          r[1:].reshape(4, 4))


def test_burgers_reference_crossing_message():
    # slope pi at t = 0.5: characteristics cross, but every foot brackets
    with pytest.raises(ValueError, match="characteristics cross before t=0.5"):
        burgers_reference(_smooth, np.linspace(0.0, 1.0, 5), 0.5)
    with pytest.raises(ValueError, match="characteristics cross"):
        _trace_burgers_point(_smooth, 0.5, 0.5)


def test_burgers_reference_guards_a_negative_time():
    # |t| max|u0'| = 0.5 * pi > 1: traced backwards, the characteristics
    # cross too, and the guard must not take the sign of t as a pass
    with pytest.raises(ValueError, match="characteristics cross before t=-0.5"):
        burgers_reference(_smooth, np.linspace(0.0, 1.0, 9), -0.5)
    # below the threshold a negative time still solves
    x = np.linspace(0.0, 1.0, 9)
    u = burgers_reference(_smooth, x, -0.05)
    assert np.max(np.abs(_smooth(x + 0.05 * u) - u)) <= 1e-10


def test_burgers_reference_bracket_failure_message():
    # -10 x at t = 0.5 makes xi + t u0(xi) - x decreasing: no sign change
    steep = lambda x: -10.0 * np.asarray(x, dtype=float)
    with pytest.raises(ValueError, match="could not bracket"):
        burgers_reference(steep, np.array([0.5, 0.7]), 0.5)
    with pytest.raises(ValueError, match="could not bracket"):
        _trace_burgers_point(steep, 0.5, 0.5)


def test_burgers_reference_one_failing_point_fails_the_array():
    # defined only left of x = 5: the foot of x = 20 cannot be bracketed
    partial = lambda x: np.where(np.asarray(x) < 5.0, _smooth(x), np.nan)
    with pytest.raises(ValueError, match="could not bracket"):
        burgers_reference(partial, np.array([0.1, 0.5, 20.0, 0.9]), 0.05)
    # a front at x = 20.5, where u0' is -pi - 5, lies only in the bracket
    # of x = 20.5; elsewhere t |u0'| <= 0.25 pi
    front = lambda x: _smooth(x) + 0.5 * np.tanh(-10.0 * (np.asarray(x) - 20.5))
    x = np.array([0.1, 0.5, 20.5, 0.9])
    with pytest.raises(ValueError, match="characteristics cross"):
        burgers_reference(front, x, 0.25)
    # without the failing point the same data solves
    np.testing.assert_allclose(
        burgers_reference(front, x[[0, 1, 3]], 0.25),
        [_trace_burgers_point(front, v, 0.25) for v in x[[0, 1, 3]]],
        rtol=0.0,
        atol=1e-13,
    )


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
        kind="advection",
        domain=dom,
        initial_condition=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        inflow=lambda t: 1.0,
        source_coefficient=2.0,
    )
    ref = reference_solution(spec, 3.5)
    x = np.linspace(0.0, np.pi, 9)
    np.testing.assert_allclose(ref(x), np.exp(2.0 * x), rtol=1e-12)


def test_reference_solution_missing_for_burgers_inflow():
    spec = ProblemSpec(
        kind="burgers",
        domain=UNIT,
        initial_condition=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        inflow=lambda t: 1.0,
    )
    assert reference_solution(spec, 0.1) is None


def _former_exact_advection(u0, a, t, x, domain):
    """The periodic advection reference as a public function of its own,
    before ``reference_solution`` chose its closure once per call."""
    xi = _wrap(np.asarray(x, dtype=float) - a * t, domain)
    return np.asarray(u0(xi), dtype=float)


def _former_reference_solution(spec, t):
    """``reference_solution`` as it re-tested the inflow and recomputed
    ``exp(c t)`` on every evaluation; the oracle of the bit-identity test."""
    u0 = spec.initial_condition
    dom = spec.domain
    if spec.kind == "advection":
        a = spec.wave_speed
        c = spec.source_coefficient

        def ref(x):
            if spec.inflow is None:
                return np.exp(c * t) * _former_exact_advection(u0, a, t, x, dom)
            x = np.asarray(x, dtype=float)
            xi = x - a * t
            inside = xi >= dom.left
            vals = np.empty_like(x)
            if np.any(inside):
                vals[inside] = np.exp(c * t) * np.asarray(
                    u0(xi[inside]), dtype=float
                )
            if np.any(~inside):
                entry_delay = (x[~inside] - dom.left) / a
                g = np.array([float(spec.inflow(t - d)) for d in entry_delay])
                vals[~inside] = np.exp(c * entry_delay) * g
            return vals

        return ref

    if spec.inflow is None:

        def u0_periodic(xi):
            return u0(_wrap(np.asarray(xi, dtype=float), dom))

        return lambda x: burgers_reference(u0_periodic, x, t)

    return None


def _wavy(x):
    return 1.0 + 0.5 * np.cos(2 * np.pi * np.asarray(x)) + 0.25 * np.sin(7.0 * x)


_REFERENCE_CASES = {
    # (kind, domain, wave speed, source, inflow, t > 0)
    **{
        f"advection-c{c:g}-a{a:g}-[{left:g},{right:.3g}]": (
            "advection", (left, right), a, c, None, 0.37
        )
        for c, a in ((0.0, 1.0), (2.0, 1.0), (0.0, 1.3))
        for left, right in ((0.0, 1.0), (-0.5, 0.5), (0.0, np.pi))
    },
    "advection-inflow-source": (
        "advection", (0.0, 1.0), 1.3, 2.0, lambda t: 1.0 + 0.3 * np.sin(5.0 * t), 0.5
    ),
    "burgers-[0.25,1.25]": ("burgers", (0.25, 1.25), 1.0, 0.0, None, 0.01),
}


@pytest.mark.parametrize("at_zero", [True, False], ids=["t0", "t"])
@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_reference_solution_is_bit_identical_to_the_former_closures(case, at_zero):
    kind, (left, right), a, c, inflow, t = _REFERENCE_CASES[case]
    spec = ProblemSpec(
        kind=kind,
        domain=Interval(left, right),
        initial_condition=_bumpy if kind == "burgers" else _wavy,
        inflow=inflow,
        wave_speed=a,
        source_coefficient=c,
    )
    t = 0.0 if at_zero else t
    rng = np.random.default_rng(34)
    x = np.concatenate(
        (np.linspace(left, right, 41), rng.uniform(left, right, 64))
    )
    got = reference_solution(spec, t)(x)
    if at_zero and inflow is None:
        # the former closures wrapped x = right onto the left end at t = 0
        want = np.asarray(spec.initial_condition(x), dtype=float)
    else:
        want = _former_reference_solution(spec, t)(x)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "domain, t",
    [((0.0, 1.0), 0.01), ((0.25, 1.25), 0.01), ((0.0, 0.5), 0.01), ((0.0, 0.3), 0.0)],
)
def test_periodic_burgers_reference_accepts_data_periodic_on_its_domain(domain, t):
    spec = ProblemSpec(kind="burgers", domain=Interval(*domain), initial_condition=_bumpy)
    x = np.linspace(*domain, 9)
    assert np.isfinite(reference_solution(spec, t)(x)).all()


def test_periodic_burgers_reference_refuses_data_that_is_not_periodic():
    # _bumpy has period 1/2, so it jumps where [0, 0.3] wraps
    spec = ProblemSpec(
        kind="burgers", domain=Interval(0.0, 0.3), initial_condition=_bumpy
    )
    want = (
        "periodic Burgers data must take one value at both ends of [0, 0.3], "
        "got u0=1.25 and u0=0.811821; the jump where the domain wraps is a "
        "shock from t=0, so no smooth reference exists"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        reference_solution(spec, 0.05)
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        reference_solution(spec, -0.05)


def test_periodic_burgers_reference_tolerates_a_rounding_gap_at_the_ends():
    # ends 1e-9 apart on values of order 10 lie within 1e-8 max(1, |u0|)
    u0 = lambda x: 10.0 + 1e-9 * np.asarray(x) + 0.1 * np.sin(2 * np.pi * x)
    spec = ProblemSpec(kind="burgers", domain=UNIT, initial_condition=u0)
    assert reference_solution(spec, 0.01) is not None
    gap = lambda x: 10.0 + 1e-6 * np.asarray(x) + 0.1 * np.sin(2 * np.pi * x)
    spec = ProblemSpec(kind="burgers", domain=UNIT, initial_condition=gap)
    with pytest.raises(ValueError, match="one value at both ends"):
        reference_solution(spec, 0.01)


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


def test_convergence_table_labels_a_prebuilt_space_by_its_kind():
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    rows = convergence_table(
        spec, ["poly:d=1", make_space("poly:d=2", UNIT)], [2, 4], t_final=0.1, cfl=0.4
    )
    assert [r.space for r in rows] == ["poly:d=1", "poly:d=1", "poly:d=2", "poly:d=2"]
    expected = convergence_table(
        spec, ["poly:d=1", "poly:d=2"], [2, 4], t_final=0.1, cfl=0.4
    )
    _assert_rows_equal(rows, expected)


def _per_level_rows(spec, spaces, counts, t_final, n_nodes=None):
    """Rows built level by level, each level against its own reference
    call, and the final nodes of every level in study order."""
    ref = reference_solution(spec, t_final)
    rows, nodes = [], []
    for space in spaces:
        prev = None
        for blocks in counts:
            state = run(
                spec, space, n_nodes=n_nodes, n_blocks=blocks, t_final=t_final
            ).state
            nodes.append(state.nodes.ravel())
            err = error_report(state, ref)
            order = (
                math.nan
                if prev is None
                else math.log(prev.err_p / err.err_p) / math.log(blocks / prev.blocks)
            )
            prev = ConvergenceRow(
                space, blocks, err.err_p, err.err_2, err.err_max, order
            )
            rows.append(prev)
    return rows, nodes


def _assert_rows_equal(got, expected):
    assert [(r.space, r.blocks) for r in got] == [
        (r.space, r.blocks) for r in expected
    ]
    np.testing.assert_array_equal(
        [[r.err_p, r.err_2, r.err_max, r.order] for r in got],
        [[r.err_p, r.err_2, r.err_max, r.order] for r in expected],
    )


def test_convergence_table_evaluates_the_burgers_reference_once(monkeypatch):
    spec = ProblemSpec(kind="burgers", domain=UNIT, initial_condition=_bumpy)
    spaces, counts, t_final = ["exp:d=2", "poly:d=2"], [4, 8, 16], 0.01
    expected, nodes = _per_level_rows(spec, spaces, counts, t_final)
    calls = []
    solve = sbpkit.diagnostics.burgers_reference

    def counting(u0, x, t):
        calls.append(np.array(x, copy=True))
        return solve(u0, x, t)

    monkeypatch.setattr(sbpkit.diagnostics, "burgers_reference", counting)
    rows = convergence_table(spec, spaces, counts, t_final=t_final)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.concatenate(nodes))
    _assert_rows_equal(rows, expected)


def test_convergence_table_matches_per_level_reports_with_inflow():
    # the inflow reference takes each boundary-entered point in a loop; a
    # space listed twice restarts its order chain
    spec = ProblemSpec(
        kind="advection",
        domain=Interval(0.0, np.pi),
        initial_condition=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        inflow=lambda t: 1.0,
        source_coefficient=2.0,
    )
    spaces, counts, t_final = ["poly:d=2", "exp:d=2", "poly:d=2"], [2, 4], 1.0
    expected, _ = _per_level_rows(spec, spaces, counts, t_final)
    rows = convergence_table(spec, spaces, counts, t_final=t_final)
    _assert_rows_equal(rows, expected)
    assert math.isnan(rows[4].order)


@pytest.mark.parametrize(
    "counts, message",
    [
        ([10, 10], "block count 10 appears more than once"),
        ([4, 8, 4], "block count 4 appears more than once"),
        ([0, 2], "need at least one block, got 0"),
        ([2, 2.5], "block count must be a whole number, got 2.5"),
        ([True, 2], "block count must be a whole number, got True"),
        ([2, np.True_], "block count must be a whole number, got True"),
    ],
)
def test_convergence_table_rejects_a_bad_ladder_before_running(
    monkeypatch, counts, message
):
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)

    def forbidden(*args, **kwargs):
        raise AssertionError("run() called for an invalid ladder")

    monkeypatch.setattr(sbpkit.solver, "run", forbidden)
    with pytest.raises(ValueError, match=message):
        convergence_table(spec, ["poly:d=2"], counts, t_final=0.1)


def test_convergence_table_accepts_a_decreasing_ladder():
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    up = convergence_table(spec, ["poly:d=2"], [2, 4], t_final=0.25, cfl=0.4)
    down = convergence_table(spec, ["poly:d=2"], [4, 2], t_final=0.25, cfl=0.4)
    assert [r.err_p for r in down] == [r.err_p for r in up[::-1]]
    assert down[1].order == pytest.approx(up[1].order, rel=1e-12)


def test_convergence_table_builds_each_space_once(monkeypatch):
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    spaces, counts, t_final = ["exp:d=2", "poly:d=2"], [2, 4, 8], 0.1
    expected, _ = _per_level_rows(spec, spaces, counts, t_final)
    made, searched = [], []
    build, search = sbpkit.solver.make_space, sbpkit.solver.find_operator

    def counting_build(text, interval):
        made.append(text)
        return build(text, interval)

    def counting_search(space, n_nodes=None):
        searched.append(space.kind)
        return search(space, n_nodes)

    monkeypatch.setattr(sbpkit.solver, "make_space", counting_build)
    monkeypatch.setattr(sbpkit.solver, "find_operator", counting_search)
    rows = convergence_table(spec, spaces, counts, t_final=t_final)
    assert made == spaces
    assert searched == [s for s in spaces for _ in counts]
    _assert_rows_equal(rows, expected)


def test_convergence_table_rejects_a_bad_space_before_running(monkeypatch):
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)

    def forbidden(*args, **kwargs):
        raise AssertionError("run() called before every space was built")

    monkeypatch.setattr(sbpkit.solver, "run", forbidden)
    with pytest.raises(ValueError, match="unknown space kind 'spline'"):
        convergence_table(spec, ["poly:d=2", "spline:d=2"], [2, 4], t_final=0.1)


def test_convergence_table_without_spaces_is_empty():
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    spec = ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)
    assert convergence_table(spec, [], [1, 2]) == []


def _count_builds(monkeypatch):
    """Record every build_operator call that find_operator makes."""
    built = []
    build = sbpkit.operators.build_operator

    def counting(space, rule):
        built.append(space.kind)
        return build(space, rule)

    monkeypatch.setattr(sbpkit.operators, "build_operator", counting)
    return built


def _count_searches(monkeypatch):
    """Record the operator of every find_operator call that run makes."""
    found = []
    search = sbpkit.solver.find_operator

    def counting(space, n_nodes=None):
        found.append(search(space, n_nodes))
        return found[-1]

    monkeypatch.setattr(sbpkit.solver, "find_operator", counting)
    return found


def _advection():
    ic = lambda x: np.cos(2 * np.pi * np.asarray(x))
    return ProblemSpec(kind="advection", domain=UNIT, initial_condition=ic)


def test_convergence_table_searches_each_entry_once(monkeypatch):
    # every level still calls find_operator through run, but only an
    # entry's first level walks the ladder; the others share its operator
    spec, spaces, counts = _advection(), ["exp:d=2", "poly:d=2"], [2, 4, 8]
    expected, _ = _per_level_rows(spec, spaces, counts, 0.1)
    built, found = _count_builds(monkeypatch), _count_searches(monkeypatch)
    rows = convergence_table(spec, spaces, counts, t_final=0.1)
    assert built == spaces
    assert len(found) == 6
    assert found[0] is found[1] is found[2]
    assert found[3] is found[4] is found[5]
    assert found[0] is not found[3]
    _assert_rows_equal(rows, expected)


def test_convergence_table_with_a_pinned_node_count_matches_per_level_runs():
    spec, spaces, counts = _advection(), ["exp:d=2", "poly:d=2"], [2, 4, 8]
    expected, nodes = _per_level_rows(spec, spaces, counts, 0.1, n_nodes=6)
    rows = convergence_table(spec, spaces, counts, n_nodes=6, t_final=0.1)
    assert {x.size for x in nodes} == {12, 24, 48}
    _assert_rows_equal(rows, expected)


def test_study_memo_keys_the_pin_as_given():
    space = make_space("poly:d=2", UNIT)
    with sbpkit.operators._study_scope():
        free, pinned = find_operator(space), find_operator(space, 6)
        assert (free.n_nodes, pinned.n_nodes) == (3, 6)
        assert find_operator(space) is free
        assert find_operator(space, 6) is pinned


def test_study_memo_does_not_outlive_the_study(monkeypatch):
    spec, space = _advection(), make_space("poly:d=2", UNIT)
    built = _count_builds(monkeypatch)
    convergence_table(spec, [space], [2, 4, 8], t_final=0.1)
    assert len(built) == 1
    find_operator(space)
    assert len(built) == 2


def test_study_memo_is_dropped_when_a_run_raises(monkeypatch):
    spec, space = _advection(), make_space("poly:d=2", UNIT)
    built = _count_builds(monkeypatch)
    runs = []
    real_run = sbpkit.solver.run

    def failing_second(*args, **kwargs):
        runs.append(kwargs["n_blocks"])
        if len(runs) == 2:
            raise RuntimeError("second level fails")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(sbpkit.solver, "run", failing_second)
    with pytest.raises(RuntimeError, match="second level fails"):
        convergence_table(spec, [space], [2, 4, 8], t_final=0.1)
    assert runs == [2, 4]
    assert len(built) == 1
    find_operator(space)
    assert len(built) == 2


def test_a_space_text_given_twice_is_two_spaces_and_two_searches(monkeypatch):
    # the memo is keyed by the space object, not by its text
    spec, spaces, counts = _advection(), ["poly:d=2", "poly:d=2"], [2, 4]
    made = []
    make = sbpkit.solver.make_space

    def counting_make(text, interval):
        made.append(make(text, interval))
        return made[-1]

    monkeypatch.setattr(sbpkit.solver, "make_space", counting_make)
    built, found = _count_builds(monkeypatch), _count_searches(monkeypatch)
    rows = convergence_table(spec, spaces, counts, t_final=0.1)
    assert len(made) == 2 and made[0] is not made[1]
    assert built == spaces
    assert [op.space for op in found] == [made[0], made[0], made[1], made[1]]
    assert found[1] is found[0] and found[2] is not found[0]
    assert [r.err_p for r in rows[:2]] == [r.err_p for r in rows[2:]]


def _reuse_records(caplog):
    return [
        r
        for r in caplog.records
        if r.name == "sbpkit.operators" and r.msg.startswith("reusing")
    ]


def test_each_reused_level_logs_one_debug_record(caplog):
    spec, spaces, counts = _advection(), ["exp:d=2", "poly:d=2"], [2, 4, 8]
    caplog.set_level(logging.DEBUG, logger="sbpkit.operators")
    convergence_table(spec, spaces, counts, t_final=0.1)
    records = _reuse_records(caplog)
    assert len(records) == 4
    assert all(r.levelno == logging.DEBUG and r.args for r in records)
    assert [r.getMessage() for r in records[::2]] == [
        "reusing the 5-node operator this study found for exp:d=2; "
        "its rejected rungs were logged by that search",
        "reusing the 3-node operator this study found for poly:d=2; "
        "its rejected rungs were logged by that search",
    ]


def test_the_study_memo_is_silent_by_default(caplog):
    convergence_table(_advection(), ["exp:d=2", "poly:d=2"], [2, 4, 8], t_final=0.1)
    assert [r for r in caplog.records if r.name.startswith("sbpkit")] == []
