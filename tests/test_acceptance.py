"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines on passing runs as well.  Each criterion folds its runtime
budget into the verdict.
"""

from __future__ import annotations

import time

import numpy as np

from sbpkit.diagnostics import error_report, reference_solution
from sbpkit.operators import (
    OperatorError,
    build_operator,
    find_operator,
    verify_sbp,
)
from sbpkit.quadrature import QuadratureError, trapezoid_rule
from sbpkit.solver import (
    BlockState,
    Interval,
    ProblemSpec,
    run,
    ssprk33_step,
)
from sbpkit.spaces import (
    exponential_space,
    make_space,
    polynomial_space,
    rbf_cubic_space,
    trigonometric_space,
    vandermonde,
    vandermonde_derivative,
)

UNIT = Interval(0.0, 1.0)

TRIG1_Q = np.array(
    [
        [-0.50, 0.60, -0.60, 0.50],
        [-0.60, 0.00, 1.21, -0.60],
        [0.60, -1.21, 0.00, 0.60],
        [-0.50, 0.60, -0.60, 0.50],
    ]
)
TRIG1_D = np.array(
    [
        [-3.00, 3.63, -3.63, 3.00],
        [-1.81, 0.00, 3.63, -1.81],
        [1.81, -3.63, 0.00, 1.81],
        [-3.00, 3.63, -3.63, 3.00],
    ]
)
EXP2_Q = np.array(
    [
        [-0.50, 0.65, -0.04, -0.19, 0.07],
        [-0.65, 0.00, 0.32, 0.52, -0.19],
        [0.04, -0.32, 0.00, 0.32, -0.04],
        [0.19, -0.52, -0.32, 0.00, 0.65],
        [-0.07, 0.19, 0.04, -0.65, 0.50],
    ]
)
EXP2_D = np.array(
    [
        [-6.58, 8.59, -0.46, -2.54, 0.98],
        [-1.80, 0.00, 0.88, 1.45, -0.53],
        [0.28, -2.57, 0.00, 2.58, -0.29],
        [0.53, -1.45, -0.89, 0.00, 1.81],
        [-0.98, 2.49, 0.48, -8.52, 6.53],
    ]
)
RBF_Q = np.array(
    [
        [-0.50, 0.59, -0.15, 0.06],
        [-0.59, 0.00, 0.74, -0.15],
        [0.15, -0.74, 0.00, 0.59],
        [-0.06, 0.15, -0.59, 0.50],
    ]
)
RBF_D = np.array(
    [
        [-4.03, 4.73, -1.21, 0.51],
        [-1.56, 0.00, 1.96, -0.40],
        [0.40, -1.96, 0.00, 1.56],
        [-0.51, 1.21, -4.73, 4.03],
    ]
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]", flush=True)
    assert ok, f"{name}: {detail}"


def _oscillatory(x):
    x = np.asarray(x, dtype=float)
    return np.cos(4.0 * np.pi * x) + 0.5 * np.sin(40.0 * np.pi * x)


def _bumpy(x):
    x = np.asarray(x, dtype=float)
    return (
        1.0
        + 0.5 * np.sin(4.0 * np.pi * x) ** 3
        + 0.25 * np.cos(4.0 * np.pi * x) ** 5
    )


def _pair_residual(op) -> float:
    """Largest compatibility defect of the norm against all basis pairs."""
    space = op.space
    F = vandermonde(space, op.nodes)
    Fx = vandermonde_derivative(space, op.nodes)
    G = Fx.T @ (op.p[:, None] * F) + F.T @ (op.p[:, None] * Fx)
    m = space.moments
    worst = 0.0
    idx = 0
    for k in range(space.dim):
        for l in range(k, space.dim):
            worst = max(worst, abs(G[k, l] - m[idx]))
            idx += 1
    return worst


def test_criterion_1_golden_matrices():
    start = time.perf_counter()
    worst = 0.0

    op = build_operator(trigonometric_space(1, UNIT), trapezoid_rule(4, UNIT))
    worst = max(worst, float(np.max(np.abs(op.Q - TRIG1_Q))))
    worst = max(worst, float(np.max(np.abs(op.D - TRIG1_D))))
    w_trig = float(np.max(np.abs(op.p - [1 / 6, 1 / 3, 1 / 3, 1 / 6])))

    op = find_operator(exponential_space(2, UNIT), 5)
    worst = max(worst, float(np.max(np.abs(op.Q - EXP2_Q))))
    worst = max(worst, float(np.max(np.abs(op.D - EXP2_D))))
    w_exp = float(np.max(np.abs(op.p - [0.08, 0.36, 0.12, 0.36, 0.08])))

    op = find_operator(rbf_cubic_space([0.0, 0.5, 1.0], UNIT), 4)
    worst = max(worst, float(np.max(np.abs(op.Q - RBF_Q))))
    worst = max(worst, float(np.max(np.abs(op.D - RBF_D))))
    w_rbf = float(
        np.max(np.abs(op.p - [16 / 129, 81 / 215, 81 / 215, 16 / 129]))
    )

    elapsed = time.perf_counter() - start
    ok = (
        worst <= 0.01
        and w_trig <= 5e-3
        and w_exp <= 5e-3
        and w_rbf <= 1e-6
        and elapsed < 1.0
    )
    _report(
        "criterion 1: golden operator matrices",
        ok,
        f"worst entry dev {worst:.2e}, weight devs {w_trig:.1e}/{w_exp:.1e}/"
        f"{w_rbf:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_axiom_suite():
    start = time.perf_counter()
    spaces = (
        [polynomial_space(d, UNIT) for d in range(6)]
        + [trigonometric_space(d, UNIT) for d in range(1, 6)]
        + [exponential_space(d, UNIT) for d in range(1, 6)]
        + [
            rbf_cubic_space(np.linspace(0.0, 1.0, m), UNIT)
            for m in (3, 5, 6)
        ]
    )
    worst_anti = worst_exact = worst_done = 0.0
    min_weight = np.inf
    checked = 0
    for space in spaces:
        small = find_operator(space)
        ops = [small]
        for n in (33, 64):
            ops.append(find_operator(space, n))
        for op in ops:
            rep = verify_sbp(op)
            worst_anti = max(worst_anti, rep.antisymmetry_residual)
            worst_exact = max(worst_exact, rep.exactness_residual)
            worst_done = max(worst_done, rep.d_one_residual)
            min_weight = min(min_weight, rep.min_weight)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = (
        worst_anti <= 1e-12
        and worst_exact <= 1e-8
        and min_weight > 0.0
        and worst_done <= 1e-10
        and elapsed < 30.0
    )
    _report(
        "criterion 2: axiom suite over all built-in spaces",
        ok,
        f"{checked} operators, antisym {worst_anti:.1e}, exact "
        f"{worst_exact:.1e}, D1 {worst_done:.1e}, min w {min_weight:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_compatibility_property():
    rng = np.random.default_rng(20240818)
    catalog = (
        [lambda d=d: polynomial_space(d, UNIT) for d in range(6)]
        + [lambda d=d: trigonometric_space(d, UNIT) for d in range(1, 5)]
        + [lambda d=d: exponential_space(d, UNIT) for d in range(1, 4)]
        + [
            lambda m=m: rbf_cubic_space(np.linspace(0.0, 1.0, m), UNIT)
            for m in (3, 4, 5)
        ]
    )
    worst = 0.0
    for _ in range(10):
        space = catalog[int(rng.integers(len(catalog)))]()
        n = space.dim + 1 + int(rng.integers(0, 8))
        try:
            op = find_operator(space, n)
        except (OperatorError, QuadratureError):
            # that node count does not support the space; take the
            # smallest workable one instead
            op = find_operator(space)
        worst = max(worst, _pair_residual(op))
    ok = worst <= 1e-10
    _report(
        "criterion 3: norm compatibility at random spaces",
        ok,
        f"10 draws, worst pair residual {worst:.1e}",
    )


def test_criterion_4_semidiscrete_identities():
    from sbpkit.solver import rhs_advection, rhs_burgers

    rng = np.random.default_rng(20240819)
    ops = [
        find_operator(polynomial_space(2, UNIT)),
        find_operator(trigonometric_space(1, UNIT)),
        find_operator(exponential_space(2, UNIT)),
    ]
    a = 1.3

    def spec_advection(g, sigma):
        return ProblemSpec(
            kind="advection",
            domain=UNIT,
            initial_condition=np.sin,
            inflow=lambda t, g=g: g,
            wave_speed=a,
            sigma=sigma,
        )

    def spec_burgers(g, sigma):
        return ProblemSpec(
            kind="burgers",
            domain=UNIT,
            initial_condition=np.sin,
            inflow=lambda t, g=g: g,
            sigma=sigma,
        )

    worst_mass = worst_energy = worst_burgers = 0.0
    for i in range(1000):
        op = ops[i % len(ops)]
        u = rng.normal(size=op.n_nodes)
        g = float(rng.normal())
        state = BlockState(u=u[None, :], operator=op, edges=(0.0, 1.0), t=0.0)

        du = rhs_advection(state, 0.0, spec_advection(g, 1.0))[0]
        rate = float(np.dot(op.p, du))
        expected = -a * (u[-1] - g)
        worst_mass = max(
            worst_mass, abs(rate - expected) / max(1.0, abs(expected))
        )

        for sigma in (0.6, 1.0, 2.0):
            du = rhs_advection(state, 0.0, spec_advection(g, sigma))[0]
            rate = 2.0 * float(np.dot(u * op.p, du))
            expected = a * (
                u[0] ** 2
                - u[-1] ** 2
                - 2 * sigma * u[0] ** 2
                + 2 * sigma * u[0] * g
            )
            worst_energy = max(
                worst_energy, abs(rate - expected) / max(1.0, abs(expected))
            )

        du = rhs_burgers(state, 0.0, spec_burgers(g, 2.0))[0]
        rate = 2.0 * float(np.dot(u * op.p, du))
        expected = (2.0 / 3.0) * (
            2.0 * u[0] ** 2 * g - (2.0 - 1.0) * u[0] ** 3 - u[-1] ** 3
        )
        worst_burgers = max(
            worst_burgers, abs(rate - expected) / max(1.0, abs(expected))
        )

    ok = worst_mass <= 1e-12 and worst_energy <= 1e-12 and worst_burgers <= 1e-12
    _report(
        "criterion 4: semidiscrete mass and energy identities",
        ok,
        f"1000 states, mass {worst_mass:.1e}, energy {worst_energy:.1e}, "
        f"burgers {worst_burgers:.1e}",
    )


def test_criterion_5_discrete_conservation():
    spec = ProblemSpec(
        kind="advection", domain=UNIT, initial_condition=_oscillatory
    )
    result = run(spec, "trig:d=4", n_nodes=10, n_blocks=1, t_final=1.0, cfl=0.5)
    masses = np.array([rec.mass for rec in result.history])
    energies = np.array([rec.energy for rec in result.history])
    drift = float(np.max(np.abs(masses - masses[0])))
    growth = float(np.max(np.diff(energies))) if energies.size > 1 else 0.0
    ok = drift <= 1e-10 and growth <= 1e-10
    _report(
        "criterion 5: fully discrete conservation",
        ok,
        f"{result.steps} steps, mass drift {drift:.1e}, "
        f"max energy step change {growth:.1e}",
    )


def test_criterion_6_time_integrator_order():
    op = find_operator(polynomial_space(1, UNIT))
    decay = lambda s, t: -s.u
    errors = []
    for dt in (0.1, 0.05, 0.025):
        state = BlockState(
            u=np.ones((1, 2)), operator=op, edges=(0.0, 1.0), t=0.0
        )
        for _ in range(round(1.0 / dt)):
            state = ssprk33_step(decay, state, dt)
        errors.append(abs(float(state.u[0, 0]) - np.exp(-1.0)))
    orders = [
        np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    ok = all(2.9 <= p <= 3.1 for p in orders)
    _report(
        "criterion 6: third-order time integration",
        ok,
        "observed orders " + ", ".join(f"{p:.3f}" for p in orders),
    )


def test_criterion_7_forced_advection_comparison():
    start = time.perf_counter()
    spec = ProblemSpec(
        kind="advection",
        domain=Interval(0.0, np.pi),
        initial_condition=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        inflow=lambda t: 1.0,
        source_coefficient=2.0,
    )
    ref = reference_solution(spec, 3.5)
    results = {}
    for text in ("exp:d=2", "poly:d=2"):
        space = make_space(text, UNIT)
        for blocks in (3, 6, 12, 24):
            res = run(spec, space, n_blocks=blocks, t_final=3.5, cfl=0.5)
            results[(text, blocks)] = error_report(res.state, ref)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    lines = []
    for blocks in (3, 6, 12, 24):
        e = results[("exp:d=2", blocks)]
        p = results[("poly:d=2", blocks)]
        ok = ok and e.err_max < p.err_max and e.err_p < p.err_p
        lines.append(f"I={blocks}: {e.err_max:.1e}<{p.err_max:.1e}")
    _report(
        "criterion 7: adapted space wins on forced advection",
        ok,
        "err_max " + ", ".join(lines) + f", {elapsed:.1f}s",
    )


def test_criterion_8_burgers_comparison():
    start = time.perf_counter()
    spec = ProblemSpec(kind="burgers", domain=UNIT, initial_condition=_bumpy)
    t_final = 0.01
    ref = reference_solution(spec, t_final)

    # the reference comes from characteristic tracing; confirm the traced
    # feet satisfy the implicit equation to 1e-12 on a sample grid
    xs = np.linspace(0.0, 1.0, 41)
    uref = np.asarray(ref(xs), dtype=float)
    feet = xs - t_final * uref
    wrapped = UNIT.left + np.mod(feet - UNIT.left, UNIT.width)
    trace_residual = float(
        np.max(np.abs(feet + t_final * _bumpy(wrapped) - xs))
    )

    results = {}
    for text in ("exp:d=2", "poly:d=2"):
        space = make_space(text, UNIT)
        for blocks in (5, 10, 20, 40):
            res = run(spec, space, n_blocks=blocks, t_final=t_final, cfl=0.5)
            results[(text, blocks)] = error_report(res.state, ref)
    elapsed = time.perf_counter() - start
    ok = trace_residual <= 1e-12 and elapsed < 120.0
    lines = []
    for blocks in (5, 10, 20, 40):
        e = results[("exp:d=2", blocks)]
        p = results[("poly:d=2", blocks)]
        ok = ok and e.err_max < p.err_max
        lines.append(f"I={blocks}: {e.err_max:.1e}<{p.err_max:.1e}")
    _report(
        "criterion 8: adapted space wins on Burgers",
        ok,
        "err_max "
        + ", ".join(lines)
        + f", trace residual {trace_residual:.1e}, {elapsed:.1f}s",
    )


def test_criterion_9_oscillatory_advection_gap():
    start = time.perf_counter()
    spec = ProblemSpec(
        kind="advection", domain=UNIT, initial_condition=_oscillatory
    )
    ref = reference_solution(spec, 1.0)
    # equal approximation dimension 41; a small step keeps the time
    # integrator from masking the spatial gap
    trig = run(spec, "trig:d=20", t_final=1.0, cfl=0.02)
    poly = run(spec, "poly:d=40", t_final=1.0, cfl=0.02)
    err_trig = error_report(trig.state, ref).err_max
    err_poly = error_report(poly.state, ref).err_max
    elapsed = time.perf_counter() - start
    ratio = err_poly / err_trig
    ok = ratio >= 5.0 and elapsed < 180.0
    _report(
        "criterion 9: oscillatory data favors the periodic space",
        ok,
        f"err_max trig {err_trig:.2e} vs poly {err_poly:.2e}, ratio "
        f"{ratio:.0f}x, {elapsed:.1f}s",
    )
