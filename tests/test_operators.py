"""Operator construction, verification, block mapping and file round trips."""

from __future__ import annotations

import json
import logging
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbpkit.operators
import sbpkit.quadrature
import sbpkit.spaces
from sbpkit.operators import (
    TOL_COHERENCE,
    FsbpOperator,
    OperatorError,
    build_operator,
    find_operator,
    read_operator,
    verify_sbp,
    write_operator,
)
from sbpkit.quadrature import (
    ExactnessReport,
    QuadratureError,
    QuadratureRule,
    _corrected,
    find_positive_rule,
    gauss_lobatto_rule,
    least_squares_rule,
    trapezoid_rule,
    verify_exactness,
)
from sbpkit.solver import BlockState
from sbpkit.spaces import (
    RANK_RTOL,
    FunctionSpace,
    Interval,
    affine_map,
    exponential_space,
    make_space,
    polynomial_space,
    rbf_cubic_space,
    trigonometric_space,
    vandermonde,
    vandermonde_derivative,
)

from literal_exp import literal_exponential_space

UNIT = Interval(0.0, 1.0)

# known operator matrices, stated to two decimals
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


def test_two_node_linear_operator_in_closed_form():
    space = polynomial_space(1, UNIT)
    op = build_operator(space, find_positive_rule(space, 2))
    np.testing.assert_allclose(op.p, [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(op.Q, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-13)
    np.testing.assert_allclose(op.D, [[-1.0, 1.0], [-1.0, 1.0]], atol=1e-13)


def test_trigonometric_operator_matches_known_matrices():
    space = trigonometric_space(1, UNIT)
    op = build_operator(space, trapezoid_rule(4, UNIT))
    np.testing.assert_allclose(op.Q, TRIG1_Q, atol=0.01)
    np.testing.assert_allclose(op.D, TRIG1_D, atol=0.01)


def test_exponential_operator_matches_known_matrices():
    op = find_operator(exponential_space(2, UNIT))
    assert op.n_nodes == 5
    np.testing.assert_allclose(op.p, [0.08, 0.36, 0.12, 0.36, 0.08], atol=5e-3)
    np.testing.assert_allclose(op.Q, EXP2_Q, atol=0.01)
    np.testing.assert_allclose(op.D, EXP2_D, atol=0.01)


def test_radial_operator_matches_known_matrices():
    space = rbf_cubic_space([0.0, 0.5, 1.0], UNIT)
    op = find_operator(space, 4)
    np.testing.assert_allclose(
        op.p, [16 / 129, 81 / 215, 81 / 215, 16 / 129], atol=1e-6
    )
    np.testing.assert_allclose(op.Q, RBF_Q, atol=0.01)
    np.testing.assert_allclose(op.D, RBF_D, atol=0.01)


def test_verify_sbp_reports_small_residuals():
    space = trigonometric_space(1, UNIT)
    op = build_operator(space, trapezoid_rule(4, UNIT))
    report = verify_sbp(op)
    assert report.passed
    assert report.exactness_residual <= 1e-8
    assert report.antisymmetry_residual <= 1e-12
    assert report.d_one_residual <= 1e-10
    assert report.coherence_residual <= 1e-13
    assert report.min_weight == pytest.approx(1 / 6)


def test_verify_sbp_catches_tampering():
    space = trigonometric_space(1, UNIT)
    op = build_operator(space, trapezoid_rule(4, UNIT))
    Q = op.Q.copy()
    Q[0, 0] += 1e-3
    bad = FsbpOperator(space=op.space, nodes=op.nodes, p=op.p, Q=Q, D=op.D)
    report = verify_sbp(bad)
    assert not report.passed
    assert report.antisymmetry_residual == pytest.approx(2e-3, rel=1e-6)


def test_linear_operator_annihilates_constants_exactly():
    space = polynomial_space(1, UNIT)
    op = build_operator(space, find_positive_rule(space))
    assert verify_sbp(op).d_one_residual == 0.0


def test_d_differentiates_span_members():
    space = trigonometric_space(1, UNIT)
    op = build_operator(space, trapezoid_rule(4, UNIT))
    u = np.sin(2 * np.pi * op.nodes)
    du = op.D @ u
    np.testing.assert_allclose(du, 2 * np.pi * np.cos(2 * np.pi * op.nodes), atol=1e-8)
    np.testing.assert_allclose(op.D @ np.ones(4), 0.0, atol=1e-10)


def test_d_linear_example():
    space = polynomial_space(1, UNIT)
    op = build_operator(space, find_positive_rule(space))
    np.testing.assert_allclose(op.D @ [2.0, 3.0], [1.0, 1.0], atol=1e-12)


def _block_operator(op: FsbpOperator, left: float, right: float) -> FsbpOperator:
    """The operator of the one block of a state on ``[left, right]``."""
    u = np.zeros((1, op.n_nodes))
    return BlockState(u=u, operator=op, edges=(left, right), t=0.0).operators[0]


def test_block_operator_scaling():
    space = polynomial_space(1, UNIT)
    op = build_operator(space, find_positive_rule(space))
    half = _block_operator(op, 0.0, 0.5)
    np.testing.assert_allclose(half.nodes, [0.0, 0.5])
    np.testing.assert_allclose(half.p, [0.25, 0.25])
    np.testing.assert_allclose(half.Q, op.Q)
    np.testing.assert_allclose(half.D, 2.0 * op.D)


def test_block_operator_stays_verified():
    space = trigonometric_space(1, UNIT)
    op = build_operator(space, trapezoid_rule(4, UNIT))
    mapped = _block_operator(op, 2.0, 2.5)
    report = verify_sbp(mapped)
    assert report.passed
    # the transplanted operator differentiates the mapped basis exactly;
    # the base frequency scales with the inverse width ratio
    w = 2 * np.pi / 0.5
    u = np.sin(w * (mapped.nodes - 2.0))
    np.testing.assert_allclose(
        mapped.D @ u, w * np.cos(w * (mapped.nodes - 2.0)), atol=1e-7
    )


def test_block_operators_are_the_affine_transplant_bit_for_bit():
    # the transplant formula a block operator was once built with, on a
    # reference interval whose left end is not 0 and ten unequal blocks
    op = find_operator(polynomial_space(4, Interval(-1.0, 1.0)))
    rng = np.random.default_rng(38)
    edges = np.concatenate([[0.3], 0.3 + np.cumsum(rng.uniform(0.05, 1.0, 10))])
    state = BlockState(u=np.zeros((10, op.n_nodes)), operator=op, edges=edges, t=0.0)
    src = op.space.interval
    assert len(state.operators) == 10
    for a, b, block in zip(edges[:-1], edges[1:], state.operators):
        iv = Interval(float(a), float(b))
        s = iv.width / src.width
        nodes = iv.left + (op.nodes - src.left) * s
        nodes[0] = iv.left
        nodes[-1] = iv.right
        assert block.nodes.tobytes() == nodes.tobytes()
        assert block.p.tobytes() == (op.p * s).tobytes()
        assert block.D.tobytes() == (op.D / s).tobytes()
        assert block.Q is op.Q
        assert block.space.interval == iv and block.space.rule == op.space.rule


def test_construction_is_deterministic():
    space = exponential_space(2, UNIT)
    a = find_operator(space)
    b = find_operator(space)
    assert np.array_equal(a.Q, b.Q)
    assert np.array_equal(a.D, b.D)
    assert np.array_equal(a.p, b.p)


def test_norm_compatibility_identities():
    """P realizes the boundary products: Fx^T P F + F^T P Fx equals the moments."""
    for text in ("poly:d=3", "trig:d=2", "exp:d=2", "rbf-cubic:centers=0,0.5,1"):
        space = make_space(text, UNIT)
        op = find_operator(space)
        F = vandermonde(space, op.nodes)
        Fx = vandermonde_derivative(space, op.nodes)
        G = Fx.T @ (op.p[:, None] * F) + F.T @ (op.p[:, None] * Fx)
        m = space.moments
        idx = 0
        for k in range(space.dim):
            for l in range(k, space.dim):
                assert abs(G[k, l] - m[idx]) <= 1e-10, (text, k, l)
                idx += 1


def test_build_rejects_inexact_rule():
    space = trigonometric_space(1, UNIT)
    with pytest.raises(OperatorError):
        build_operator(space, trapezoid_rule(3, UNIT))


def test_build_rejects_nonpositive_weights():
    space = polynomial_space(1, UNIT)
    rule = QuadratureRule(np.array([0.0, 0.5, 1.0]), np.array([0.75, -0.25, 0.5]))
    with pytest.raises(OperatorError):
        build_operator(space, rule)


def test_find_operator_skips_unworkable_node_counts():
    # ten equidistant nodes admit weights that squeeze past the quadrature
    # residual gate, yet no antisymmetric part reproduces the derivatives;
    # the pinned build must fail while the ladder walks on to a good count;
    # the literal columns 1, x, x^2, x^3, exp(x) reach that gate
    space = literal_exponential_space(4, UNIT)
    with pytest.raises(OperatorError):
        find_operator(space, 10)
    op = find_operator(space)
    assert verify_sbp(op).passed
    assert op.n_nodes > 10


def test_find_operator_raises_when_ladder_is_exhausted():
    space = literal_exponential_space(6, UNIT)
    with pytest.raises(OperatorError):
        find_operator(space)


def test_operator_file_round_trip(tmp_path):
    space = exponential_space(2, UNIT)
    op = find_operator(space)
    path = tmp_path / "op_roundtrip.json"
    write_operator(op, path)
    back = read_operator(path)
    assert back.space.kind == op.space.kind
    assert np.array_equal(back.nodes, op.nodes)
    assert np.array_equal(back.p, op.p)
    assert np.array_equal(back.Q, op.Q)
    assert np.array_equal(back.D, op.D)


@pytest.mark.parametrize(
    "text, iv",
    [
        ("rbf-cubic:centers=0,0.1234567,0.6,1", UNIT),
        ("rbf-cubic:centers=0,1.5707963267948966,3.1415926535897931",
         Interval(0.0, np.pi)),
    ],
)
def test_rbf_operator_file_round_trip(tmp_path, text, iv):
    op = find_operator(make_space(text, iv))
    path = tmp_path / "rbf.json"
    write_operator(op, path)
    back = read_operator(path)
    assert back.space.kind == op.space.kind
    assert np.array_equal(back.D, op.D)


def test_read_rejects_tampered_file(tmp_path):
    space = trigonometric_space(1, UNIT)
    op = build_operator(space, trapezoid_rule(4, UNIT))
    path = tmp_path / "op.json"
    write_operator(op, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["D"][0][0] += 0.5
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(OperatorError):
        read_operator(path)


def test_read_names_the_coherence_residual_that_fails(tmp_path):
    # D no longer equals P^-1 Q, while exactness and D 1 stay in tolerance
    path = tmp_path / "op.json"
    write_operator(find_operator(make_space("poly:d=3")), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["D"][1][1] += 1e-12
    path.write_text(json.dumps(data), encoding="utf-8")
    report = sbpkit.operators._load_and_check(path)[1]
    assert report.coherence_residual > TOL_COHERENCE
    with pytest.raises(OperatorError) as exc:
        read_operator(path)
    assert f"coherence residual {report.coherence_residual:.3e}" in str(exc.value)


def test_read_rejects_malformed_files(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        read_operator(bad)
    missing = tmp_path / "missing.json"
    missing.write_text('{"space": "poly:d=1"}', encoding="utf-8")
    with pytest.raises(ValueError):
        read_operator(missing)
    fields = {
        "space": "poly:d=1",
        "domain": [0.0, 1.0],
        "nodes": [0.0, 1.0],
        "weights": [0.5, 0.5],
        "Q": [[-0.5, 0.5], [-0.5, 0.5]],
        "D": [[-1.0, 1.0], [-1.0, 1.0]],
    }
    for text in (
        "5",
        json.dumps({**fields, "domain": [None, 1.0]}),
        json.dumps({**fields, "nodes": {"a": 1}}),
        json.dumps({**fields, "Q": [[-0.5, 0.5], [-0.5, None]]}),
        json.dumps({**fields, "nodes": [1.0, 0.0]}),
        json.dumps({**fields, "nodes": [0.0, 0.5]}),
    ):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            read_operator(bad)


#: what each array of test_read_refuses_text_and_booleans_for_numbers holds
_GOT = {"nodes": "text", "weights": "text", "Q": "text", "D": "booleans"}


@pytest.mark.parametrize(
    "key, value",
    [
        ("domain", [False, True]),
        ("nodes", ["0", "1"]),
        ("weights", [0.5, "0.5"]),
        ("Q", [[-0.5, 0.5], ["-0.5", 0.5]]),
        ("D", [[-1.0, True], [-1.0, True]]),
    ],
)
def test_read_refuses_text_and_booleans_for_numbers(tmp_path, key, value):
    # each file loads as the valid linear operator once the entry is cast
    fields = {
        "space": "poly:d=1",
        "domain": [0.0, 1.0],
        "nodes": [0.0, 1.0],
        "weights": [0.5, 0.5],
        "Q": [[-0.5, 0.5], [-0.5, 0.5]],
        "D": [[-1.0, 1.0], [-1.0, 1.0]],
    }
    path = tmp_path / "op.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    assert read_operator(path).n_nodes == 2
    path.write_text(json.dumps({**fields, key: value}), encoding="utf-8")
    if key == "domain":
        refusal = "domain must be a number, got False"
    else:
        refusal = f"{key} must hold real numbers, got {_GOT[key]}"
    message = f"operator file {path}: {refusal}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_operator(path)


def test_write_refuses_mapped_operators(tmp_path):
    space = polynomial_space(1, UNIT)
    op = build_operator(space, find_positive_rule(space))
    mapped = _block_operator(op, 0.0, 0.5)
    with pytest.raises(ValueError):
        write_operator(mapped, tmp_path / "mapped.json")


def test_norm_weights_reproduce_the_quadrature():
    space = exponential_space(2, UNIT)
    op = find_operator(space)
    rule = QuadratureRule(op.nodes, op.p)
    assert verify_exactness(rule, space).ok
    np.testing.assert_allclose(rule.weights, op.p)


def _dense_reference(space, rule):
    """Q and the largest residual of the dense exactness system.

    The unknowns are the strictly lower triangle of the antisymmetric part
    of Q, row-major; ``lstsq`` returns the minimum-norm solution.  This is
    the construction the closed form in :func:`build_operator` replaced.
    """
    x, p = rule.nodes, rule.weights
    n, K = x.size, space.dim
    F = vandermonde(space, x)
    Fx = vandermonde_derivative(space, x)
    B = np.zeros((n, n))
    B[0, 0], B[-1, -1] = -1.0, 1.0
    y = (p[:, None] * Fx - 0.5 * (B @ F)).reshape(-1)
    ii, jj = np.tril_indices(n, -1)
    A = np.zeros((n * K, ii.size))
    cols = np.arange(ii.size)
    for k in range(K):
        A[ii * K + k, cols] = F[jj, k]
        A[jj * K + k, cols] -= F[ii, k]
    q, *_ = np.linalg.lstsq(A, y, rcond=1e-12)
    QA = np.zeros((n, n))
    QA[ii, jj] = q
    return QA - QA.T + 0.5 * B, float(np.max(np.abs(A @ q - y)))


@pytest.mark.parametrize(
    "kind",
    [
        "trig:d=3",  # trapezoid rule
        "poly:d=6",  # Gauss-Lobatto rule
        "exp:d=3",  # least-squares rule
        "exp:d=5",
        "rbf-cubic:centers=0,0.25,0.5,0.75,1",
    ],
)
def test_closed_form_build_matches_dense_least_squares(kind):
    op = find_operator(make_space(kind, UNIT))
    Q_ref, _ = _dense_reference(op.space, QuadratureRule(op.nodes, op.p))
    np.testing.assert_allclose(op.Q, Q_ref, rtol=0.0, atol=1e-10)


def test_closed_form_build_gate_residual_matches_dense_least_squares():
    space = literal_exponential_space(6, UNIT)
    rule = find_positive_rule(space, 32)
    with pytest.raises(OperatorError, match="inconsistent") as exc:
        build_operator(space, rule)
    residual = float(re.search(r"residual (\S+)$", str(exc.value)).group(1))
    _, residual_ref = _dense_reference(space, rule)
    assert residual == pytest.approx(residual_ref, rel=0.01)


def test_closed_form_rules_skip_the_least_squares_rule(monkeypatch):
    calls = []
    original = sbpkit.quadrature.least_squares_rule

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sbpkit.quadrature, "least_squares_rule", counting)
    find_positive_rule(trigonometric_space(3, UNIT))
    find_operator(polynomial_space(6, UNIT))
    assert calls == []


def _two_branch_find_operator(space, n_nodes=None):
    """The search that the one-loop :func:`find_operator` replaced.

    A pinned count and the ladder are separate branches, the ladder keeps
    its own start and window, and the rank check runs on its own SVD
    before the build.
    """

    def verified_build(n):
        rule = find_positive_rule(space, n)
        sigma = np.linalg.svd(space.values(rule.nodes), compute_uv=False)
        if np.sum(sigma > RANK_RTOL * sigma[0]) != space.dim:
            raise OperatorError(
                f"grid does not determine {space.kind!r} uniquely "
                f"(rank below {space.dim}); refine the grid"
            )
        op = build_operator(space, rule)
        report = verify_sbp(op)
        if not report.passed:
            raise OperatorError(
                f"operator for {space.kind!r} on {op.n_nodes} nodes fails "
                f"verification: exactness {report.exactness_residual:.3e}, "
                f"constant residual {report.d_one_residual:.3e}"
            )
        return op

    if n_nodes is not None:
        return verified_build(int(n_nodes))
    n_start = max(space.dim, 2) if space.rule == "gauss-lobatto" else space.dim + 1
    n_max = n_start + 24
    last_error = None
    for n in range(n_start, n_max + 1):
        try:
            return verified_build(n)
        except (QuadratureError, OperatorError) as exc:
            last_error = exc
    raise OperatorError(
        f"no workable operator for {space.kind!r} with up to {n_max} nodes"
    ) from last_error


SWEEP = [
    ("poly:d=3", UNIT),
    ("poly:d=12", Interval(-1.0, 1.0)),
    ("trig:d=2", UNIT),
    ("trig:d=6", Interval(0.0, np.pi)),
    ("exp:d=2", UNIT),
    ("exp:d=4", UNIT),
    ("exp:d=4", Interval(-1.0, 1.0)),
    ("exp:d=5", Interval(0.0, np.pi)),
    ("rbf-cubic:centers=0,0.25,0.5,0.75,1", UNIT),
]


@pytest.mark.parametrize("kind, interval", SWEEP)
def test_find_operator_matches_the_two_branch_search(kind, interval):
    space = make_space(kind, interval)
    for n_nodes in (None, space.dim + 2, space.dim + 6):
        try:
            ref = _two_branch_find_operator(space, n_nodes)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                find_operator(space, n_nodes)
            expected = str(exc)
            if n_nodes is None:
                # the exhausted ladder also names its last rung's reason
                expected += f"; last: {exc.__cause__}"
            assert str(got.value) == expected
            continue
        op = find_operator(space, n_nodes)
        for name in ("nodes", "p", "Q"):
            np.testing.assert_array_equal(getattr(op, name), getattr(ref, name))


MAPPED_SWEEP = [
    f"poly:d={d}" for d in (*range(7), 8, 10, 12, 16, 20, 24, 30, 40)
] + [f"trig:d={d}" for d in (*range(1, 7), 8, 10, 12, 16, 20)]


@pytest.mark.parametrize(
    "interval", [Interval(0.0, 2.0), Interval(-1.0, 1.0), Interval(0.0, np.pi)]
)
@pytest.mark.parametrize("kind", MAPPED_SWEEP)
def test_mapped_space_finds_the_native_operator(kind, interval):
    # the span, and so the operator, is the same whichever interval the
    # basis was written on; the mapped space keeps its closed-form rule
    native = find_operator(make_space(kind, interval))
    mapped = find_operator(affine_map(make_space(kind, UNIT), interval))
    rule = "gauss-lobatto" if kind.startswith("poly") else "trapezoid"
    assert native.space.rule == mapped.space.rule == rule
    assert mapped.n_nodes == native.n_nodes
    np.testing.assert_array_equal(mapped.nodes, native.nodes)
    np.testing.assert_array_equal(mapped.p, native.p)
    assert np.max(np.abs(mapped.Q - native.Q)) <= 1e-13


def test_build_operator_evaluates_the_space_once():
    base = exponential_space(2, UNIT)
    calls = []

    def values(x):
        calls.append(len(x))
        return base.values(x)

    def recording_space():
        return FunctionSpace(
            UNIT, values, base.derivatives, kind=base.kind, rule=base.rule
        )

    space = recording_space()
    rule = find_positive_rule(space)
    calls.clear()
    op = build_operator(space, rule)
    # the space still keeps the grid of the search's last rule check
    assert calls == []
    assert verify_sbp(op).passed
    assert calls == []
    fresh = recording_space()
    calls.clear()
    build_operator(fresh, rule)
    # the rule check and the build share one evaluation on the rule's grid
    assert calls == [rule.n_nodes]


def test_build_operator_rejects_a_rank_deficient_grid(monkeypatch):
    # sin(2 pi x) vanishes on all three nodes, so the grid sees rank 2 of 3;
    # the rule check is stubbed to pass, so the build reaches the rank check
    monkeypatch.setattr(
        sbpkit.operators,
        "verify_exactness",
        lambda rule, space: ExactnessReport(0.0, True),
    )
    space = trigonometric_space(1, UNIT)
    rule = QuadratureRule(np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.5, 0.25]))
    with pytest.raises(OperatorError, match="does not determine"):
        build_operator(space, rule)
    with pytest.raises(OperatorError, match="does not determine"):
        build_operator(polynomial_space(3, UNIT), trapezoid_rule(3, UNIT))


def test_exhausted_ladder_names_the_last_reason():
    # the ladder for exp:d=6 runs from 8 to 32 nodes, and with the literal
    # columns no rung works
    space = literal_exponential_space(6, UNIT)
    with pytest.raises(OperatorError) as pinned:
        find_operator(space, 32)
    with pytest.raises(OperatorError) as exhausted:
        find_operator(space)
    assert str(exhausted.value) == (
        f"no workable operator for 'exp:d=6' with up to 32 nodes; last: {pinned.value}"
    )
    assert str(exhausted.value.__cause__) == str(pinned.value)


def _forget_grid(space):
    # empty the space's one-grid slot, so its next check evaluates afresh
    object.__setattr__(space, "_grid", None)


def _memo_free_find_operator(space, n_nodes=None):
    """The search without the space's kept grid.

    Every rule builder, rule check, build and verification is called
    directly, with the space's slot emptied first, so each one evaluates
    the space afresh.
    """

    def rule_for(n):
        builders = []
        if space.rule == "trapezoid":
            builders.append(lambda: trapezoid_rule(n, space.interval))
        elif space.rule == "gauss-lobatto":
            builders.append(lambda: gauss_lobatto_rule(n, space.interval))
        if n >= space.dim:
            builders.append(lambda: least_squares_rule(space, n))
            if space.rule == "lobatto-least-squares":
                builders.append(
                    lambda: _corrected(space, gauss_lobatto_rule(n, space.interval))
                )
        for build in builders:
            _forget_grid(space)
            rule = build()
            _forget_grid(space)
            if verify_exactness(rule, space).ok:
                return rule
        raise QuadratureError(
            f"no positive exact rule for {space.kind!r} with {n} nodes"
        )

    def verified_build(n):
        rule = rule_for(n)
        _forget_grid(space)
        op = build_operator(space, rule)
        _forget_grid(space)
        report = verify_sbp(op)
        if not report.passed:
            raise OperatorError(
                f"operator for {space.kind!r} on {n} nodes fails "
                f"verification: exactness {report.exactness_residual:.3e}, "
                f"constant residual {report.d_one_residual:.3e}"
            )
        return op

    if n_nodes is not None:
        return verified_build(n_nodes)
    n_start = max(space.dim, 2) if space.rule == "gauss-lobatto" else space.dim + 1
    last_error = None
    for n in range(n_start, n_start + 25):
        try:
            return verified_build(n)
        except (QuadratureError, OperatorError) as exc:
            last_error = exc
    raise OperatorError(
        f"no workable operator for {space.kind!r} with up to {n_start + 24} "
        f"nodes; last: {last_error}"
    )


def _assert_same_search(space, n_nodes=None):
    try:
        ref = _memo_free_find_operator(space, n_nodes)
    except (QuadratureError, OperatorError) as exc:
        with pytest.raises(type(exc)) as got:
            find_operator(space, n_nodes)
        assert str(got.value) == str(exc)
        return
    op = find_operator(space, n_nodes)
    for name in ("nodes", "p", "Q", "D"):
        assert getattr(op, name).tobytes() == getattr(ref, name).tobytes()


def _centers(m, interval):
    values = np.linspace(interval.left, interval.right, m)
    return "rbf-cubic:centers=" + ",".join(format(v, ".17g") for v in values)


MEMO_SWEEP = [
    ("poly:d=0", UNIT),
    ("poly:d=3", UNIT),
    ("poly:d=12", Interval(-1.0, 1.0)),
    ("poly:d=40", UNIT),
    ("trig:d=2", UNIT),
    ("trig:d=6", Interval(0.0, np.pi)),
    ("trig:d=20", UNIT),
    ("exp:d=2", UNIT),
    ("exp:d=4", Interval(-1.0, 1.0)),
    ("exp:d=5", Interval(0.0, np.pi)),
    ("exp:d=6", UNIT),
    (_centers(5, UNIT), UNIT),
    (_centers(7, Interval(-1.0, 1.0)), Interval(-1.0, 1.0)),
    (_centers(11, UNIT), UNIT),
]


@pytest.mark.parametrize("kind, interval", MEMO_SWEEP)
def test_find_operator_matches_the_memo_free_search(kind, interval):
    space = make_space(kind, interval)
    for n_nodes in (None, space.dim + 2, space.dim + 6, 64):
        _assert_same_search(space, n_nodes)


# a family with a degree; exp degrees run to 8, whose 7 and 8 are found at
# 10 to 14 nodes on these widths
_FAMILY_DEGREE = st.sampled_from(["poly", "trig", "exp", "rbf"]).flatmap(
    lambda family: st.tuples(
        st.just(family), st.integers(1, 8 if family == "exp" else 6)
    )
)


def _drawn_kind(family_degree, interval):
    family, degree = family_degree
    if family == "rbf":
        return _centers(degree + 2, interval)
    return f"{family}:d={2 * degree if family == 'poly' else degree}"


@settings(max_examples=30, deadline=None)
@given(
    family_degree=_FAMILY_DEGREE,
    left=st.floats(-2.0, 2.0),
    width=st.floats(0.25, 4.0),
)
def test_find_operator_matches_the_memo_free_search_anywhere(
    family_degree, left, width
):
    interval = Interval(left, left + width)
    _assert_same_search(make_space(_drawn_kind(family_degree, interval), interval))


def _decoy(space, n, skew=1):
    # an operator of ``space`` on n nodes, equidistant for skew=1; verifying
    # it moves the space's slot to that grid
    iv = space.interval
    nodes = iv.left + iv.width * np.linspace(0.0, 1.0, n) ** skew
    return FsbpOperator(space, nodes, np.ones(n), np.zeros((n, n)), np.zeros((n, n)))


@settings(max_examples=30, deadline=None)
@given(
    family_degree=_FAMILY_DEGREE,
    left=st.floats(-2.0, 2.0),
    width=st.floats(0.25, 4.0),
)
def test_searching_a_space_again_matches_a_fresh_search_anywhere(
    family_degree, left, width
):
    # repeated searches of one space object, with verifications on other
    # grids in between, find what a search on a fresh copy finds
    interval = Interval(left, left + width)
    kind = _drawn_kind(family_degree, interval)
    space = make_space(kind, interval)
    # each search follows a verification on a grid of the first rung's
    # size that no rung visits, then on a grid a rung visits again, and
    # last on nothing, so the winning grid is still kept
    first = sbpkit.quadrature._ladder(space, None).start
    try:
        ref = find_operator(make_space(kind, interval))
    except OperatorError as exc:
        for decoy in (_decoy(space, first, 2), None):
            if decoy is not None:
                verify_sbp(decoy)
            with pytest.raises(OperatorError) as got:
                find_operator(space)
            assert str(got.value) == str(exc)
        return
    for decoy in (_decoy(space, first, 2), _decoy(space, ref.n_nodes - 1), None):
        if decoy is not None:
            verify_sbp(decoy)
        op = find_operator(space)
        for name in ("nodes", "p", "Q", "D"):
            assert getattr(op, name).tobytes() == getattr(ref, name).tobytes()
        assert verify_sbp(op) == verify_sbp(ref)


def test_two_threads_searching_one_space_match_a_serial_search():
    kind, interval = "exp:d=5", Interval(0.0, np.pi)
    ref = find_operator(make_space(kind, interval))
    space = make_space(kind, interval)
    start = threading.Barrier(2, timeout=60)

    def search(n_nodes):
        start.wait()
        # pinned searches in between move the slot under the other thread
        return [find_operator(space, n) for n in (None, n_nodes, None)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(search, (ref.n_nodes, ref.n_nodes + 1)))
    finally:
        sys.setswitchinterval(switch)
    for n_nodes, ops in zip((ref.n_nodes, ref.n_nodes + 1), results):
        serial = find_operator(make_space(kind, interval), n_nodes)
        for op, expected in zip(ops, (ref, serial, ref)):
            for name in ("nodes", "p", "Q", "D"):
                assert getattr(op, name).tobytes() == getattr(expected, name).tobytes()


def test_space_keeps_only_its_latest_grid():
    space = exponential_space(4, UNIT)
    assert space._grid is None
    op = find_operator(space)
    # the winning grid outlives the search, on the operator's own space
    key, mats = space._grid
    assert key == op.nodes.tobytes() and len(mats) == 3
    assert op.space is space
    with pytest.raises(QuadratureError):
        find_operator(space, 7)  # pinned failure
    # its last candidate, the Gauss-Lobatto one
    assert space._grid[0] == gauss_lobatto_rule(7, UNIT).nodes.tobytes()
    find_positive_rule(space)
    assert space._grid[0] == op.nodes.tobytes() and space._grid[1] is not mats


def test_searching_a_space_again_skips_only_the_kept_grid():
    def recording_space(base):
        def values(x):
            calls.append(len(x))
            return base.values(x)

        return FunctionSpace(
            UNIT, values, base.derivatives, kind=base.kind, rule=base.rule
        )

    calls = []
    # trig:d=3 wins on the ladder's first rung, 8 nodes, so a second search
    # finds that grid still kept
    space = recording_space(trigonometric_space(3, UNIT))
    counts = []
    for _ in range(2):
        calls.clear()
        find_operator(space)
        counts.append(list(calls))
    assert counts == [[8], []]
    # exp:d=4 wins on the third rung, with 8 Gauss-Lobatto nodes after the
    # equispaced ones; each rung tries both grids, and the first rung
    # evicts the winner
    space = recording_space(exponential_space(4, UNIT))
    counts = []
    for _ in range(2):
        calls.clear()
        find_operator(space)
        counts.append(list(calls))
    assert counts == [[6, 6, 7, 7, 8, 8]] * 2


def test_space_slot_hands_out_read_only_arrays_one_grid_at_a_time():
    space = exponential_space(3, UNIT)
    other = exponential_space(3, UNIT)
    a, b = np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 7)
    on_grid = sbpkit.spaces._on_grid
    mats = on_grid(space, a)
    V = mats[0]
    assert len(mats) == 3 and not any(m.flags.writeable for m in mats)
    assert on_grid(space, a.copy()) is mats
    assert space._grid[0] == a.tobytes() and space._grid[1] is mats
    # two spaces never share a slot, not even on the same grid
    assert other._grid is None
    assert on_grid(other, a) is not mats
    assert other._grid[1] is not mats and space._grid[1] is mats
    on_grid(space, b)
    # the new grid evicts the old one: the slot holds one grid only
    assert space._grid[0] == b.tobytes() and space._grid[1] is not mats
    assert on_grid(space, a)[0] is not V


def test_no_search_evaluates_the_space_at_the_interval_ends():
    # the rules' targets are the space's own moments, computed from its
    # values at the ends when it was constructed
    base = exponential_space(3, UNIT)
    grids = []

    def values(x):
        grids.append(np.array(x, dtype=float))
        return base.values(x)

    space = FunctionSpace(
        UNIT, values, base.derivatives, kind=base.kind, rule=base.rule
    )
    ends = np.array([UNIT.left, UNIT.right])
    assert any(np.array_equal(x, ends) for x in grids)
    grids.clear()
    rule = find_positive_rule(space)
    find_operator(space)
    build_operator(space, rule)
    least_squares_rule(space, 7)
    assert grids and not any(np.array_equal(x, ends) for x in grids)


def test_space_slot_keeps_each_rules_own_verdict():
    # a trig rung's trapezoid and least-squares candidates share their
    # nodes; the kept grid must not carry one rule's verdict to the other
    space = trigonometric_space(3, UNIT)
    rules = [trapezoid_rule(8, UNIT), least_squares_rule(space, 8)]
    np.testing.assert_array_equal(rules[0].nodes, rules[1].nodes)
    alone = []
    for rule in rules:
        _forget_grid(space)
        alone.append(verify_exactness(rule, space))
    assert alone[0] != alone[1]
    shared = [verify_exactness(rule, space) for rule in rules * 2]
    assert shared == alone * 2
    assert space._grid[0] == rules[0].nodes.tobytes()


def test_find_operator_evaluates_the_winning_grid_once():
    base = exponential_space(3, UNIT)
    grids = {"values": [], "derivatives": []}

    def recording(name, fn):
        def wrapped(x):
            grids[name].append(np.array(x, dtype=float))
            return fn(x)

        return wrapped

    space = FunctionSpace(
        UNIT,
        recording("values", base.values),
        recording("derivatives", base.derivatives),
        kind=base.kind,
        rule=base.rule,
    )
    for grid in grids.values():
        grid.clear()
    op = find_operator(space)
    for name, grid in grids.items():
        on_winner = [x for x in grid if np.array_equal(x, op.nodes)]
        assert len(on_winner) == 1, name


def test_find_operator_logs_each_rejected_rung(caplog):
    space = literal_exponential_space(6, UNIT)
    with pytest.raises(OperatorError):
        find_operator(space)
    assert caplog.records == []  # silent by default
    caplog.set_level(logging.DEBUG, logger="sbpkit")
    with pytest.raises(OperatorError) as exc:
        find_operator(space)
    records = [r for r in caplog.records if r.name.startswith("sbpkit")]
    assert len(records) == 25
    assert all(r.levelno == logging.DEBUG for r in records)
    assert [r.args[0] for r in records] == list(range(8, 33))
    assert str(records[-1].args[1]) in str(exc.value)


@pytest.mark.parametrize(
    "kind, n_nodes, expected", [(_centers(9, UNIT), None, 17), ("exp:d=5", 64, 64)]
)
def test_least_squares_rule_matches_the_rung_of_a_search(kind, n_nodes, expected):
    space = make_space(kind, UNIT)
    op = find_operator(space, n_nodes)
    assert op.n_nodes == expected
    np.testing.assert_array_equal(least_squares_rule(space, expected).weights, op.p)


@pytest.mark.parametrize(
    "interval", [UNIT, Interval(-1.0, 1.0), Interval(0.0, np.pi)]
)
def test_find_operator_finds_the_eleven_center_rbf_space(interval):
    op = find_operator(make_space(_centers(11, interval), interval))
    assert op.n_nodes == 21
    assert verify_sbp(op).passed


@pytest.mark.parametrize(
    "kind, interval, expected",
    [
        ("exp:d=6", UNIT, 10),
        ("exp:d=5", Interval(0.0, np.pi), 10),
        ("exp:d=4", Interval(-1.0, 1.0), 9),
        ("exp:d=4", UNIT, 8),
    ],
)
def test_find_operator_finds_the_former_exp_failures(kind, interval, expected):
    # the literal columns 1, x, ..., exp(x) found none of these (exp:d=4 on
    # [0, 1] only at 24 nodes); the Legendre-plus-tail columns span the same,
    # and the Gauss-Lobatto candidate finds them on fewer nodes than the
    # equispaced one
    op = find_operator(make_space(kind, interval))
    assert op.n_nodes == expected
    assert verify_sbp(op).passed


def test_mapped_exp_space_keeps_its_gauss_lobatto_candidate():
    mapped = affine_map(make_space("exp:d=5"), Interval(2.0, 3.0))
    assert mapped.rule == "lobatto-least-squares"
    # the equispaced rule alone needs 15 nodes
    op = find_operator(mapped)
    assert op.n_nodes == 9
    np.testing.assert_array_equal(
        op.nodes, gauss_lobatto_rule(9, mapped.interval).nodes
    )


@pytest.mark.parametrize(
    "interval", [UNIT, Interval(-1.0, 1.0), Interval(0.0, np.pi)]
)
@pytest.mark.parametrize("kind", ["exp:d=1", "exp:d=2"])
def test_low_degree_exp_operators_stay_on_the_equispaced_rule(kind, interval):
    # the equispaced candidate comes first, so these operators (criterion
    # 1's golden matrix, the Burgers study's exp:d=2) keep their grids
    space = make_space(kind, interval)
    op = find_operator(space)
    rule = least_squares_rule(space, op.n_nodes)
    assert op.nodes.tobytes() == rule.nodes.tobytes()
    assert op.p.tobytes() == rule.weights.tobytes()


def test_exp_degree_nine_exhausts_the_ladder_with_its_reason():
    # on this wide interval the first rule is at 36 nodes, one past the
    # ladder (on [0, 1] the Gauss-Lobatto candidate finds one at 13)
    space = make_space("exp:d=9", Interval(0.0, 200.0))
    with pytest.raises(OperatorError) as exc:
        find_operator(space)
    assert str(exc.value) == (
        "no workable operator for 'exp:d=9' with up to 35 nodes; "
        "last: no positive exact rule for 'exp:d=9' with 35 nodes"
    )
    assert find_operator(space, 36).n_nodes == 36


_SHAPES = "inconsistent operator array shapes"


@pytest.mark.parametrize(
    "field, reshape, message",
    [
        ("p", lambda a: a[:-1], _SHAPES),
        ("Q", lambda a: a[:-1], _SHAPES),
        ("D", lambda a: a[:-1], _SHAPES),
        # one row of nodes has the right size, but is no grid
        (
            "nodes",
            lambda a: a[None, :],
            "nodes must be a 1-D array of at least 2 values, got shape (1, 3)",
        ),
    ],
    ids=["p", "Q", "D", "nodes-2d"],
)
def test_operator_refuses_inconsistent_array_shapes(field, reshape, message):
    op = find_operator(polynomial_space(2, UNIT))
    arrays = {"nodes": op.nodes, "p": op.p, "Q": op.Q, "D": op.D}
    arrays[field] = reshape(arrays[field])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FsbpOperator(space=op.space, **arrays)


@pytest.mark.parametrize(
    "nodes, message",
    [
        ([0.0, math.nan, 1.0], "nodes must be finite, got nan"),
        ([1.0, 0.5, 0.0], "nodes must be strictly increasing"),
        ([0.0, 0.5, 0.5], "nodes must be strictly increasing"),
        ([0.5], "nodes must be a 1-D array of at least 2 values, got shape (1,)"),
    ],
    ids=["nan", "reversed", "duplicate", "single"],
)
def test_operator_refuses_nodes_that_are_no_grid(nodes, message):
    # the other arrays are those of a valid 3-node operator, cut to size
    op = find_operator(polynomial_space(2, UNIT))
    n = len(nodes)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FsbpOperator(op.space, nodes, op.p[:n], op.Q[:n, :n], op.D[:n, :n])
