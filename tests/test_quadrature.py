"""Quadrature rules: closed-form families, least squares, exactness checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbpkit.quadrature
from sbpkit.operators import find_operator
from sbpkit.quadrature import (
    EXACTNESS_RTOL,
    QuadratureError,
    QuadratureRule,
    _equispaced,
    _reference_lobatto,
    find_positive_rule,
    gauss_lobatto_rule,
    least_squares_rule,
    trapezoid_rule,
    verify_exactness,
)
from sbpkit.spaces import (
    FunctionSpace,
    Interval,
    exponential_space,
    make_space,
    polynomial_space,
    rbf_cubic_space,
    trigonometric_space,
)

UNIT = Interval(0.0, 1.0)


def test_rule_validation():
    # the refusals are test_rule_refusals_keep_their_messages
    rule = QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert rule.n_nodes == 2
    # arrays are frozen after construction
    with pytest.raises(ValueError):
        rule.nodes[0] = -1.0


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "nodes, weights, message",
    [
        ([], [], "a rule needs at least two nodes"),
        ([0.0], [1.0], "a rule needs at least two nodes"),
        ([0.0, _NAN], [1.0, 1.0], "nodes and weights must be finite"),
        ([0.0, _INF], [1.0, 1.0], "nodes and weights must be finite"),
        ([-_INF, 0.0], [1.0, 1.0], "nodes and weights must be finite"),
        ([0.0, 1.0], [_NAN, 1.0], "nodes and weights must be finite"),
        ([0.0, 1.0], [1.0, -_INF], "nodes and weights must be finite"),
        ([0.0, 0.5, 0.5], [1.0, 1.0, 1.0], "nodes must be strictly increasing"),
        ([1.0, 0.0], [1.0, 1.0], "nodes must be strictly increasing"),
        ([0.0, 1.0], [1.0, 1.0, 1.0], "nodes and weights must be 1-d arrays"),
    ],
)
def test_rule_refusals_keep_their_messages(nodes, weights, message):
    with pytest.raises(ValueError, match="^" + message):
        QuadratureRule(np.array(nodes), np.array(weights))


@settings(max_examples=200, deadline=None)
@given(
    left=st.floats(-1e3, 1e3),
    width=st.floats(1e-6, 1e3),
    n=st.integers(2, 200),
)
def test_equispaced_nodes_are_linspace_byte_for_byte(left, width, n):
    iv = Interval(left, left + width)
    expected = np.linspace(iv.left, iv.right, n)
    assert _equispaced(iv, n).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 200])
@pytest.mark.parametrize(
    "iv", [Interval(0.0, np.pi), Interval(-1.0, 1.0), Interval(0.0, 5e-324)]
)
def test_equispaced_nodes_are_linspace_on_fixed_intervals(iv, n):
    # the subnormal width gives a zero step, where numpy divides first
    expected = np.linspace(iv.left, iv.right, n)
    assert _equispaced(iv, n).tobytes() == expected.tobytes()


def test_least_squares_rule_on_one_node_keeps_its_value_error():
    with pytest.raises(ValueError, match="^a rule needs at least two nodes$"):
        least_squares_rule(polynomial_space(0, UNIT), 1)


def test_exactness_report_positivity_is_a_python_bool():
    space = polynomial_space(2, UNIT)
    good = verify_exactness(gauss_lobatto_rule(3, UNIT), space)
    negative = QuadratureRule(np.array([0.0, 0.5, 1.0]), -np.ones(3))
    bad = verify_exactness(negative, space)
    assert good.positive is True
    assert bad.positive is False


def test_trapezoid_weights():
    rule = trapezoid_rule(4, UNIT)
    np.testing.assert_allclose(rule.nodes, [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)
    np.testing.assert_allclose(
        rule.weights, [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-15
    )
    np.testing.assert_allclose(trapezoid_rule(2, UNIT).weights, [0.5, 0.5])
    wide = trapezoid_rule(5, Interval(0.0, 2.0))
    np.testing.assert_allclose(wide.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
    with pytest.raises(ValueError):
        trapezoid_rule(1, UNIT)


def test_gauss_lobatto_small_cases():
    ref = Interval(-1.0, 1.0)
    two = gauss_lobatto_rule(2, ref)
    np.testing.assert_allclose(two.nodes, [-1.0, 1.0])
    np.testing.assert_allclose(two.weights, [1.0, 1.0])
    three = gauss_lobatto_rule(3, ref)
    np.testing.assert_allclose(three.nodes, [-1.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(three.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-14)
    unit3 = gauss_lobatto_rule(3, UNIT)
    np.testing.assert_allclose(unit3.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-14)
    message = "^Gauss-Lobatto rule needs at least 2 nodes, got 1$"
    with pytest.raises(ValueError, match=message):
        gauss_lobatto_rule(1, ref)


def _uncached_gauss_lobatto(n: int, interval: Interval):
    # the Golub-Welsch construction as it ran on every call before the
    # reference rule was cached: the reference for byte-identity
    k = np.arange(1.0, n - 2)
    jacobi = np.zeros((n - 2, n - 2))
    i = np.arange(n - 3)
    jacobi[i + 1, i] = jacobi[i, i + 1] = np.sqrt(
        k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    )
    ref_nodes = np.concatenate(([-1.0], np.linalg.eigvalsh(jacobi), [1.0]))
    c = np.zeros(n)
    c[-1] = 1.0
    pvals = np.polynomial.legendre.legval(ref_nodes, c)
    ref_weights = 2.0 / (n * (n - 1) * pvals**2)
    half = 0.5 * interval.width
    nodes = interval.left + half * (ref_nodes + 1.0)
    nodes[-1] = interval.right
    return nodes, half * ref_weights


@pytest.mark.parametrize(
    "interval",
    [Interval(-1.0, 1.0), UNIT, Interval(0.0, math.pi), Interval(1e5, 1e5 + 1)],
    ids=["reference", "unit", "pi", "far"],
)
def test_gauss_lobatto_rule_is_the_uncached_construction_byte_for_byte(interval):
    for n in range(2, 81):
        nodes, weights = _uncached_gauss_lobatto(n, interval)
        # twice, so that the second call is served from the cache
        for _ in range(2):
            rule = gauss_lobatto_rule(n, interval)
            assert rule.nodes.tobytes() == nodes.tobytes(), n
            assert rule.weights.tobytes() == weights.tobytes(), n


def test_gauss_lobatto_reference_rule_is_read_only_and_computed_once(monkeypatch):
    for n in (2, 3, 9, 64):
        for array in _reference_lobatto(n):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    gauss_lobatto_rule(11, UNIT)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    wide = gauss_lobatto_rule(11, Interval(-2.0, 5.0))
    assert calls == []
    assert wide.nodes[0] == -2.0 and wide.nodes[-1] == 5.0
    # the rule's own arrays are new ones, not the cached reference
    assert not np.shares_memory(wide.weights, _reference_lobatto(11)[1])


def test_gauss_lobatto_monomial_exactness():
    """An n-node rule integrates monomials up to degree 2n - 3."""
    for n in (2, 3, 4, 6, 9, 13, 41, 64):
        rule = gauss_lobatto_rule(n, UNIT)
        assert np.all(rule.weights > 0.0)
        for j in range(2 * n - 2):
            approx = float(rule.weights @ rule.nodes**j)
            assert approx == pytest.approx(1.0 / (j + 1), abs=1e-12), (n, j)


def test_least_squares_recovers_known_weights():
    space = exponential_space(2, UNIT)
    rule = least_squares_rule(space, 5)
    np.testing.assert_allclose(
        rule.weights, [0.08, 0.36, 0.12, 0.36, 0.08], atol=5e-3
    )
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_least_squares_constant_space_gives_uniform_weights():
    rule = least_squares_rule(polynomial_space(0, UNIT), 2)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)


def test_least_squares_radial_weights():
    space = rbf_cubic_space([0.0, 0.5, 1.0], UNIT)
    rule = least_squares_rule(space, 4)
    np.testing.assert_allclose(
        rule.weights, [16 / 129, 81 / 215, 81 / 215, 16 / 129], atol=1e-6
    )


def test_least_squares_evaluates_the_space_only_on_its_nodes():
    base = make_space("trig:d=20", UNIT)
    rows = {"values": [], "derivatives": []}

    def counting(name, fn):
        def wrapped(x):
            rows[name].append(len(x))
            return fn(x)

        return wrapped

    space = FunctionSpace(
        UNIT,
        counting("values", base.values),
        counting("derivatives", base.derivatives),
        kind=base.kind,
        rule=base.rule,
    )
    for calls in rows.values():
        calls.clear()
    least_squares_rule(space, 50)
    # the 50 nodes only: the pair moments were computed at construction
    assert rows["values"] == [50]
    assert rows["derivatives"] == [50]


def test_least_squares_requires_enough_nodes():
    with pytest.raises(ValueError):
        least_squares_rule(exponential_space(2, UNIT), 2)


def test_least_squares_detects_unreachable_exactness():
    # four centers force ten pair constraints on four weights; the
    # equidistant grid cannot satisfy them all
    space = rbf_cubic_space([0.0, 1 / 3, 2 / 3, 1.0], UNIT)
    report = verify_exactness(least_squares_rule(space, 4), space)
    assert report.exact is False
    assert report.max_scaled_residual > EXACTNESS_RTOL


def test_verify_exactness_trapezoid_on_trig():
    report = verify_exactness(trapezoid_rule(4, UNIT), trigonometric_space(1, UNIT))
    assert report.max_scaled_residual <= 1e-12
    assert report.positive
    assert report.ok


def test_verify_exactness_flags_inexact_rule():
    # two nodes integrate products of linear functions but not those of
    # quadratics
    report = verify_exactness(trapezoid_rule(2, UNIT), polynomial_space(2, UNIT))
    assert not report.exact
    assert report.max_scaled_residual > EXACTNESS_RTOL


def test_verify_exactness_constant_space_is_trivially_exact():
    report = verify_exactness(trapezoid_rule(3, UNIT), polynomial_space(0, UNIT))
    assert report.max_scaled_residual == pytest.approx(0.0, abs=1e-15)


def test_verify_exactness_rejects_interval_mismatch():
    rule = trapezoid_rule(4, Interval(0.0, 2.0))
    with pytest.raises(ValueError):
        verify_exactness(rule, trigonometric_space(1, UNIT))


def test_find_positive_rule_prefers_closed_forms():
    trig = find_positive_rule(trigonometric_space(1, UNIT))
    assert trig.n_nodes == 4
    np.testing.assert_allclose(trig.weights, [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-14)
    poly = find_positive_rule(polynomial_space(1, UNIT))
    assert poly.n_nodes == 2
    np.testing.assert_allclose(poly.weights, [0.5, 0.5], atol=1e-14)


def test_find_positive_rule_exponential_ladder():
    rule = find_positive_rule(exponential_space(2, UNIT))
    assert rule.n_nodes == 5
    np.testing.assert_allclose(
        rule.weights, [0.08, 0.36, 0.12, 0.36, 0.08], atol=5e-3
    )
    report = verify_exactness(rule, exponential_space(2, UNIT))
    assert report.ok


@pytest.mark.parametrize(
    "builder, space",
    [
        ("trapezoid_rule", trigonometric_space(2, UNIT)),
        ("gauss_lobatto_rule", polynomial_space(4, UNIT)),
        ("least_squares_rule", exponential_space(2, UNIT)),
    ],
)
def test_find_positive_rule_returns_the_candidate_itself(monkeypatch, builder, space):
    made = []
    original = getattr(sbpkit.quadrature, builder)

    def recording(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(sbpkit.quadrature, builder, recording)
    rule = find_positive_rule(space)
    assert rule is made[-1]


def test_find_positive_rule_reports_failure_at_pinned_count():
    space = exponential_space(5, UNIT)
    with pytest.raises(QuadratureError) as exc:
        find_positive_rule(space, 8)
    # a pinned search names its one count, an exhausted ladder its range
    assert str(exc.value) == "no positive exact rule for 'exp:d=5' with 8 nodes"
    with pytest.raises(QuadratureError) as exc:
        find_positive_rule(exponential_space(9, Interval(0.0, 200.0)))
    assert str(exc.value) == "no positive exact rule for 'exp:d=9' with 11..35 nodes"


def test_find_positive_rule_rejects_bad_start():
    with pytest.raises(ValueError):
        find_positive_rule(polynomial_space(1, UNIT), 1)


NODE_COUNT_ENTRY_POINTS = {
    "trapezoid_rule": lambda n: trapezoid_rule(n, UNIT),
    "gauss_lobatto_rule": lambda n: gauss_lobatto_rule(n, UNIT),
    "least_squares_rule": lambda n: least_squares_rule(exponential_space(2, UNIT), n),
    "ladder_n_nodes": lambda n: find_operator(exponential_space(2, UNIT), n),
    "ladder_n_start": lambda n: find_positive_rule(exponential_space(2, UNIT), n),
}


@pytest.mark.parametrize("name", sorted(NODE_COUNT_ENTRY_POINTS))
def test_node_counts_with_a_fractional_part_are_refused(name):
    entry = NODE_COUNT_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="whole number, got 7.5"):
        entry(7.5)
    with pytest.raises(ValueError, match="whole number, got 6.7"):
        entry(np.float64(6.7))
    # booleans are not counts, although True == 1
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="whole number, got True"):
            entry(flag)
    # int and numpy-integer counts are taken as they are
    assert entry(np.int64(7)).nodes.tobytes() == entry(7).nodes.tobytes()


def test_weights_sum_to_interval_width():
    # for these families some pair of basis elements has product derivative
    # equal to a nonzero constant, which pins the weight sum to the width;
    # radial cardinal products span no linear function, so that family is
    # exempt (its known three-center weights sum to 646/645)
    iv = Interval(0.0, 2.0)
    for text in ("poly:d=3", "trig:d=2", "exp:d=2"):
        rule = find_positive_rule(make_space(text, iv))
        assert rule.weights.sum() == pytest.approx(iv.width, abs=1e-10), text


def test_gauss_lobatto_affine_covariance():
    ref = gauss_lobatto_rule(5, UNIT)
    wide = gauss_lobatto_rule(5, Interval(1.0, 4.0))
    np.testing.assert_allclose(wide.nodes, 1.0 + 3.0 * ref.nodes, atol=1e-13)
    np.testing.assert_allclose(wide.weights, 3.0 * ref.weights, atol=1e-13)
