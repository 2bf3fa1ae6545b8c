"""Function space construction, evaluation and boundary product moments."""

from __future__ import annotations

import dataclasses
import inspect
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial import legendre

from sbpkit.operators import find_operator, verify_sbp
from sbpkit.spaces import (
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
    _pair_products,
)

from literal_exp import literal_exponential_space


def test_interval_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    # an int too large for a float is no finite end either
    for left, right, end in ((0, 10**400, "right"), (-(10**400), 0, "left")):
        message = f"^interval {end} end must be a finite real number, got -?10{{400}}$"
        with pytest.raises(ValueError, match=message):
            Interval(left, right)
    iv = Interval(-2.0, 3.0)
    assert iv.width == 5.0
    assert iv.contains([-2.0, 0.0, 3.0])
    assert not iv.contains(3.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_interval_refuses_non_finite_points(bad):
    iv = Interval(-2.0, 3.0)
    assert not iv.contains(bad)
    assert not iv.contains([0.0, bad, 1.0])


def test_interval_accepts_empty_scalar_and_2d_inputs():
    iv = Interval(-2.0, 3.0)
    assert iv.contains([])
    assert iv.contains(np.empty((0, 3)))
    assert iv.contains(np.float64(1.0))
    assert iv.contains([[-2.0, 0.0], [1.0, 3.0]])
    assert not iv.contains([[-2.0, 0.0], [1.0, 4.0]])


def test_interval_slack_is_relative_to_the_width():
    iv = Interval(-2.0, 3.0)
    inside, outside = 0.5e-12 * iv.width, 2e-12 * iv.width
    assert iv.contains([iv.left - inside, iv.right + inside])
    assert not iv.contains(iv.left - outside)
    assert not iv.contains(iv.right + outside)


def test_vandermonde_grid_check_on_empty_and_nan_grids():
    space = polynomial_space(3, Interval(0.0, 1.0))
    assert vandermonde(space, []).shape == (0, space.dim)
    with pytest.raises(ValueError, match="outside interval"):
        vandermonde(space, [math.nan])
    with pytest.raises(ValueError, match="outside interval"):
        vandermonde_derivative(space, [0.5, math.inf])


def test_space_dimensions():
    iv = Interval(0.0, 1.0)
    assert polynomial_space(0, iv).dim == 1
    assert polynomial_space(3, iv).dim == 4
    assert trigonometric_space(1, iv).dim == 3
    assert trigonometric_space(4, iv).dim == 9
    assert exponential_space(2, iv).dim == 3
    assert rbf_cubic_space([0.0, 0.5, 1.0], iv).dim == 3


def test_all_builtin_spaces_contain_constants():
    iv = Interval(0.0, 1.0)
    spaces = [
        polynomial_space(2, iv),
        trigonometric_space(2, iv),
        exponential_space(2, iv),
        rbf_cubic_space([0.0, 0.25, 0.75, 1.0], iv),
    ]
    spaces += [affine_map(space, Interval(-1.0, 2.0)) for space in spaces]
    for space in spaces:
        assert space.contains_constants
        # the constant must actually lie in the span on a sample grid
        x = np.linspace(space.interval.left, space.interval.right, 17)
        V = vandermonde(space, x)
        coef, *_ = np.linalg.lstsq(V, np.ones_like(x), rcond=None)
        assert np.max(np.abs(V @ coef - 1.0)) < 1e-10


def test_trig_vandermonde_row_at_zero():
    space = trigonometric_space(1, Interval(0.0, 1.0))
    row = vandermonde(space, [0.0])[0]
    np.testing.assert_allclose(row, [1.0, 0.0, 1.0], atol=1e-15)


def test_exp_vandermonde_row_at_one():
    space = literal_exponential_space(2, Interval(0.0, 1.0))
    row = vandermonde(space, [1.0])[0]
    np.testing.assert_allclose(row, [1.0, 1.0, math.e], rtol=1e-15)


def test_vandermonde_rejects_points_outside_interval():
    space = polynomial_space(2, Interval(0.0, 1.0))
    with pytest.raises(ValueError):
        vandermonde(space, [0.0, 1.5])
    with pytest.raises(ValueError):
        vandermonde_derivative(space, [-0.2])


def test_vandermonde_takes_one_point_as_a_one_node_grid():
    space = exponential_space(3, Interval(0.0, 1.0))
    for matrix in (vandermonde, vandermonde_derivative):
        assert matrix(space, 0.25).tobytes() == matrix(space, [0.25]).tobytes()
        assert matrix(space, np.float64(0.25)).shape == (1, space.dim)
    with pytest.raises(ValueError, match="^grid must be one-dimensional$"):
        vandermonde(space, [[0.25, 0.5]])


def test_rbf_cardinal_property():
    """Each radial basis element is one at its own center, zero at the others."""
    centers = [0.0, 0.3, 0.7, 1.0]
    space = rbf_cubic_space(centers, Interval(0.0, 1.0))
    V = vandermonde(space, centers)
    np.testing.assert_allclose(V, np.eye(4), atol=1e-12)


def test_rbf_partition_of_unity():
    space = rbf_cubic_space([0.0, 0.5, 1.0], Interval(0.0, 1.0))
    x = np.linspace(0.0, 1.0, 101)
    total = vandermonde(space, x).sum(axis=1)
    assert np.max(np.abs(total - 1.0)) < 1e-10


def test_rbf_three_center_closed_form():
    # with centers {0, 1/2, 1} the first cardinal function is
    # |x|^3/2 - 2|x-1/2|^3 + 3|x-1|^3/2 - 1/4
    space = rbf_cubic_space([0.0, 0.5, 1.0], Interval(0.0, 1.0))
    x = np.linspace(0.0, 1.0, 33)
    expected = (
        0.5 * np.abs(x) ** 3
        - 2.0 * np.abs(x - 0.5) ** 3
        + 1.5 * np.abs(x - 1.0) ** 3
        - 0.25
    )
    got = vandermonde(space, x)[:, 0]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_constructor_rejects_bad_parameters():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        polynomial_space(-1, iv)
    with pytest.raises(ValueError):
        trigonometric_space(0, iv)
    with pytest.raises(ValueError):
        exponential_space(0, iv)
    # a fractional degree is refused, not truncated, and a boolean is no count
    for builder in (polynomial_space, trigonometric_space, exponential_space):
        for degree in (2.5, True, np.True_):
            with pytest.raises(ValueError, match="degree must be a whole number"):
                builder(degree, iv)
    with pytest.raises(ValueError):
        rbf_cubic_space([0.0], iv)
    with pytest.raises(ValueError):
        rbf_cubic_space([0.0, 0.5, 0.5, 1.0], iv)
    with pytest.raises(ValueError):
        # endpoints of the interval must be among the centers
        rbf_cubic_space([0.1, 0.5, 1.0], iv)


def test_rbf_centers_are_sorted_and_must_be_flat():
    iv = Interval(0.0, 1.0)
    assert rbf_cubic_space([1.0, 0.0, 0.5], iv).kind == "rbf-cubic:centers=0,0.5,1"
    flat = "radial centers must be a flat list of numbers"
    with pytest.raises(ValueError, match=flat + ", got shape \\(2, 2\\)"):
        rbf_cubic_space([[0.0, 1.0], [0.5, 1.0]], iv)
    ragged = "^radial centers must hold real numbers, got a ragged list$"
    with pytest.raises(ValueError, match=ragged):
        rbf_cubic_space([[0.0, 1.0], [0.5]], iv)


def test_rbf_refuses_centers_too_close_to_solve_for():
    # 1e-120 is distinct from 0, but its cubed distances vanish beside 1,
    # so two rows of the interpolation system coincide
    with pytest.raises(ValueError, match="^singular radial interpolation system: "):
        rbf_cubic_space([0.0, 1e-120, 1.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: rbf_cubic_space([-1, 0.5, 1]),
            "radial centers must lie inside the interval",
        ),
        (
            lambda: make_space("rbf-cubic:c=0,1"),
            "rbf-cubic takes a single parameter centers",
        ),
        (
            lambda: make_space("rbf-cubic:centers=0,a,1"),
            "malformed center list '0,a,1'",
        ),
    ],
    ids=["outside", "parameter", "center-text"],
)
def test_rbf_refusals_name_their_reason(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_an_all_zero_basis_is_refused_with_its_rank():
    zero = lambda x: np.zeros((np.size(x), 2))
    with pytest.raises(ValueError) as exc:
        FunctionSpace(Interval(0.0, 1.0), zero, zero, kind="zero")
    assert str(exc.value) == (
        "basis of kind 'zero' is numerically linearly dependent (rank 0 < 2)"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda iv: rbf_cubic_space([0.0, math.nan, 1.0], iv),
        lambda iv: rbf_cubic_space([math.nan, 0.0, 1.0], iv),
        lambda iv: make_space("rbf-cubic:centers=0,nan,1", iv),
    ],
    ids=["middle", "first", "text"],
)
def test_rbf_refuses_a_nan_center_by_name(build):
    # the sort puts a NaN last, where the distinctness and interval checks
    # would blame the wrong property
    with pytest.raises(ValueError, match=r"^radial centers must be finite, got nan$"):
        build(Interval(0.0, 1.0))


@pytest.mark.parametrize("text, shown", [("inf", "inf"), ("-inf", "-inf")])
def test_rbf_refuses_an_infinite_center_by_name(text, shown):
    message = rf"^radial centers must be finite, got {shown}$"
    with pytest.raises(ValueError, match=message):
        make_space(f"rbf-cubic:centers=0,{text},1", Interval(0.0, 1.0))


@pytest.mark.parametrize(
    "left, right, message",
    [
        ("0", "1", "interval left end must be a finite real number, got '0'"),
        (None, 1, "interval left end must be a finite real number, got None"),
        (1j, 2, "interval left end must be a finite real number, got 1j"),
        (
            0,
            np.complex128(1 + 2j),
            "interval right end must be a finite real number, "
            "got np.complex128(1+2j)",
        ),
        (True, 2, "interval left end must be a number, got True"),
        (0, np.True_, "interval right end must be a number, got True"),
        (False, True, "interval left end must be a number, got False"),
    ],
    ids=["text", "none", "complex", "numpy-complex", "bool", "numpy-bool", "bools"],
)
def test_interval_refuses_ends_that_are_not_real_numbers(left, right, message):
    with pytest.raises(ValueError) as exc:
        Interval(left, right)
    assert str(exc.value) == message


def test_interval_stores_its_ends_as_floats():
    for iv in (Interval(0, 2), Interval(np.int64(-1), np.float32(0.5))):
        assert type(iv.left) is float and type(iv.right) is float
    assert (Interval(0, 2).left, Interval(0, 2).right) == (0.0, 2.0)


def test_interval_refuses_a_width_that_overflows():
    with pytest.raises(ValueError, match="interval width overflows"):
        Interval(-1e308, 1e308)
    assert Interval(-8e307, 8e307).width == 1.6e308


@pytest.mark.parametrize(
    "spec", ["poly:d=2", "trig:d=1", "rbf-cubic:centers=-1e308,0,1e308"]
)
def test_spaces_on_an_overflowing_interval_fail_for_that_reason(spec):
    # before the interval refused it, each space failed for another reason:
    # non-finite values, or a numpy overflow warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^interval width overflows: "):
            make_space(spec, Interval(-1e308, 1e308))
    assert caught == []


_HUGE = Interval(1e308, 1.7e308)


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            "poly:d=2",
            r"^polynomial space: the map of \[1e\+308, 1\.7e\+308\] onto "
            r"\[-1, 1\] overflows, since twice an end is not a finite number$",
        ),
        (
            "exp:d=2",
            r"^exponential space: the midpoint of \[1e\+308, 1\.7e\+308\] "
            r"overflows, since left \+ right is not a finite number$",
        ),
        (
            "rbf-cubic:centers=1e308,1.7e308",
            r"^radial centers spread over 6\.999999999999999e\+307, whose cube "
            r"in the kernel \|x - c\|\*\*3 is not a finite number$",
        ),
    ],
    ids=["poly", "exp", "rbf-cubic"],
)
def test_spaces_on_a_huge_finite_interval_name_their_overflow(spec, message):
    # the width is finite, but twice an end (poly), the sum of the ends
    # (exp) or the cubed spread (rbf-cubic) is not; before, poly and exp
    # blamed "values of column 0" and rbf-cubic raised numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            make_space(spec, _HUGE)


def test_trig_on_a_huge_finite_interval_still_builds():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        space = make_space("trig:d=1", _HUGE)
        op = find_operator(space)
    assert space.dim == 3
    assert verify_sbp(op).passed


def test_overflow_guards_leave_wide_spaces_that_build():
    # twice 8e307 and the cube of 5.6e102 are still finite
    assert polynomial_space(2, Interval(0.0, 8e307)).dim == 3
    assert rbf_cubic_space([0.0, 5.6e102], Interval(0.0, 5.6e102)).dim == 2
    with pytest.raises(ValueError, match="whose cube in the kernel"):
        rbf_cubic_space([0.0, 1e103], Interval(0.0, 1e103))


def _vander_product(space, which):
    # the former exp evaluation: np.vander(s) @ C, then the far-field tail
    fn = getattr(space, which)
    outer = inspect.getclosurevars(fn).nonlocals
    coefs = outer["C"] if which == "values" else outer["Cx"]
    taylor_terms = outer["degree"] - (which == "derivatives")
    inner = inspect.getclosurevars(outer["product"]).nonlocals
    c, h, degree, total = inner["c"], inner["h"], inner["degree"], inner["total"]

    def product(x):
        t = np.asarray(x, dtype=float) - c
        out = np.vander(t / h, len(coefs), increasing=True) @ coefs
        far = t < inner["far_field"]
        if far.any():
            tf = t[far]
            taylor = sum(tf**k / math.factorial(k) for k in range(taylor_terms))
            log_norm = math.lgamma(degree + 1) - degree * math.log(h) - math.log(total)
            out[far, degree] = math.exp(log_norm) * (np.exp(tf) - taylor)
        return out

    return product


@pytest.mark.parametrize("degree", range(1, 18))
@pytest.mark.parametrize(
    "iv", [Interval(0.0, 1.0), Interval(-1.0, 1.0), Interval(-40.0, 40.0)]
)
def test_exp_columns_equal_the_vander_product_bit_for_bit(degree, iv):
    space = exponential_space(degree, iv)
    x = np.linspace(iv.left, iv.right, 301)
    if iv.width > 2.0 * (degree + 1):
        # the far field, left of the midpoint by more than degree + 1
        assert np.count_nonzero(x - 0.5 * (iv.left + iv.right) < -(degree + 1.0))
    for which in ("values", "derivatives"):
        expected = _vander_product(space, which)(x)
        assert getattr(space, which)(x).tobytes() == expected.tobytes()


def test_exp_one_power_column_equals_the_vander_product_bit_for_bit():
    # so narrow that the tail is one term: the derivative has one power
    space = exponential_space(1, Interval(0.0, 1e-19))
    assert inspect.getclosurevars(space.derivatives).nonlocals["Cx"].shape[0] == 1
    x = np.array([0.0, 3e-20, 1e-19])
    for which in ("values", "derivatives"):
        expected = _vander_product(space, which)(x)
        assert getattr(space, which)(x).tobytes() == expected.tobytes()


def test_make_space_grammar():
    iv = Interval(0.0, 2.0)
    assert make_space("poly:d=3", iv).dim == 4
    assert make_space("trig:d=2", iv).dim == 5
    assert make_space("exp:d=1", iv).dim == 2
    assert make_space("rbf-cubic:centers=0,1,2", iv).dim == 3
    for bad in ("poly", "poly:3", "poly:k=3", "poly:d=x", "splines:d=2", ""):
        with pytest.raises(ValueError):
            make_space(bad, iv)


def test_analytic_derivatives_match_finite_differences():
    """Stored derivatives agree with central differences for every family."""
    rng = np.random.default_rng(20240817)
    specs = [
        ("poly:d=4", Interval(0.0, 1.0)),
        ("trig:d=2", Interval(0.0, 2.0)),
        ("exp:d=3", Interval(-1.0, 1.0)),
        ("rbf-cubic:centers=0,0.4,1", Interval(0.0, 1.0)),
    ]
    for text, iv in specs:
        space = make_space(text, iv)
        margin = 0.05 * iv.width
        x = rng.uniform(iv.left + margin, iv.right - margin, size=100)
        h = 1e-6 * iv.width
        exact = vandermonde_derivative(space, x)
        approx = (vandermonde(space, x + h) - vandermonde(space, x - h)) / (2 * h)
        assert np.max(np.abs(approx - exact)) < 1e-4 * (1.0 + np.max(np.abs(exact)))


def test_space_moments_of_the_literal_exp_columns():
    space = literal_exponential_space(2, Interval(0.0, 1.0))
    # pairs in order (0,0), (0,1), (0,2), (1,1), (1,2), (2,2)
    # elements are 1, x, exp(x); the (x, x) product jumps by 1 over [0, 1]
    assert space.moments[3] == pytest.approx(1.0)
    # (1, exp) jumps by e - 1
    assert space.moments[2] == pytest.approx(math.e - 1.0)


def test_space_moments_of_periodic_pairs_vanish():
    space = trigonometric_space(1, Interval(0.0, 1.0))
    # sin and cos of the base frequency take equal values at both ends
    assert space.moments[4] == pytest.approx(0.0, abs=1e-15)  # (sin, cos)
    assert space.moments[3] == pytest.approx(0.0, abs=1e-15)  # (sin, sin)


def _pair_rows(space, grid):
    return _pair_products(
        vandermonde(space, grid), vandermonde_derivative(space, grid), space.dim
    )


def test_pair_rows_constant_space():
    space = polynomial_space(0, Interval(0.0, 1.0))
    rows = _pair_rows(space, np.linspace(0.0, 1.0, 5))
    assert rows.shape == (1, 5)
    np.testing.assert_allclose(rows, 0.0, atol=1e-15)
    np.testing.assert_allclose(space.moments, [0.0], atol=1e-15)


def test_pair_rows_monomial_pair():
    # for elements 1, x, exp(x) the (x, x) row is (x^2)' = 2x with moment 1
    space = literal_exponential_space(2, Interval(0.0, 1.0))
    grid = np.array([0.0, 1.0])
    rows = _pair_rows(space, grid)
    assert rows.shape == (6, 2)
    idx = 3  # pairs in order (0,0), (0,1), (0,2), (1,1), (1,2), (2,2)
    np.testing.assert_allclose(rows[idx], [0.0, 2.0], atol=1e-14)
    assert space.moments[idx] == pytest.approx(1.0)


def test_pair_rows_match_product_rule():
    """Each row equals the derivative of the corresponding product."""
    space = trigonometric_space(1, Interval(0.0, 1.0))
    x = np.linspace(0.05, 0.95, 21)
    rows = _pair_rows(space, x)
    h = 1e-6
    Vp = vandermonde(space, x + h)
    Vm = vandermonde(space, x - h)
    pairs = [(k, l) for k in range(space.dim) for l in range(k, space.dim)]
    for row, (k, l) in zip(rows, pairs):
        fd = (Vp[:, k] * Vp[:, l] - Vm[:, k] * Vm[:, l]) / (2 * h)
        np.testing.assert_allclose(row, fd, atol=1e-4)


@pytest.mark.parametrize(
    "kind", ["poly:d=6", "trig:d=3", "exp:d=4", "rbf-cubic:centers=0,0.3,0.6,1"]
)
def test_pair_helpers_equal_the_per_pair_loop(kind):
    space = make_space(kind, Interval(0.0, 1.0))
    x = np.linspace(0.0, 1.0, 17)
    V = vandermonde(space, x)
    Vx = vandermonde_derivative(space, x)
    ends = space.values(np.array([0.0, 1.0]))
    pairs = [(k, l) for k in range(space.dim) for l in range(k, space.dim)]
    rows = [Vx[:, k] * V[:, l] + V[:, k] * Vx[:, l] for k, l in pairs]
    moments = [ends[1, k] * ends[1, l] - ends[0, k] * ends[0, l] for k, l in pairs]
    assert np.array_equal(_pair_products(V, Vx, space.dim), np.array(rows))
    assert np.array_equal(space.moments, np.array(moments))


MOMENT_SPACES = {
    "poly": lambda: make_space("poly:d=5", Interval(-1.0, 2.0)),
    "trig": lambda: make_space("trig:d=3", Interval(0.0, np.pi)),
    "exp": lambda: make_space("exp:d=4", Interval(0.0, 3.0)),
    "rbf-cubic": lambda: make_space("rbf-cubic:centers=0,0.3,0.6,1"),
    "mapped": lambda: affine_map(make_space("exp:d=3"), Interval(-2.0, 5.0)),
    "user": lambda: FunctionSpace(
        Interval(0.0, 1.0), _sine_values, _sine_derivatives, kind="sine"
    ),
}


@pytest.mark.parametrize("build", MOMENT_SPACES.values(), ids=list(MOMENT_SPACES))
def test_space_moments_are_the_boundary_products(build):
    space = build()
    iv = space.interval
    V = space.values(np.array([iv.left, iv.right]))
    k, l = np.triu_indices(space.dim)
    expected = V[1, k] * V[1, l] - V[0, k] * V[0, l]
    assert space.moments.dtype == expected.dtype
    assert space.moments.tobytes() == expected.tobytes()
    assert not space.moments.flags.writeable
    with pytest.raises(ValueError):
        space.moments[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.moments = expected


def test_space_moments_leave_equality_hash_and_repr_alone():
    space = make_space("exp:d=3", Interval(0.0, 2.0))
    twin = dataclasses.replace(space)
    assert twin == space and hash(twin) == hash(space)
    assert twin.moments is not space.moments
    compared = (
        space.interval, space.values, space.derivatives, space.kind, space.rule,
        space.dim, space.contains_constants,
    )
    assert hash(space) == hash(compared)
    assert "moments" not in repr(space)


def test_affine_map_preserves_values_and_scales_derivatives():
    src = trigonometric_space(1, Interval(0.0, 1.0))
    mapped = affine_map(src, Interval(2.0, 4.0))
    assert mapped.interval == Interval(2.0, 4.0)
    assert mapped.kind == "mapped(trig:d=1)"
    assert mapped.rule == src.rule == "trapezoid"
    assert mapped.contains_constants
    # values are transported along the chart, derivatives divide by the
    # width ratio s = 2
    x = np.linspace(2.0, 4.0, 9)
    xi = (x - 2.0) / 2.0
    np.testing.assert_allclose(
        vandermonde(mapped, x), vandermonde(src, xi), atol=1e-14
    )
    np.testing.assert_allclose(
        vandermonde_derivative(mapped, x),
        vandermonde_derivative(src, xi) / 2.0,
        atol=1e-14,
    )


# ---------------------------------------------------------------------------
# whole-matrix evaluation against the per-column formulas


def _poly_columns(degree, iv, x):
    a, b = iv.left, iv.right
    t = (2.0 * x - (a + b)) / (b - a)
    vals, ders = [], []
    for k in range(degree + 1):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        vals.append(legendre.legval(t, coef))
        ders.append(2.0 / (b - a) * legendre.legval(t, legendre.legder(coef)))
    return np.column_stack(vals), np.column_stack(ders)


def _trig_columns(degree, iv, x):
    omega = 2.0 * np.pi / iv.width
    vals, ders = [np.ones_like(x)], [np.zeros_like(x)]
    for k in range(1, degree + 1):
        wk = k * omega
        vals += [np.sin(wk * x), np.cos(wk * x)]
        ders += [wk * np.cos(wk * x), -wk * np.sin(wk * x)]
    return np.column_stack(vals), np.column_stack(ders)


def _exp_columns(degree, iv, x):
    # Legendre columns in s = (x - c)/h, then the tail of exp about the
    # midpoint c over its value at the right end, T(t)/T(h) with
    # T(t) = exp(t) minus its Taylor part up to t**(degree-1): evaluated
    # here as that difference in 60-digit decimals, where it cancels
    # harmlessly
    c, h = 0.5 * (iv.left + iv.right), 0.5 * iv.width
    s = (x - c) / h
    vals, ders = [], []
    for k in range(degree):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        vals.append(legendre.legval(s, coef))
        ders.append(legendre.legval(s, legendre.legder(coef)) / h)

    def tail(m, t):
        rest, term = t.exp(), Decimal(1)
        for k in range(m):
            rest -= term
            term *= t / (k + 1)
        return rest

    with localcontext() as ctx:
        ctx.prec = 60
        t = [Decimal(v) - Decimal(c) for v in x]
        norm = tail(degree, Decimal(h))
        vals.append(np.array([float(tail(degree, u) / norm) for u in t]))
        # T' is the tail from degree - 1 on
        ders.append(np.array([float(tail(degree - 1, u) / norm) for u in t]))
    return np.column_stack(vals), np.column_stack(ders)


def _assert_close_per_column(got, want, rtol):
    # each column to rtol times its largest entry
    assert np.all(np.abs(got - want) <= rtol * np.max(np.abs(want), axis=0))


def _rbf_columns(centers, iv, x):
    c = np.asarray(centers, dtype=float)
    m = c.size
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = np.abs(c[:, None] - c[None, :]) ** 3
    A[:m, m] = 1.0
    A[m, :m] = 1.0
    coef = np.linalg.solve(A, np.vstack([np.eye(m), np.zeros((1, m))]))
    s = x[:, None] - c
    vals = [np.abs(s) ** 3 @ coef[:m, i] + coef[m, i] for i in range(m)]
    ders = [(3.0 * s * np.abs(s)) @ coef[:m, i] for i in range(m)]
    return np.column_stack(vals), np.column_stack(ders)


@pytest.mark.parametrize("iv", [Interval(0.0, 1.0), Interval(-1.0, 2.0)])
@pytest.mark.parametrize(
    "family, arg",
    [("poly", 0), ("poly", 7), ("poly", 40), ("trig", 1), ("trig", 4), ("exp", 1),
     ("exp", 4), ("rbf", 3), ("rbf", 6)],
)
def test_vandermonde_equals_the_per_column_formulas(family, arg, iv):
    x = np.concatenate([[iv.left, iv.right], np.linspace(iv.left, iv.right, 33)])
    if family == "rbf":
        centers = np.linspace(iv.left, iv.right, arg)
        space = rbf_cubic_space(centers, iv)
        V, Vx = _rbf_columns(centers, iv, x)
    else:
        builder, columns = {
            "poly": (polynomial_space, _poly_columns),
            "trig": (trigonometric_space, _trig_columns),
            "exp": (exponential_space, _exp_columns),
        }[family]
        space = builder(arg, iv)
        V, Vx = columns(arg, iv, x)
    assert space.dim == V.shape[1]
    if family == "exp":
        # one product against per-column sums and a 60-digit tail
        _assert_close_per_column(vandermonde(space, x), V, 1e-15)
        _assert_close_per_column(vandermonde_derivative(space, x), Vx, 1e-15)
    elif family == "rbf":
        np.testing.assert_allclose(vandermonde(space, x), V, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            vandermonde_derivative(space, x), Vx, rtol=0, atol=1e-12
        )
    else:
        assert np.array_equal(vandermonde(space, x), V)
        assert np.array_equal(vandermonde_derivative(space, x), Vx)


@pytest.mark.parametrize(
    "iv", [Interval(0.0, 1.0), Interval(-1.0, 1.0), Interval(0.0, np.pi)]
)
@pytest.mark.parametrize("degree", range(1, 9))
def test_exp_columns_span_the_monomials_and_exp(degree, iv):
    # one set of coefficients carries the columns onto 1, x, ..., exp(x)
    # and their derivatives onto the derivatives of those
    space = exponential_space(degree, iv)
    literal = literal_exponential_space(degree, iv)
    x = np.linspace(iv.left, iv.right, 257)
    V = vandermonde(space, x)
    target = vandermonde(literal, x)
    coef, *_ = np.linalg.lstsq(V, target, rcond=None)
    for got, want in (
        (V @ coef, target),
        (vandermonde_derivative(space, x) @ coef, vandermonde_derivative(literal, x)),
    ):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "iv",
    [Interval(0.0, 0.25), Interval(0.0, np.pi), Interval(0.0, 30.0),
     Interval(-40.0, 10.0), Interval(700.0, 712.0)],
)
@pytest.mark.parametrize("degree", [1, 2, 5, 8])
def test_exp_columns_match_a_60_digit_reference(degree, iv):
    # [0, 30] and [-40, 10] reach far below t = -(degree + 1), where the
    # tail is exp minus its Taylor part; exp(x) overflows on [700, 712]
    x = np.concatenate([[iv.left, iv.right], np.linspace(iv.left, iv.right, 65)])
    space = exponential_space(degree, iv)
    V, Vx = _exp_columns(degree, iv, x)
    # the power form of P_7 loses a digit against its Clenshaw sum
    _assert_close_per_column(vandermonde(space, x), V, 1e-14)
    _assert_close_per_column(vandermonde_derivative(space, x), Vx, 1e-14)


@pytest.mark.parametrize("left", [-745.0, 709.0, 710.0])
def test_exp_columns_do_not_depend_on_where_the_interval_lies(left):
    # exp(x) under- or overflows on these intervals, the columns do not
    x = np.linspace(0.0, 1.0, 33)
    here = exponential_space(3, Interval(left, left + 1.0))
    np.testing.assert_allclose(
        vandermonde(here, left + x), vandermonde(exponential_space(3), x),
        rtol=0, atol=1e-12,
    )


@pytest.mark.parametrize(
    "degree, iv",
    [(2, Interval(0.0, 24.0)), (8, Interval(0.0, 21.0)), (1, Interval(-60.0, 25.0)),
     (2, Interval(-60.0, 25.0))],
)
def test_exp_space_constructs_where_the_literal_columns_do(degree, iv):
    # the literal columns construct here and are refused one unit wider;
    # the new ones construct up to a width of about 1430
    literal_exponential_space(degree, iv)
    space = exponential_space(degree, iv)
    assert space.dim == degree + 1 and space.contains_constants
    wider = Interval(iv.left, iv.left + 1000.0)
    assert exponential_space(degree, wider).dim == degree + 1


@pytest.mark.parametrize("degree, right", [(6, 0.25), (7, 0.5), (8, 0.5)])
def test_exp_space_constructs_on_narrow_intervals(degree, right):
    # the literal columns are numerically dependent here
    iv = Interval(0.0, right)
    with pytest.raises(ValueError, match="numerically linearly dependent"):
        literal_exponential_space(degree, iv)
    space = make_space(f"exp:d={degree}", iv)
    assert space.dim == degree + 1 and space.contains_constants


@pytest.mark.parametrize(
    "iv", [Interval(0.0, 1.0), Interval(-1.0, 1.0), Interval(0.0, math.pi)]
)
def test_exp_space_refuses_degree_eighteen_by_its_cause(iv):
    with pytest.raises(ValueError, match="must be <= 17, got 18: .*cancellation"):
        exponential_space(18, iv)


@pytest.mark.parametrize("right", [1.0, 0.25])
def test_exp_space_constructs_at_degree_seventeen(right):
    assert make_space("exp:d=17", Interval(0.0, right)).dim == 18


# the first center is rounded by "g", the second set misses the right end
ROUND_TRIP_RBF = [
    ("rbf-cubic:centers=0,0.1234567,0.6,1", Interval(0.0, 1.0)),
    ("rbf-cubic:centers=0,1.5707963267948966,3.1415926535897931",
     Interval(0.0, math.pi)),
]


@pytest.mark.parametrize("text, iv", ROUND_TRIP_RBF)
def test_rbf_kind_rebuilds_the_same_space(text, iv):
    space = make_space(text, iv)
    twin = make_space(space.kind, space.interval)
    assert twin.kind == space.kind
    x = np.linspace(iv.left, iv.right, 33)
    assert space.values(x).tobytes() == twin.values(x).tobytes()


def test_rbf_kind_keeps_the_g_text_of_exact_centers():
    assert make_space("rbf-cubic:centers=0,0.5,1").kind == "rbf-cubic:centers=0,0.5,1"
    space = rbf_cubic_space([0.0, 1e6, 2e6], Interval(0.0, 2e6))
    assert space.kind == "rbf-cubic:centers=0,1e+06,2e+06"


# ---------------------------------------------------------------------------
# user-defined spaces


def _sine_values(x):
    return np.column_stack([np.ones_like(x), x, np.sin(np.pi * x)])


def _sine_derivatives(x):
    return np.column_stack(
        [np.zeros_like(x), np.ones_like(x), np.pi * np.cos(np.pi * x)]
    )


def test_user_space_yields_a_verified_operator():
    iv = Interval(0.0, 1.0)
    space = FunctionSpace(iv, _sine_values, _sine_derivatives, kind="span{1,x,sin}")
    assert space.dim == 3
    op = find_operator(space)
    assert verify_sbp(op).passed
    x = op.nodes
    np.testing.assert_allclose(
        op.D @ np.sin(np.pi * x), np.pi * np.cos(np.pi * x), atol=1e-8
    )


@pytest.mark.parametrize(
    "values, derivatives, message",
    [
        (
            _sine_values,
            lambda x: _sine_derivatives(x)[:, :2],
            r"^space 'user': derivatives gave shape \(100, 2\), expected \(100, 3\)$",
        ),
        (
            np.sin,
            np.cos,
            r"^space 'user': values gave shape \(2,\), expected \(2, dim\)$",
        ),
        (
            lambda x: np.ones((len(x), 0)),
            lambda x: np.ones((len(x), 0)),
            r"^space 'user': values gave shape \(2, 0\), expected \(2, dim\)$",
        ),
        # right at the ends and the derivative points, wrong at the +-h points
        (
            lambda x: np.ones((2, 1)),
            lambda x: np.zeros((len(x), 1)),
            r"^space 'user': values gave shape \(2, 1\), expected \(200, 1\)$",
        ),
        (
            lambda x: [[1.0], [1.0, 2.0]],
            lambda x: np.zeros((len(x), 1)),
            r"^space 'user': values must hold real numbers, got a ragged list$",
        ),
    ],
    ids=["derivatives-columns", "flat", "no-columns", "ignores-len-x", "ragged"],
)
def test_user_space_shape_mismatch_raises(values, derivatives, message):
    with pytest.raises(ValueError, match=message):
        FunctionSpace(Interval(0.0, 1.0), values, derivatives, "user")


def test_user_space_reads_dim_off_its_callables():
    iv = Interval(0.0, 1.0)
    # dim and contains_constants are read off the callables, never set
    with pytest.raises(TypeError):
        FunctionSpace(iv, _sine_values, _sine_derivatives, "span", dim=3)
    with pytest.raises(TypeError):
        FunctionSpace(
            iv, _sine_values, _sine_derivatives, "span", contains_constants=True
        )


def test_user_space_refuses_an_unknown_rule():
    iv = Interval(0.0, 1.0)
    for rule in ("gauss", "Trapezoid", True):
        with pytest.raises(ValueError, match="gauss-lobatto.*trapezoid"):
            FunctionSpace(iv, _sine_values, _sine_derivatives, "span", rule=rule)
    space = FunctionSpace(iv, _sine_values, _sine_derivatives, "span", "trapezoid")
    assert space.rule == "trapezoid"


def test_user_space_without_constants_yields_a_verified_operator():
    # span{sin(pi x), cos(pi x), x} has no constant: D need not annihilate
    # constants, and the space says so without being told
    def values(x):
        return np.column_stack([np.sin(np.pi * x), np.cos(np.pi * x), x])

    def derivatives(x):
        return np.column_stack(
            [np.pi * np.cos(np.pi * x), -np.pi * np.sin(np.pi * x), np.ones_like(x)]
        )

    space = FunctionSpace(Interval(0.0, 1.0), values, derivatives, "span{sin,cos,x}")
    assert not space.contains_constants
    op = find_operator(space)
    assert verify_sbp(op).passed
    assert op.n_nodes == 5
    x = op.nodes
    np.testing.assert_allclose(op.D @ values(x), derivatives(x), atol=1e-8)


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_contains_constants_ignores_the_scale_of_the_basis(scale):
    def scaled(fn):
        return lambda x: scale * fn(x)

    iv = Interval(0.0, 1.0)
    with_one = FunctionSpace(
        iv, scaled(_sine_values), scaled(_sine_derivatives), "span{1,x,sin}"
    )
    assert with_one.contains_constants
    # x, sin(pi x) and x**2 span no constant
    without = FunctionSpace(
        iv,
        scaled(lambda x: np.column_stack([x, np.sin(np.pi * x), x**2])),
        scaled(
            lambda x: np.column_stack(
                [np.ones_like(x), np.pi * np.cos(np.pi * x), 2.0 * x]
            )
        ),
        "span{x,sin,x^2}",
    )
    assert not without.contains_constants


def test_user_space_wrong_derivative_names_column_and_kind():
    def wrong(x):
        return np.column_stack([np.zeros_like(x), np.ones_like(x), np.cos(np.pi * x)])

    with pytest.raises(ValueError, match=r"'span\{1,x,sin\}'.*column 2"):
        FunctionSpace(Interval(0.0, 1.0), _sine_values, wrong, "span{1,x,sin}")


def test_derivative_check_far_from_the_origin():
    # at |x| = 1e5 the points x +- h round, so the central difference must
    # divide by the step actually taken, not by 2h
    far = Interval(1e5, 1e5 + 1.0)
    assert polynomial_space(5, far).dim == 6
    src = trigonometric_space(4, Interval(0.0, 1.0))
    mapped = affine_map(src, far)
    x = np.linspace(far.left, far.right, 9)
    np.testing.assert_allclose(
        vandermonde_derivative(mapped, x),
        vandermonde_derivative(src, x - far.left),
        atol=1e-9,
    )


def _log_space():
    # log(x) is -inf at the left end of [0, 1]
    return FunctionSpace(
        Interval(0.0, 1.0),
        lambda x: np.column_stack([np.ones_like(x), np.log(x)]),
        lambda x: np.column_stack([np.zeros_like(x), 1.0 / x]),
        kind="log",
    )


def _nan_space():
    # NaN values near the right end, outside the derivative samples
    return FunctionSpace(
        Interval(0.0, 1.0),
        lambda x: np.column_stack([np.ones_like(x), np.where(x > 0.99, np.nan, x)]),
        lambda x: np.column_stack([np.zeros_like(x), np.ones_like(x)]),
        kind="nan",
    )


@pytest.mark.parametrize(
    "build, message",
    [
        # the tail's series overflows on so wide an interval
        (
            lambda: make_space("exp:d=2", Interval(0.0, 2000.0)),
            r"space 'exp:d=2': values of column 2 are not finite near x=2000$",
        ),
        # the half width rounds to 0, or the derivative coefficients 1/h
        # overflow, on an interval this narrow
        (
            lambda: make_space("exp:d=2", Interval(0.0, 5e-324)),
            r"space 'exp:d=2': values of column 0 are not finite near x=0$",
        ),
        (
            lambda: make_space("exp:d=2", Interval(0.0, 1e-323)),
            r"space 'exp:d=2': derivatives of column 1 are not finite near x=0$",
        ),
        (
            lambda: make_space("exp:d=2", Interval(0.0, 1e-310)),
            r"space 'exp:d=2': derivatives of column 1 are not finite near x=2e-312$",
        ),
        (_log_space, r"space 'log': values of column 1 are not finite near x=0$"),
        (_nan_space, r"space 'nan': values of column 1 are not finite near x=1$"),
    ],
    ids=[
        "exp-overflow", "exp-width-5e-324", "exp-width-1e-323", "exp-width-1e-310",
        "log-pole", "nan-values",
    ],
)
def test_non_finite_basis_samples_are_named(build, message):
    # raised as ValueError, not as an overflow warning, a wrong reason or
    # a LinAlgError from the rank check
    with pytest.raises(ValueError, match=message):
        build()


def test_non_finite_derivatives_are_named():
    def derivatives(x):
        d = np.column_stack([np.zeros_like(x), np.ones_like(x)])
        d[x > 0.5, 1] = np.inf
        return d

    with pytest.raises(
        ValueError, match=r"derivatives of column 1 are not finite near x=0\.50"
    ):
        FunctionSpace(
            Interval(0.0, 1.0),
            lambda x: np.column_stack([np.ones_like(x), x]),
            derivatives,
            kind="inf-slope",
        )
