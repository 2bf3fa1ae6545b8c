"""Finite-dimensional function spaces with exact derivatives.

A space is an interval plus two matrix-valued callables: ``values(x)``
returns the ``(len(x), dim)`` matrix of basis function values at the
points ``x`` and ``derivatives(x)`` the matching analytic derivatives.
Any span can be supplied this way through :class:`FunctionSpace`; four
families are built in:

* ``poly``: polynomials up to a degree, represented in the interval-mapped
  Legendre basis (monomials lose numerical rank already around degree 20,
  while the span and hence every operator built on it is unchanged),
* ``trig``: constants plus sine/cosine pairs at integer multiples of the
  base frequency ``2*pi / (x_R - x_L)``, so every element is periodic over
  the interval,
* ``exp``: the span of monomials up to ``degree - 1`` plus ``exp(x)``,
  represented as Legendre polynomials plus the Taylor tail of ``exp``
  about the interval midpoint,
* ``rbf-cubic``: cardinal functions of cubic radial basis interpolation
  with a constant tail.

The module also provides the Vandermonde machinery used by the quadrature
and operator builders: value/derivative Vandermonde matrices, boundary
product moments, stacked pair-derivative rows and a numerical rank check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as _legendre

__all__ = [
    "Interval",
    "UNIT_INTERVAL",
    "FunctionSpace",
    "polynomial_space",
    "trigonometric_space",
    "exponential_space",
    "rbf_cubic_space",
    "make_space",
    "affine_map",
    "vandermonde",
    "vandermonde_derivative",
    "boundary_product_moment",
    "pair_moments",
    "pair_derivative_rows",
    "unisolvency_rank",
]

ArrayFn = Callable[[np.ndarray], np.ndarray]

#: singular values below RANK_RTOL * sigma_max count as zero in rank checks
RANK_RTOL = 1e-10

#: closed-form quadrature rules a space can name as its ``rule``
RULES = ("gauss-lobatto", "trapezoid")

# central-difference consistency check of analytic derivatives
_FD_STEP_FACTOR = 1e-6
_FD_RTOL = 1e-6
_FD_SAMPLES = 100


def _whole_count(value, what: str = "node count") -> int:
    # a count as an int; int() alone would truncate 7.5 to 7, take True
    # for 1, and its errors for inf and nan would not name the count
    try:
        n = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (OverflowError, ValueError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{what} must be a whole number, got {value}")
    return n


@dataclass(frozen=True)
class Interval:
    """Nonempty closed interval ``[left, right]``."""

    left: float
    right: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.left) and np.isfinite(self.right)):
            raise ValueError("interval endpoints must be finite")
        if not self.left < self.right:
            raise ValueError(
                f"empty interval: left={self.left!r} is not below right={self.right!r}"
            )

    @property
    def width(self) -> float:
        return self.right - self.left

    def contains(self, x) -> bool:
        """Whether all points lie in the interval, up to roundoff slack.

        A NaN or infinite point is refused; an empty array is accepted.
        """
        x = np.asarray(x, dtype=float)
        slack = 1e-12 * self.width
        # the min and max of an array holding NaN are NaN, which fails both
        # comparisons, so non-finite points need no separate check
        return x.size == 0 or bool(
            x.min() >= self.left - slack and x.max() <= self.right + slack
        )


UNIT_INTERVAL = Interval(0.0, 1.0)


@dataclass(frozen=True)
class FunctionSpace:
    """A function space on an interval, given by two matrix-valued callables.

    ``values(x)`` and ``derivatives(x)`` map a 1-D array of points to
    ``(len(x), dim)`` arrays of basis values and analytic derivatives;
    ``dim`` is read off ``values`` at the interval ends.  Construction
    raises ``ValueError`` on a shape mismatch, on values or derivatives
    that are not finite at its samples, on derivatives that disagree with
    central differences, or on numerically dependent columns.

    ``kind`` is a label: the textual form understood by :func:`make_space`
    for the built-in families, a ``mapped(...)`` tag for affinely mapped
    spaces, free text for user spaces.  ``rule`` names the closed-form
    quadrature rule the operator search tries before least squares:
    ``"gauss-lobatto"`` (polynomial spans; the node ladder then starts at
    ``dim`` instead of ``dim + 1``), ``"trapezoid"`` (spans periodic over
    the interval) or ``None``.  Every candidate is checked for exactness,
    so a wrong hint costs time, not correctness.

    ``contains_constants`` is derived: true when a constant column leaves
    the numerical rank of ``values`` on the rank-check grid at ``dim``.
    Only then must the derivative operator annihilate constants.

    ``moments`` is derived too: the read-only boundary product moments of
    every pair ``k <= l`` (see :func:`pair_moments`), the targets of every
    quadrature rule, taken from the values at the interval ends, so that
    no search evaluates the space there again.  Equality and hashing
    ignore them.
    """

    interval: Interval
    values: ArrayFn
    derivatives: ArrayFn
    kind: str
    rule: str | None = None
    dim: int = field(init=False)
    contains_constants: bool = field(init=False)
    moments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rule is not None and self.rule not in RULES:
            raise ValueError(
                f"space {self.kind!r}: rule must be None or one of {RULES}, "
                f"got {self.rule!r}"
            )
        # the samples are taken with numpy's floating-point warnings off: an
        # overflow or a pole shows up as a non-finite sample, which is
        # refused by name and place
        iv = self.interval
        with np.errstate(all="ignore"):
            ends = np.array([iv.left, iv.right], dtype=float)
            V_ends = self.values(ends)
            shape = np.shape(V_ends)
            if len(shape) != 2 or shape[0] != 2 or shape[1] < 1:
                raise ValueError(
                    f"space {self.kind!r}: values gave shape {shape} at the two "
                    f"interval ends, expected (2, dim)"
                )
            object.__setattr__(self, "dim", shape[1])
            _require_finite(self, "values", ends, V_ends)
            _check_derivatives(self)
            grid = np.linspace(iv.left, iv.right, max(257, 4 * self.dim + 1))
            V = self.values(grid)
        _require_finite(self, "values", grid, V)
        rank = _numerical_rank(V)
        if rank != self.dim:
            raise ValueError(
                f"basis of kind {self.kind!r} is numerically linearly dependent "
                f"(rank {rank} < {self.dim})"
            )
        # the constant column is scaled like V, so that rescaling the
        # basis cannot change the verdict
        with_one = np.column_stack([V, np.full(grid.size, np.max(np.abs(V)))])
        object.__setattr__(
            self, "contains_constants", _numerical_rank(with_one) == self.dim
        )
        # outside the errstate block, so a product that overflows warns
        k, l = _pair_index(self.dim)
        moments = V_ends[1, k] * V_ends[1, l] - V_ends[0, k] * V_ends[0, l]
        moments.setflags(write=False)
        object.__setattr__(self, "moments", moments)


def _require_finite(space: FunctionSpace, what: str, x: np.ndarray, M) -> None:
    # M holds the space's ``what`` (values or derivatives) at the points x
    finite = np.isfinite(M)
    if not finite.all():
        i, k = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(
            f"space {space.kind!r}: {what} of column {k} are not finite "
            f"near x={x[i]:.6g}"
        )


def _check_derivatives(space: FunctionSpace) -> None:
    # Exactness of the whole construction leans on the analytic derivatives,
    # so every column is cross-checked against central differences.
    iv = space.interval
    h = _FD_STEP_FACTOR * iv.width
    margin = 0.02 * iv.width
    x = np.linspace(iv.left + margin, iv.right - margin, _FD_SAMPLES)
    exact = space.derivatives(x)
    if np.shape(exact) != (x.size, space.dim):
        raise ValueError(
            f"space {space.kind!r}: derivatives gave shape {np.shape(exact)} "
            f"for {x.size} points, values have {space.dim} columns"
        )
    _require_finite(space, "derivatives", x, exact)
    # divide by the step actually taken: x +- h rounds when |x| >> width
    xp, xm = x + h, x - h
    x_pm = np.concatenate([xp, xm])
    V_pm = space.values(x_pm)
    _require_finite(space, "values", x_pm, V_pm)
    plus, minus = np.split(V_pm, 2)
    approx = (plus - minus) / (xp - xm)[:, None]
    excess = np.abs(approx - exact) - _FD_RTOL * (1.0 + np.abs(exact))
    if not np.all(excess <= 0.0):
        i, k = np.unravel_index(np.argmax(excess), excess.shape)
        raise ValueError(
            f"space {space.kind!r}: analytic derivative of column {k} disagrees "
            f"with finite differences near x={x[i]:.6g}"
        )


def polynomial_space(degree: int, interval: Interval = UNIT_INTERVAL) -> FunctionSpace:
    """Polynomials of degree at most ``degree``.

    The basis is Legendre polynomials composed with the affine map onto
    ``[-1, 1]``.  This keeps Vandermonde matrices well conditioned up to
    high degree; the span is the same as for monomials, and operators and
    quadrature rules depend only on the span.  Each matrix is one Clenshaw
    evaluation of all columns at once (the identity as coefficient
    matrix), which takes the same floating-point steps as evaluating each
    column on its own.
    """
    degree = _whole_count(degree, "polynomial degree")
    if degree < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {degree}")
    a, b = interval.left, interval.right
    scale = 2.0 / (b - a)
    coefs = np.eye(degree + 1)
    dcoefs = _legendre.legder(coefs)

    def _to_ref(x):
        return (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)

    def values(x):
        return _legendre.legval(_to_ref(x), coefs).T

    def derivatives(x):
        return scale * _legendre.legval(_to_ref(x), dcoefs).T

    return FunctionSpace(
        interval, values, derivatives, kind=f"poly:d={degree}", rule="gauss-lobatto"
    )


def trigonometric_space(degree: int, interval: Interval = UNIT_INTERVAL) -> FunctionSpace:
    """Constants plus sin/cos pairs up to frequency ``degree``.

    The base angular frequency is ``2*pi / width``, which makes the whole
    basis periodic over the interval.  Dimension is ``2*degree + 1``; the
    columns are ``1, sin1, cos1, sin2, cos2, ...``.
    """
    degree = _whole_count(degree, "trigonometric degree")
    if degree < 1:
        raise ValueError(f"trigonometric degree must be >= 1, got {degree}")
    w = (2.0 * np.pi / interval.width) * np.arange(1, degree + 1)

    def values(x):
        xw = np.asarray(x, dtype=float)[:, None] * w
        out = np.ones((xw.shape[0], 2 * degree + 1))
        out[:, 1::2] = np.sin(xw)
        out[:, 2::2] = np.cos(xw)
        return out

    def derivatives(x):
        xw = np.asarray(x, dtype=float)[:, None] * w
        out = np.zeros((xw.shape[0], 2 * degree + 1))
        out[:, 1::2] = w * np.cos(xw)
        out[:, 2::2] = -w * np.sin(xw)
        return out

    return FunctionSpace(
        interval, values, derivatives, kind=f"trig:d={degree}", rule="trapezoid"
    )


def exponential_space(degree: int, interval: Interval = UNIT_INTERVAL) -> FunctionSpace:
    """The span of ``1, x, ..., x**(degree-1)`` and ``exp(x)``.

    Dimension is ``degree + 1``.  With ``c`` the midpoint, ``h`` the half
    width, ``t = x - c`` and ``s = t/h``, the columns are the Legendre
    polynomials ``P_0(s), ..., P_{degree-1}(s)`` and the Taylor tail of
    ``exp`` about the midpoint, ``T(t) = sum_{k>=degree} t**k / k!``,
    divided by ``T(h)`` so that, like every ``P_k``, it is 1 at the right
    end.  The literal columns lose numerical rank on narrow intervals,
    from about degree 6, and on wide intervals where ``exp`` dwarfs the
    monomials.

    Each matrix is one product ``vander(s) @ C``: the rows of ``C`` hold
    the power-series coefficients in ``s`` of every column, with the
    tail's series cut at the first term below ``1e-18`` of its leading
    one.  The derivative coefficients are those of ``C`` shifted up one
    power and divided by ``h``.  Near ``c`` the tail is summed as its own
    series, since ``exp`` minus its Taylor part cancels there.  Below
    ``t = -(degree + 1)`` the series alternates with terms far above its
    sum, while ``exp(t)`` is small beside the Taylor part, so there the
    tail is ``exp(t)`` minus the Taylor part.
    """
    degree = _whole_count(degree, "exponential-space degree")
    if degree < 1:
        raise ValueError(f"exponential-space degree must be >= 1, got {degree}")
    c = 0.5 * (interval.left + interval.right)
    h = 0.5 * interval.width
    # T's coefficient of s**(degree + j) over that of s**degree:
    # degree!/(degree + j)! * h**j
    tail = [1.0]
    while math.isfinite(tail[-1]):
        term = tail[-1] * h / (degree + len(tail))
        if term < 1e-18:
            break
        tail.append(term)
    # T(h) over h**degree/degree!; on a very wide interval a term overflows,
    # leaves a nan in C and is refused by name at construction
    total = sum(tail)
    n_powers = degree + len(tail)
    C = np.zeros((n_powers, degree + 1))
    C[0, 0] = 1.0
    if degree > 1:
        C[1, 1] = 1.0
    for k in range(1, degree - 1):
        # (k + 1) P_{k+1} = (2k + 1) s P_k - k P_{k-1}: exact in floating
        # point through P_24, where leg2poly is an ulp off from P_6 on, and
        # a tenth of its time
        C[1:, k + 1] = (2 * k + 1) * C[:-1, k]
        C[:, k + 1] -= k * C[:, k - 1]
        C[:, k + 1] /= k + 1
    C[degree:, degree] = [a / total for a in tail]
    # on an interval so narrow that h is 0 or near it, the division leaves
    # non-finite entries, which construction refuses by name
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Cx = np.arange(1, n_powers)[:, None] * C[1:] / h
    far_field = -(degree + 1.0)

    def product(x, coefs, taylor_terms):
        t = np.asarray(x, dtype=float) - c
        out = np.vander(t / h, len(coefs), increasing=True) @ coefs
        far = t < far_field
        if far.any():
            tf = t[far]
            taylor = sum(tf**k / math.factorial(k) for k in range(taylor_terms))
            # 1/T(h) = degree!/(h**degree * total), taken in logs so that no
            # step overflows; here h > degree + 1
            log_norm = math.lgamma(degree + 1) - degree * math.log(h) - math.log(total)
            out[far, degree] = math.exp(log_norm) * (np.exp(tf) - taylor)
        return out

    def values(x):
        return product(x, C, degree)

    def derivatives(x):
        # T' is the tail from degree - 1 on
        return product(x, Cx, degree - 1)

    return FunctionSpace(interval, values, derivatives, kind=f"exp:d={degree}")


def rbf_cubic_space(
    centers: Sequence[float], interval: Interval = UNIT_INTERVAL
) -> FunctionSpace:
    """Cardinal basis of cubic radial interpolation with a constant tail.

    Interpolants have the form ``sum_j alpha_j |x - c_j|**3 + beta`` with
    ``sum_j alpha_j = 0``.  The cardinal functions solve the augmented
    symmetric system against unit data; by linearity they sum to one
    identically.  Centers must be distinct, sorted ascending and include
    both interval endpoints.
    """
    c = np.sort(np.asarray(list(centers), dtype=float))
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need at least two radial centers")
    if np.min(np.diff(c)) <= 0.0:
        raise ValueError("radial centers must be distinct")
    slack = 1e-12 * interval.width
    if not interval.contains(c):
        raise ValueError("radial centers must lie inside the interval")
    if abs(c[0] - interval.left) > slack or abs(c[-1] - interval.right) > slack:
        raise ValueError("radial centers must include both interval endpoints")

    m = c.size
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = np.abs(c[:, None] - c[None, :]) ** 3
    A[:m, m] = 1.0
    A[m, :m] = 1.0
    rhs = np.vstack([np.eye(m), np.zeros((1, m))])
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular radial interpolation system: {exc}") from exc
    alpha = coef[:m]
    beta = coef[m]

    def values(x):
        s = np.asarray(x, dtype=float)[:, None] - c
        return np.abs(s) ** 3 @ alpha + beta

    def derivatives(x):
        s = np.asarray(x, dtype=float)[:, None] - c
        return (3.0 * s * np.abs(s)) @ alpha

    centers_txt = ",".join(format(v, "g") for v in c)
    return FunctionSpace(
        interval, values, derivatives, kind=f"rbf-cubic:centers={centers_txt}"
    )


def make_space(spec: str, interval: Interval = UNIT_INTERVAL) -> FunctionSpace:
    """Build a space from its textual form.

    Accepted forms::

        poly:d=<int>
        trig:d=<int>
        exp:d=<int>
        rbf-cubic:centers=<c1,c2,...>
    """
    head, sep, tail = spec.partition(":")
    head = head.strip()
    if not sep or not tail:
        raise ValueError(f"malformed space {spec!r}: expected kind:key=value")
    key, eq, value = tail.partition("=")
    if not eq:
        raise ValueError(f"malformed space {spec!r}: missing '=' in parameters")
    key = key.strip()
    value = value.strip()

    if head in ("poly", "trig", "exp"):
        if key != "d":
            raise ValueError(f"space kind {head!r} takes a single parameter d")
        try:
            degree = int(value)
        except ValueError:
            raise ValueError(f"degree must be an integer, got {value!r}") from None
        builder = {
            "poly": polynomial_space,
            "trig": trigonometric_space,
            "exp": exponential_space,
        }[head]
        return builder(degree, interval)
    if head == "rbf-cubic":
        if key != "centers":
            raise ValueError("rbf-cubic takes a single parameter centers")
        try:
            centers = [float(v) for v in value.split(",") if v.strip()]
        except ValueError:
            raise ValueError(f"malformed center list {value!r}") from None
        return rbf_cubic_space(centers, interval)
    raise ValueError(f"unknown space kind {head!r}")


def affine_map(space: FunctionSpace, interval: Interval) -> FunctionSpace:
    """Pull the basis back onto another interval through the affine chart.

    Each mapped basis function is ``f(xi(x))`` with ``xi`` the increasing
    affine bijection from ``interval`` onto ``space.interval``; derivatives
    pick up the chain-rule factor.  Spans, and therefore operators,
    transform covariantly under this map, so the mapped space keeps the
    ``rule`` of ``space``: a polynomial or periodic span stays one.
    """
    src = space.interval
    s = interval.width / src.width

    def chart(x):
        return src.left + (np.asarray(x, dtype=float) - interval.left) / s

    return FunctionSpace(
        interval,
        lambda x: space.values(chart(x)),
        lambda x: space.derivatives(chart(x)) / s,
        kind=f"mapped({space.kind})",
        rule=space.rule,
    )


def _validated_grid(space: FunctionSpace, grid) -> np.ndarray:
    g = np.atleast_1d(np.asarray(grid, dtype=float))
    if g.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    if not space.interval.contains(g):
        raise ValueError(
            f"grid node outside interval [{space.interval.left}, {space.interval.right}]"
        )
    return g


def vandermonde(space: FunctionSpace, grid) -> np.ndarray:
    """Value matrix with entry ``(n, k) = f_k(x_n)``."""
    return space.values(_validated_grid(space, grid))


def vandermonde_derivative(space: FunctionSpace, grid) -> np.ndarray:
    """Derivative matrix with entry ``(n, k) = f_k'(x_n)``."""
    return space.derivatives(_validated_grid(space, grid))


def boundary_product_moment(space: FunctionSpace, k: int, l: int) -> float:
    """Boundary term ``f_k(x_R) f_l(x_R) - f_k(x_L) f_l(x_L)``.

    This equals the exact integral of ``(f_k f_l)'`` over the interval and
    is symmetric in ``k`` and ``l``.  Indices are zero-based column
    positions of ``space.values``.
    """
    K = space.dim
    if not (0 <= k < K and 0 <= l < K):
        raise ValueError(f"column indices out of range: ({k}, {l}) for dim {K}")
    V = space.values(np.array([space.interval.left, space.interval.right]))
    return float(V[1, k] * V[1, l] - V[0, k] * V[0, l])


@lru_cache(maxsize=64)
def _pair_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # the row-major pairs k <= l, shared read-only by every call of one dim
    k, l = np.triu_indices(dim)
    k.setflags(write=False)
    l.setflags(write=False)
    return k, l


def pair_moments(space: FunctionSpace) -> np.ndarray:
    """Boundary product moments for all pairs ``k <= l``, stacked row-major.

    This is ``space.moments``, computed when the space was constructed.
    """
    return space.moments


def _pair_products(V: np.ndarray, Vx: np.ndarray, dim: int) -> np.ndarray:
    # (f_k f_l)' from the value and derivative matrices, one row per pair
    k, l = _pair_index(dim)
    # multiplied and added in place on the gathered copies, so at most
    # three (points, pairs) arrays are alive at once instead of four; the
    # rounding is that of the plain expression
    rows = Vx[:, k]
    rows *= V[:, l]
    right = V[:, k]
    right *= Vx[:, l]
    rows += right
    return rows.T


def pair_derivative_rows(space: FunctionSpace, grid) -> np.ndarray:
    """Rows ``(f_k f_l)'`` evaluated on the grid, one per pair ``k <= l``.

    Row order matches :func:`pair_moments`.  Shape is
    ``(dim*(dim+1)/2, len(grid))``.
    """
    V = vandermonde(space, grid)
    Vx = vandermonde_derivative(space, grid)
    return _pair_products(V, Vx, space.dim)


def unisolvency_rank(space: FunctionSpace, grid) -> int:
    """Numerical rank of the value Vandermonde matrix on the grid.

    Singular values below ``RANK_RTOL`` times the largest one count as
    zero.  The grid is not required to lie inside the interval.
    """
    g = np.atleast_1d(np.asarray(grid, dtype=float))
    return _numerical_rank(space.values(g))


def _numerical_rank(M: np.ndarray) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))
