"""Finite-dimensional function spaces with exact derivatives.

A space is an ordered tuple of basis elements on an interval, where each
element carries a vectorized value callable and its analytic derivative.
Four families are built in:

* ``poly``: polynomials up to a degree, represented in the interval-mapped
  Legendre basis (monomials lose numerical rank already around degree 20,
  while the span and hence every operator built on it is unchanged),
* ``trig``: constants plus sine/cosine pairs at integer multiples of the
  base frequency ``2*pi / (x_R - x_L)``, so every element is periodic over
  the interval,
* ``exp``: monomials up to ``degree - 1`` plus ``exp(x)``,
* ``rbf-cubic``: cardinal functions of cubic radial basis interpolation
  with a constant tail.

The module also provides the Vandermonde machinery used by the quadrature
and operator builders: value/derivative Vandermonde matrices, boundary
product moments, stacked pair-derivative rows and a numerical rank check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as _legendre

__all__ = [
    "Interval",
    "UNIT_INTERVAL",
    "BasisElement",
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

# central-difference consistency check of analytic derivatives
_FD_STEP_FACTOR = 1e-6
_FD_RTOL = 1e-6
_FD_SAMPLES = 100


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
        """Whether all points lie in the interval, up to roundoff slack."""
        x = np.asarray(x, dtype=float)
        slack = 1e-12 * self.width
        return bool(
            np.all(x >= self.left - slack) and np.all(x <= self.right + slack)
        )


UNIT_INTERVAL = Interval(0.0, 1.0)


@dataclass(frozen=True)
class BasisElement:
    """One basis function: value, analytic derivative and a short label.

    Both callables must accept numpy arrays and return arrays of the same
    shape.  Consistency of ``derivative`` with ``value`` is checked by
    central finite differences when a space is constructed.
    """

    value: ArrayFn
    derivative: ArrayFn
    label: str


@dataclass(frozen=True)
class FunctionSpace:
    """Ordered basis of a function space on an interval.

    ``kind`` is the textual form understood by :func:`make_space` for the
    built-in families; affinely mapped spaces get a non-parseable
    ``mapped(...)`` tag instead.  ``contains_constants`` records whether
    the constant function lies in the span, which decides whether the
    derivative operator must annihilate constants.
    """

    interval: Interval
    elements: tuple[BasisElement, ...]
    kind: str
    contains_constants: bool = True

    @property
    def dim(self) -> int:
        return len(self.elements)


def _constant_element() -> BasisElement:
    return BasisElement(
        value=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        label="1",
    )


def _check_derivatives(space: FunctionSpace) -> None:
    # Exactness of the whole construction leans on the analytic derivatives,
    # so every element is cross-checked against central differences.
    iv = space.interval
    h = _FD_STEP_FACTOR * iv.width
    margin = 0.02 * iv.width
    x = np.linspace(iv.left + margin, iv.right - margin, _FD_SAMPLES)
    for el in space.elements:
        exact = np.asarray(el.derivative(x), dtype=float)
        approx = (el.value(x + h) - el.value(x - h)) / (2.0 * h)
        tol = _FD_RTOL * (1.0 + np.abs(exact))
        bad = np.abs(approx - exact) > tol
        if np.any(bad):
            i = int(np.argmax(np.abs(approx - exact) - tol))
            raise ValueError(
                f"element {el.label!r}: analytic derivative disagrees with "
                f"finite differences near x={x[i]:.6g}"
            )


def _check_independence(space: FunctionSpace) -> None:
    n = max(257, 4 * space.dim + 1)
    grid = np.linspace(space.interval.left, space.interval.right, n)
    r = unisolvency_rank(space, grid)
    if r != space.dim:
        raise ValueError(
            f"basis of kind {space.kind!r} is numerically linearly dependent "
            f"(rank {r} < {space.dim})"
        )


def _finalize(space: FunctionSpace) -> FunctionSpace:
    _check_derivatives(space)
    _check_independence(space)
    return space


def polynomial_space(degree: int, interval: Interval = UNIT_INTERVAL) -> FunctionSpace:
    """Polynomials of degree at most ``degree``.

    The basis is Legendre polynomials composed with the affine map onto
    ``[-1, 1]``.  This keeps Vandermonde matrices well conditioned up to
    high degree; the span is the same as for monomials, and operators and
    quadrature rules depend only on the span.
    """
    degree = int(degree)
    if degree < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {degree}")
    a, b = interval.left, interval.right
    scale = 2.0 / (b - a)

    def _to_ref(x):
        return (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)

    elements = []
    for k in range(degree + 1):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        dcoef = _legendre.legder(coef)

        def value(x, coef=coef):
            return _legendre.legval(_to_ref(x), coef)

        def derivative(x, dcoef=dcoef, scale=scale):
            return scale * _legendre.legval(_to_ref(x), dcoef)

        elements.append(BasisElement(value, derivative, f"P{k}"))
    return _finalize(
        FunctionSpace(interval, tuple(elements), kind=f"poly:d={degree}")
    )


def trigonometric_space(degree: int, interval: Interval = UNIT_INTERVAL) -> FunctionSpace:
    """Constants plus sin/cos pairs up to frequency ``degree``.

    The base angular frequency is ``2*pi / width``, which makes the whole
    basis periodic over the interval.  Dimension is ``2*degree + 1``.
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError(f"trigonometric degree must be >= 1, got {degree}")
    omega = 2.0 * np.pi / interval.width
    elements = [_constant_element()]
    for k in range(1, degree + 1):
        wk = k * omega

        def sin_val(x, wk=wk):
            return np.sin(wk * np.asarray(x, dtype=float))

        def sin_der(x, wk=wk):
            return wk * np.cos(wk * np.asarray(x, dtype=float))

        def cos_val(x, wk=wk):
            return np.cos(wk * np.asarray(x, dtype=float))

        def cos_der(x, wk=wk):
            return -wk * np.sin(wk * np.asarray(x, dtype=float))

        elements.append(BasisElement(sin_val, sin_der, f"sin{k}"))
        elements.append(BasisElement(cos_val, cos_der, f"cos{k}"))
    return _finalize(
        FunctionSpace(interval, tuple(elements), kind=f"trig:d={degree}")
    )


def exponential_space(degree: int, interval: Interval = UNIT_INTERVAL) -> FunctionSpace:
    """Monomials ``1, x, ..., x**(degree-1)`` together with ``exp(x)``.

    Dimension is ``degree + 1``.  Meant for small degrees; the monomial
    part is kept literal so that the exponential stays the distinguished
    last element.
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError(f"exponential-space degree must be >= 1, got {degree}")
    elements = [_constant_element()]
    for k in range(1, degree):

        def value(x, k=k):
            return np.asarray(x, dtype=float) ** k

        def derivative(x, k=k):
            return k * np.asarray(x, dtype=float) ** (k - 1)

        elements.append(BasisElement(value, derivative, f"x^{k}" if k > 1 else "x"))
    elements.append(
        BasisElement(
            value=lambda x: np.exp(np.asarray(x, dtype=float)),
            derivative=lambda x: np.exp(np.asarray(x, dtype=float)),
            label="exp",
        )
    )
    return _finalize(
        FunctionSpace(interval, tuple(elements), kind=f"exp:d={degree}")
    )


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
    alpha = coef[:m, :]
    beta = coef[m, :]

    elements = []
    for i in range(m):

        def value(x, a=alpha[:, i], b=beta[i], c=c):
            s = np.asarray(x, dtype=float)[..., None] - c
            return np.abs(s) ** 3 @ a + b

        def derivative(x, a=alpha[:, i], c=c):
            s = np.asarray(x, dtype=float)[..., None] - c
            return (3.0 * s * np.abs(s)) @ a

        elements.append(BasisElement(value, derivative, f"c{i + 1}"))
    centers_txt = ",".join(format(v, "g") for v in c)
    return _finalize(
        FunctionSpace(
            interval, tuple(elements), kind=f"rbf-cubic:centers={centers_txt}"
        )
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

    The mapped element is ``f(xi(x))`` with ``xi`` the increasing affine
    bijection from ``interval`` onto ``space.interval``; derivatives pick
    up the chain-rule factor.  Spans, and therefore operators, transform
    covariantly under this map.
    """
    src = space.interval
    s = interval.width / src.width

    def _pull(el: BasisElement) -> BasisElement:
        def value(x, f=el.value):
            xi = src.left + (np.asarray(x, dtype=float) - interval.left) / s
            return f(xi)

        def derivative(x, fp=el.derivative):
            xi = src.left + (np.asarray(x, dtype=float) - interval.left) / s
            return fp(xi) / s

        return BasisElement(value, derivative, el.label)

    return FunctionSpace(
        interval,
        tuple(_pull(el) for el in space.elements),
        kind=f"mapped({space.kind})",
        contains_constants=space.contains_constants,
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
    g = _validated_grid(space, grid)
    return np.column_stack([el.value(g) for el in space.elements])


def vandermonde_derivative(space: FunctionSpace, grid) -> np.ndarray:
    """Derivative matrix with entry ``(n, k) = f_k'(x_n)``."""
    g = _validated_grid(space, grid)
    return np.column_stack([el.derivative(g) for el in space.elements])


def boundary_product_moment(space: FunctionSpace, k: int, l: int) -> float:
    """Boundary term ``f_k(x_R) f_l(x_R) - f_k(x_L) f_l(x_L)``.

    This equals the exact integral of ``(f_k f_l)'`` over the interval and
    is symmetric in ``k`` and ``l``.  Indices are zero-based positions in
    ``space.elements``.
    """
    K = space.dim
    if not (0 <= k < K and 0 <= l < K):
        raise ValueError(f"element indices out of range: ({k}, {l}) for dim {K}")
    ends = np.array([space.interval.left, space.interval.right])
    fk = np.asarray(space.elements[k].value(ends), dtype=float)
    fl = np.asarray(space.elements[l].value(ends), dtype=float)
    return float(fk[1] * fl[1] - fk[0] * fl[0])


def pair_moments(space: FunctionSpace) -> np.ndarray:
    """Boundary product moments for all pairs ``k <= l``, stacked row-major."""
    V = vandermonde(space, [space.interval.left, space.interval.right])
    k, l = np.triu_indices(space.dim)
    return V[1, k] * V[1, l] - V[0, k] * V[0, l]


def pair_derivative_rows(space: FunctionSpace, grid) -> np.ndarray:
    """Rows ``(f_k f_l)'`` evaluated on the grid, one per pair ``k <= l``.

    Row order matches :func:`pair_moments`.  Shape is
    ``(dim*(dim+1)/2, len(grid))``.
    """
    V = vandermonde(space, grid)
    Vx = vandermonde_derivative(space, grid)
    k, l = np.triu_indices(space.dim)
    return (Vx[:, k] * V[:, l] + V[:, k] * Vx[:, l]).T


def unisolvency_rank(space: FunctionSpace, grid) -> int:
    """Numerical rank of the value Vandermonde matrix on the grid.

    Singular values below ``RANK_RTOL`` times the largest one count as
    zero.  The grid is not required to lie inside the interval.
    """
    g = np.atleast_1d(np.asarray(grid, dtype=float))
    V = np.column_stack([el.value(g) for el in space.elements])
    s = np.linalg.svd(V, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))
