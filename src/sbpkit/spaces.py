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

The module also provides the value and derivative Vandermonde matrices
used by the quadrature and operator builders.
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
]

ArrayFn = Callable[[np.ndarray], np.ndarray]

#: singular values below RANK_RTOL * sigma_max count as zero in rank checks
RANK_RTOL = 1e-10

#: the quadrature starts a space can name as its ``rule``, beside the
#: equispaced least-squares rule every search tries: the closed-form
#: Gauss-Lobatto or trapezoid rule before it, or Gauss-Lobatto nodes with
#: least-squares weights after it
RULES = ("gauss-lobatto", "trapezoid", "lobatto-least-squares")

# central-difference consistency check of analytic derivatives
_FD_STEP_FACTOR = 1e-6
_FD_RTOL = 1e-6
_FD_SAMPLES = 100


# numpy's C reductions, for the checks on the search path and in the time
# step: the same results as ``a.max()``, ``a.min()`` and ``a.all()``, NaN
# and empty input included, without the Python layer those methods and
# np.max/np.all pass through
def _amax(a) -> np.floating:
    """``a.max()`` over all axes, as one C call."""
    return np.maximum.reduce(a, None)


def _amin(a) -> np.floating:
    """``a.min()`` over all axes, as one C call."""
    return np.minimum.reduce(a, None)


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, counted in C."""
    return bool(np.count_nonzero(np.isfinite(a)) == a.size)


def _real(value, name: str) -> float:
    """``value`` as a float, if a real, finite number and not a boolean."""
    if type(value) is float and math.isfinite(value):  # the usual case
        return value
    if isinstance(value, np.ndarray):  # refused whatever numpy's cast would do
        if value.ndim:
            raise ValueError(f"{name} must be a number, got a {value.ndim}-D array")
        value = value[()]  # a 0-d array as its scalar: np.array(True) is a boolean
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value}")
    try:  # text, None and complex raise TypeError, a huge int OverflowError
        if isinstance(value, np.complexfloating):  # which casts with a warning
            raise TypeError
        finite = math.isfinite(value)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{name} must be a finite real number, got {value!r}") from exc
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def _count(value, name: str, least: int) -> int:
    """``value`` as an int, if :func:`_real` takes it, whole from ``least`` to 2**53."""
    if type(value) is int and least <= value <= 2**53:  # the usual case
        return value
    n = int(number := _real(value, name))
    if n == number and n == value and least <= n <= 2**53:  # whole, unrounded, in range
        return n
    raise ValueError(f"{name} must be a whole number from {least} to 2**53, got {value}")


#: what an array of a dtype kind that is not real holds, for the refusal;
#: "int" stands for a Python int beyond the float range
_KINDS = {"b": "booleans", "c": "complex values", "O": "None or objects", "U": "text",
          "int": "an int too large for a float"}


def _reals(values, name: str) -> np.ndarray:
    """``values`` as a float64 array, if it holds real numbers only.

    Text, booleans (also in a list, where numpy takes True for 1.0),
    ``None``, complex values, ragged lists and ints beyond the float range
    raise ``ValueError`` naming ``name``; shape and finiteness are the
    caller's to check.
    """
    if type(values) is np.ndarray and values.dtype == float:  # the usual case
        return values
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nested list
        raise ValueError(f"{name} must hold real numbers, got a ragged list") from None
    kind = "b" if _holds_bool(values) else arr.dtype.kind
    if kind == "O" and all(type(v) is int for v in arr.flat):
        kind = "i"  # ints beyond int64 and uint64, which numpy keeps as objects
    try:
        if kind in "iuf":
            return arr.astype(float, copy=False)
    except OverflowError:  # an int beyond the float range
        kind = "int"
    got = _KINDS.get(kind, f"{arr.dtype} values")
    raise ValueError(f"{name} must hold real numbers, got {got}")


def _holds_bool(values) -> bool:
    # a boolean anywhere in a (nested) list or tuple
    if isinstance(values, (list, tuple)):
        return any(_holds_bool(v) for v in values)
    return isinstance(values, (bool, np.bool_))


def _nodes(values, name: str) -> np.ndarray:
    """``values`` as a float64 grid, frozen in place (pass a copy to keep one).

    A grid is 1-D with at least 2 values, finite and strictly increasing;
    anything else raises ``ValueError`` naming ``name``.
    """
    arr = _reals(values, name)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(
            f"{name} must be a 1-D array of at least 2 values, got shape {arr.shape}"
        )
    if not _all_finite(arr):
        raise ValueError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
    if np.count_nonzero(arr[1:] <= arr[:-1]):  # compared, so no spread overflows
        raise ValueError(f"{name} must be strictly increasing")
    arr.setflags(write=False)
    return arr


def _samples(values, name: str, at: tuple[str, np.ndarray], shape: tuple) -> np.ndarray:
    """A callable's output ``values`` as floats, if real, of ``shape`` and finite.

    ``at`` is the name and array of the points the values were taken at, one
    value or row each; a text entry of ``shape`` is any length from 1, shown
    by that text.  A refusal is a ``ValueError`` naming ``name``, and for a
    non-finite entry its point and, in a matrix of values, its column.
    """
    arr = _reals(values, name)
    label, points = at
    if arr.ndim != len(shape) or any(
        m < 1 if isinstance(n, str) else m != n for n, m in zip(shape, arr.shape)
    ):
        want = str(shape).replace("'", "")
        raise ValueError(f"{name} gave shape {arr.shape}, expected {want}")
    if not _all_finite(arr):
        i, k = divmod(int(np.argmin(np.isfinite(arr))), arr.size // points.size)
        column = f" of column {k}" if arr.ndim > points.ndim else ""
        raise ValueError(
            f"{name}{column} are not finite near {label}={points.flat[i]:.6g}"
        )
    return arr


@dataclass(frozen=True)
class Interval:
    """Nonempty closed interval ``[left, right]`` of finite width.

    Its ends must be finite real numbers, not booleans, and are stored as floats.
    """

    left: float
    right: float

    def __post_init__(self) -> None:
        left = _real(self.left, "interval left end")
        right = _real(self.right, "interval right end")
        if not left < right:
            raise ValueError(
                f"empty interval: left={left!r} is not below right={right!r}"
            )
        # in Python floats, so that an overflow gives inf and no numpy warning
        if not math.isfinite(right - left):
            raise ValueError(
                f"interval width overflows: right={right!r} minus "
                f"left={left!r} is not a finite number"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def width(self) -> float:
        return self.right - self.left

    def contains(self, x) -> bool:
        """Whether all points lie in the interval, up to roundoff slack.

        A NaN or infinite point is refused; an empty array is accepted.
        """
        x = _reals(x, "x")
        slack = 1e-12 * self.width
        # the min and max of an array holding NaN are NaN, which fails both
        # comparisons, so non-finite points need no separate check
        return x.size == 0 or bool(
            _amin(x) >= self.left - slack and _amax(x) <= self.right + slack
        )

    def _ends(self, x: np.ndarray) -> bool:
        """Whether a grid's first and last values are the interval's ends,
        each within ``1e-12`` times its width."""
        slack = 1e-12 * self.width
        return abs(x[0] - self.left) <= slack and abs(x[-1] - self.right) <= slack


UNIT_INTERVAL = Interval(0.0, 1.0)


@dataclass(frozen=True)
class FunctionSpace:
    """A function space on an interval, given by two matrix-valued callables.

    ``values(x)`` and ``derivatives(x)`` map a 1-D array of points to
    ``(len(x), dim)`` arrays of real, finite basis values and analytic
    derivatives; ``dim`` is read off ``values`` at the interval ends.
    Construction raises ``ValueError`` naming the callable on other output
    at any sample (a non-finite value also by its column and point), on
    derivatives that disagree with central differences, or on
    numerically dependent columns.

    ``kind`` is a label: the textual form understood by :func:`make_space`
    for the built-in families, a ``mapped(...)`` tag for affinely mapped
    spaces, free text for user spaces.  ``rule`` names the rule the
    operator search tries besides the equispaced least-squares rule at
    each node count: the closed-form ``"gauss-lobatto"`` (polynomial
    spans; the node ladder then starts at ``dim`` instead of ``dim + 1``)
    or ``"trapezoid"`` (spans periodic over the interval), each tried
    first, or ``"lobatto-least-squares"``, the least-squares weights on
    Gauss-Lobatto nodes, tried last (``exp`` spans, whose equispaced
    rules need many more nodes); or ``None``.  Every candidate is checked
    for exactness, so a wrong hint costs time, not correctness.

    ``contains_constants`` is derived: true when a constant column leaves
    the numerical rank of ``values`` on the rank-check grid at ``dim``.
    Only then must the derivative operator annihilate constants.

    ``moments`` is derived too: the read-only boundary product moments of
    every pair ``k <= l``, stacked row-major:
    ``f_k(x_R) f_l(x_R) - f_k(x_L) f_l(x_L)``, the exact integral of
    ``(f_k f_l)'`` and the target of every quadrature rule.  They are
    taken from the values at the interval ends, so that no search
    evaluates the space there again.  Equality and hashing ignore them.

    A space keeps its matrices on the latest grid a rule check, build or
    verification asked for, for as long as it lives: the callables are
    pure, so the kept grid saves evaluations and never moves a result.
    """

    interval: Interval
    values: ArrayFn
    derivatives: ArrayFn
    kind: str
    rule: str | None = None
    dim: int = field(init=False)
    contains_constants: bool = field(init=False)
    moments: np.ndarray = field(init=False, repr=False, compare=False)
    # (node bytes, (V, Vx, Phi)) of the latest grid; written by _on_grid only
    _grid: tuple | None = field(init=False, default=None, repr=False, compare=False)

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
        values = f"space {self.kind!r}: values"
        with np.errstate(all="ignore"):
            ends = np.array([iv.left, iv.right], dtype=float)
            V_ends = _samples(self.values(ends), values, ("x", ends), (2, "dim"))
            object.__setattr__(self, "dim", V_ends.shape[1])
            _check_derivatives(self)
            grid = np.linspace(iv.left, iv.right, max(257, 4 * self.dim + 1))
            V = _samples(self.values(grid), values, ("x", grid), (grid.size, self.dim))
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


def _check_derivatives(space: FunctionSpace) -> None:
    # Exactness of the whole construction leans on the analytic derivatives,
    # so every column is cross-checked against central differences.
    iv = space.interval
    h = _FD_STEP_FACTOR * iv.width
    margin = 0.02 * iv.width
    x = np.linspace(iv.left + margin, iv.right - margin, _FD_SAMPLES)
    name = f"space {space.kind!r}: "
    exact = _samples(
        space.derivatives(x), name + "derivatives", ("x", x), (x.size, space.dim)
    )
    # divide by the step actually taken: x +- h rounds when |x| >> width
    xp, xm = x + h, x - h
    x_pm = np.concatenate([xp, xm])
    V_pm = _samples(
        space.values(x_pm), name + "values", ("x", x_pm), (x_pm.size, space.dim)
    )
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
    """Polynomials of degree at most ``degree``, a whole number from 0 to 2**53.

    The basis is Legendre polynomials composed with the affine map onto
    ``[-1, 1]``.  This keeps Vandermonde matrices well conditioned up to
    high degree; the span is the same as for monomials, and operators and
    quadrature rules depend only on the span.  Each matrix is one Clenshaw
    evaluation of all columns at once (the identity as coefficient
    matrix), which takes the same floating-point steps as evaluating each
    column on its own.
    """
    degree = _count(degree, "polynomial degree", 0)
    a, b = interval.left, interval.right
    # in Python floats, so that an overflow gives inf and no numpy warning;
    # 2*x and a + b are both at most twice the larger end in size
    if not math.isfinite(2.0 * max(abs(a), abs(b))):
        raise ValueError(
            f"polynomial space: the map of [{a!r}, {b!r}] onto [-1, 1] "
            f"overflows, since twice an end is not a finite number"
        )
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
    """Constants plus sin/cos pairs up to frequency ``degree`` (whole, 1 to 2**53).

    The base angular frequency is ``2*pi / width``, which makes the whole
    basis periodic over the interval.  Dimension is ``2*degree + 1``; the
    columns are ``1, sin1, cos1, sin2, cos2, ...``.
    """
    degree = _count(degree, "trigonometric degree", 1)
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
    """The span of ``1, x, ..., x**(degree-1)`` and ``exp(x)``, whole ``degree`` >= 1.

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

    The space's ``rule`` is ``"lobatto-least-squares"``: at each node
    count the search tries least-squares weights on Gauss-Lobatto nodes
    after the equispaced ones.  From degree 4 on, and on some intervals
    from degree 3, that ends the ladder sooner (degree 8 on ``[0, 1]`` at
    12 nodes instead of 30); degrees 1 and 2 keep their equispaced grids.

    Degrees from 18 on are refused: in power form, ``P_17`` and above are
    sums of terms far larger than their values, so those columns lose
    digits to cancellation (2.4e-11 at degree 18 on ``[-1, 1]``).
    """
    degree = _count(degree, "exponential-space degree", 1)
    if degree >= 18:
        raise ValueError(
            f"exponential-space degree must be <= 17, got {degree}: from degree "
            f"18 on, the power-form Legendre columns lose digits to cancellation"
        )
    if not math.isfinite(interval.left + interval.right):
        raise ValueError(
            f"exponential space: the midpoint of [{interval.left!r}, "
            f"{interval.right!r}] overflows, since left + right is not a "
            f"finite number"
        )
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
        # the powers s**0, s**1, ... filled as np.vander(s, increasing=True)
        # fills them, bit for bit: ones, then a running product along rows
        powers = np.empty((len(t), len(coefs)))
        powers[:, 0] = 1.0
        powers[:, 1:] = (t / h)[:, None]
        np.multiply.accumulate(powers[:, 1:], out=powers[:, 1:], axis=1)
        out = powers @ coefs
        far = t < far_field
        if np.count_nonzero(far):
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

    return FunctionSpace(
        interval,
        values,
        derivatives,
        kind=f"exp:d={degree}",
        rule="lobatto-least-squares",
    )


def rbf_cubic_space(
    centers: Sequence[float], interval: Interval = UNIT_INTERVAL
) -> FunctionSpace:
    """Cardinal basis of cubic radial interpolation with a constant tail.

    Interpolants have the form ``sum_j alpha_j |x - c_j|**3 + beta`` with
    ``sum_j alpha_j = 0``.  The cardinal functions solve the augmented
    symmetric system against unit data; by linearity they sum to one
    identically.  Centers must be a flat list of distinct numbers that
    includes both interval endpoints; they may come in any order and are
    sorted here, so ``[1, 0, 0.5]`` builds ``rbf-cubic:centers=0,0.5,1``.
    """
    c = _reals(centers, "radial centers")
    # sorted, so that a repeated center is the one way to fail the order
    c = _nodes(np.sort(c) if c.ndim else c, "radial centers")
    if not interval.contains(c):
        raise ValueError("radial centers must lie inside the interval")
    if not interval._ends(c):
        raise ValueError("radial centers must include both interval endpoints")

    # the kernel |x - c|**3 reaches the cube of the spread of centers and
    # points; cubed in Python floats, so that an overflow gives inf
    spread = max(float(c[-1]) - float(c[0]), interval.width)
    if not math.isfinite(spread * spread * spread):
        raise ValueError(
            f"radial centers spread over {spread!r}, whose cube in the kernel "
            f"|x - c|**3 is not a finite number"
        )
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

    # the "g" text where it reads back exactly, else the shortest text that
    # does, so that make_space rebuilds this very space from its kind
    centers_txt = ",".join(
        t if float(t := format(v, "g")) == v else repr(float(v)) for v in c
    )
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
    ``rule`` of ``space``: a polynomial or periodic span stays one, and
    an ``exp`` span keeps its Gauss-Lobatto least-squares candidate.
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
    g = _reals(grid, "grid")
    if g.ndim == 0:  # a single point, as np.atleast_1d would reshape it
        g = g.reshape(1)
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


@lru_cache(maxsize=64)
def _pair_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # the row-major pairs k <= l, shared read-only by every call of one dim
    k, l = np.triu_indices(dim)
    k.setflags(write=False)
    l.setflags(write=False)
    return k, l


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


def _on_grid(space: FunctionSpace, nodes: np.ndarray):
    """Read-only value, derivative and pair-derivative matrices on ``nodes``.

    The space keeps the latest grid's matrices, so asking again for the
    same nodes evaluates nothing.  The slot is read once, so a thread
    that races another on the same space may evaluate a grid again, but
    never gets another grid's matrices.
    """
    key = nodes.tobytes()
    kept = space._grid
    if kept is not None and kept[0] == key:
        return kept[1]
    V = vandermonde(space, nodes)
    Vx = vandermonde_derivative(space, nodes)
    # views, so that no array the space's callables own is frozen
    mats = tuple(a.view() for a in (V, Vx, _pair_products(V, Vx, space.dim)))
    for a in mats:
        a.setflags(write=False)
    object.__setattr__(space, "_grid", (key, mats))
    return mats


def _numerical_rank(M: np.ndarray) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))
