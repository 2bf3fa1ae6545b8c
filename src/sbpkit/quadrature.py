"""Quadrature rules whose exactness is tied to a function space.

An operator exact on a space F exists on a given grid if and only if the
grid carries a positive quadrature rule that integrates every derivative
of a product of two elements of F exactly, the integrals being known in
closed form as boundary product moments.  This module builds such rules:
the composite trapezoid rule (exact for trigonometric spaces once the
grid resolves twice the top frequency), Gauss-Lobatto rules (polynomial
spaces), and a minimum-norm least-squares correction of a start rule's
weights that works for any space: on equidistant nodes for every space,
and on Gauss-Lobatto nodes for spaces that ask for it.  The rule
constructors never judge a rule: :func:`verify_exactness` alone does.

The space keeps its matrices on the latest grid it was checked on, so
that a rung's rule check, build and verification evaluate the space there
once.  The moments every rule must reproduce are ``space.moments``,
computed when the space is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _legendre

from .spaces import (
    FunctionSpace,
    Interval,
    _all_finite,
    _amax,
    _count,
    _nodes,
    _on_grid,
    _reals,
)

__all__ = [
    "QuadratureError",
    "QuadratureRule",
    "ExactnessReport",
    "trapezoid_rule",
    "gauss_lobatto_rule",
    "least_squares_rule",
    "verify_exactness",
    "find_positive_rule",
    "EXACTNESS_RTOL",
]

#: a rule is accepted when every pair-derivative residual satisfies
#: |residual| <= EXACTNESS_RTOL * max(1, |moment|)
EXACTNESS_RTOL = 1e-10

# relative cutoff for the SVD row-space truncation in _corrected, the weight
# correction of every least-squares rule
_SVD_RTOL = 1e-12


class QuadratureError(RuntimeError):
    """No rule with the requested properties could be constructed."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on an interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = _nodes(self.nodes, "nodes")
        weights = _reals(self.weights, "weights")
        if weights.shape != nodes.shape:
            raise ValueError(f"weights have shape {weights.shape}, nodes {nodes.shape}")
        if not _all_finite(weights):
            raise ValueError("weights must be finite")
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class ExactnessReport:
    """Outcome of checking a rule against a space.

    ``max_scaled_residual`` is the largest absolute pair-derivative
    residual after dividing each residual by ``max(1, |moment|)``, and
    ``positive`` whether all weights are strictly positive.
    """

    max_scaled_residual: float
    positive: bool

    @property
    def exact(self) -> bool:
        return self.max_scaled_residual <= EXACTNESS_RTOL

    @property
    def ok(self) -> bool:
        return self.exact and self.positive


def _equispaced(interval: Interval, n: int) -> np.ndarray:
    """``np.linspace(interval.left, interval.right, n)``, bit for bit.

    The same steps as numpy's own, without its argument handling: the
    counts ``0, 1, ..., n - 1`` times the step, plus the left end, with
    the right end set exactly.  Below two nodes, or when the step
    underflows to zero, numpy's function itself runs.
    """
    left, right = interval.left, interval.right
    step = (right - left) / (n - 1) if n >= 2 else 0.0
    if step == 0.0:
        return np.linspace(left, right, n)
    x = np.arange(n, dtype=float)
    x *= step
    x += left
    x[-1] = right
    return x


def trapezoid_rule(n_nodes: int, interval: Interval) -> QuadratureRule:
    """Composite trapezoid rule on ``n_nodes`` (whole, 2 to 2**53) equidistant nodes.

    The nodes are ``np.linspace(interval.left, interval.right, n_nodes)``.
    """
    n = _count(n_nodes, "trapezoid rule n_nodes", 2)
    nodes = _equispaced(interval, n)
    h = interval.width / (n - 1)
    weights = np.empty(n)
    weights.fill(h)
    weights[0] = weights[-1] = 0.5 * h
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=128)
def _reference_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the n-node rule on [-1, 1], as its nodes shifted by 1 and its weights,
    # shared read-only by every call of one node count
    k = np.arange(1.0, n - 2)
    jacobi = np.zeros((n - 2, n - 2))
    i = np.arange(n - 3)
    jacobi[i + 1, i] = jacobi[i, i + 1] = np.sqrt(
        k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    )
    ref_nodes = np.concatenate(([-1.0], np.linalg.eigvalsh(jacobi), [1.0]))
    c = np.zeros(n)
    c[-1] = 1.0  # Legendre polynomial of degree n - 1
    pvals = _legendre.legval(ref_nodes, c)
    ref_weights = 2.0 / (n * (n - 1) * pvals**2)
    shifted = ref_nodes + 1.0
    shifted.setflags(write=False)
    ref_weights.setflags(write=False)
    return shifted, ref_weights


def gauss_lobatto_rule(n_nodes: int, interval: Interval) -> QuadratureRule:
    """Gauss-Lobatto rule with ``n_nodes`` (whole, 2 to 2**53) nodes, ends included.

    Interior nodes are the roots of the derivative of the Legendre
    polynomial of degree ``n_nodes - 1``, computed as the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the weight ``1 - x**2``
    (Golub & Welsch, 1969).  Exact for polynomials of degree up to
    ``2*n_nodes - 3``.  The reference rule on [-1, 1] is computed once
    per node count per process, read-only, and mapped affinely onto
    ``interval`` on every call.
    """
    n = _count(n_nodes, "Gauss-Lobatto rule n_nodes", 2)
    shifted, ref_weights = _reference_lobatto(n)
    half = 0.5 * interval.width
    nodes = interval.left + half * shifted
    nodes[-1] = interval.right
    return QuadratureRule(nodes, half * ref_weights)


def _corrected(space: FunctionSpace, start: QuadratureRule) -> QuadratureRule:
    """``start`` with the minimum-norm weight correction for the pair moments.

    The constraints are one row per pair of basis elements, evaluated on
    the start's nodes, against the pair moments.  The minimum-norm
    correction of the start's weights that satisfies them is applied, with
    singular values below ``1e-12`` times the largest discarded.  The
    nodes stay the start's.
    """
    _, _, Phi = _on_grid(space, start.nodes)
    w = start.weights
    U, s, Vt = np.linalg.svd(Phi, full_matrices=False)
    if s[0] > 0.0:
        r = int(np.count_nonzero(s > _SVD_RTOL * s[0]))
        lhs_r = Vt[:r]
        rhs_r = (U[:, :r].T @ space.moments) / s[:r]
        w = w + lhs_r.T @ (rhs_r - lhs_r @ w)
    return QuadratureRule(start.nodes, w)


def least_squares_rule(space: FunctionSpace, n_nodes: int) -> QuadratureRule:
    """Minimum-norm weights on equidistant nodes for the pair-derivative moments.

    The uniform weights ``width / n_nodes`` on
    ``np.linspace(left, right, n_nodes)`` over the space's interval get
    the minimum-norm correction that makes them reproduce the pair
    moments, as far as the pair rows on those nodes allow.  The rule is
    returned as built, exact or not and positive or not:
    :func:`verify_exactness` judges it.  ``n_nodes`` must be a whole
    number from ``dim`` to 2**53, or ``ValueError`` names it.
    """
    n = _count(n_nodes, f"n_nodes for {space.kind!r} of dim {space.dim}", space.dim)
    iv = space.interval
    w = np.empty(n)
    w.fill(iv.width / n)
    return _corrected(space, QuadratureRule(_equispaced(iv, n), w))


def verify_exactness(rule: QuadratureRule, space: FunctionSpace) -> ExactnessReport:
    """Check a rule against every pair-derivative moment of a space.

    The residuals are recomputed on every call, from the pair rows the
    space keeps for the rule's grid.
    """
    if not space.interval._ends(rule.nodes):
        raise ValueError("rule and space do not share an interval")
    _, _, Phi = _on_grid(space, rule.nodes)
    m = space.moments
    resid = np.abs(Phi @ rule.weights - m)
    scaled = resid / np.maximum(1.0, np.abs(m))
    return ExactnessReport(
        max_scaled_residual=float(_amax(scaled)),
        positive=bool(np.count_nonzero(rule.weights > 0.0) == rule.weights.size),
    )


def _ladder(space: FunctionSpace, n_nodes: int | None) -> range:
    """Node counts to search: the pinned ``n_nodes``, or 25 from the start."""
    if n_nodes is not None:
        n = _count(n_nodes, "n_nodes", 2)
        return range(n, n + 1)
    # Gauss-Lobatto with dim nodes already integrates the product span
    start = max(space.dim, 2) if space.rule == "gauss-lobatto" else space.dim + 1
    return range(start, start + 25)


def _candidates(space: FunctionSpace, n: int):
    # built on demand, so a passing candidate skips the ones after it
    if space.rule == "trapezoid":
        yield trapezoid_rule(n, space.interval)
    elif space.rule == "gauss-lobatto":
        yield gauss_lobatto_rule(n, space.interval)
    if n >= space.dim:
        yield least_squares_rule(space, n)
        if space.rule == "lobatto-least-squares":
            yield _corrected(space, gauss_lobatto_rule(n, space.interval))


def find_positive_rule(
    space: FunctionSpace, n_nodes: int | None = None
) -> QuadratureRule:
    """Smallest positive exact rule found in a node-count ladder.

    Both the ladder and the candidates follow ``space.rule``.  The ladder
    runs over 25 node counts from ``dim`` for ``"gauss-lobatto"`` and from
    ``dim + 1`` otherwise; a given ``n_nodes`` (a whole number from 2 to
    2**53) pins it to that one count.
    For each node count, the closed-form rule the space names comes first
    (trapezoid or Gauss-Lobatto), then the equispaced least-squares rule,
    then, for ``"lobatto-least-squares"``, the least-squares weights on
    Gauss-Lobatto nodes; each is built only when the ones before it fail.
    The first candidate that :func:`verify_exactness` finds exact and
    positive is returned as built.
    """
    rungs = _ladder(space, n_nodes)
    for n in rungs:
        for rule in _candidates(space, n):
            if verify_exactness(rule, space).ok:
                return rule
    counts = f"{rungs.start}" if len(rungs) == 1 else f"{rungs.start}..{rungs[-1]}"
    raise QuadratureError(
        f"no positive exact rule for {space.kind!r} with {counts} nodes"
    )
