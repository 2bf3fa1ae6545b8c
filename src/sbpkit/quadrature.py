"""Quadrature rules whose exactness is tied to a function space.

An operator exact on a space F exists on a given grid if and only if the
grid carries a positive quadrature rule that integrates every derivative
of a product of two elements of F exactly, the integrals being known in
closed form as boundary product moments.  This module builds such rules:
the composite trapezoid rule (exact for trigonometric spaces once the
grid resolves twice the top frequency), Gauss-Lobatto rules (polynomial
spaces), and a minimum-norm least-squares construction on equidistant
nodes that works for any space.  The rule constructors never judge a
rule: :func:`verify_exactness` alone does.

A search (:func:`find_positive_rule`, and ``find_operator`` in
:mod:`sbpkit.operators`) keeps the matrices of the space on the current
rung's grid, so that a rung's rule check, build and verification evaluate
the space there once.  Only the latest grid is kept, and only for that
one call; a direct call of any other function evaluates the space afresh.
The moments every rule must reproduce are ``space.moments``, computed
when the space is constructed.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as _legendre

from .spaces import (
    FunctionSpace,
    Interval,
    _pair_products,
    _whole_count,
    vandermonde,
    vandermonde_derivative,
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

# relative cutoff for the SVD row-space truncation in least_squares_rule
_SVD_RTOL = 1e-12


class QuadratureError(RuntimeError):
    """No rule with the requested properties could be constructed."""


# The current grid of the search in progress, as a list holding at most
# one (space, node bytes, (V, Vx, Phi)); None outside a search, so direct
# calls evaluate the space afresh.
_SEARCH: ContextVar[list | None] = ContextVar("sbpkit_search", default=None)


@contextmanager
def _search_scope():
    """Open the memo of one search; a search nested in another shares it."""
    if _SEARCH.get() is not None:
        yield
        return
    token = _SEARCH.set([])
    try:
        yield
    finally:
        _SEARCH.reset(token)


def _on_grid(space: FunctionSpace, nodes: np.ndarray):
    """Read-only value, derivative and pair-derivative matrices on ``nodes``.

    Inside a search the latest grid's matrices are kept, so asking again
    for the same space and nodes evaluates nothing.
    """
    memo = _SEARCH.get()
    key = nodes.tobytes()
    if memo and memo[0][0] is space and memo[0][1] == key:
        return memo[0][2]
    V = vandermonde(space, nodes)
    Vx = vandermonde_derivative(space, nodes)
    # views, so that no array the space's callables own is frozen
    mats = tuple(a.view() for a in (V, Vx, _pair_products(V, Vx, space.dim)))
    for a in mats:
        a.setflags(write=False)
    if memo is not None:
        memo[:] = [(space, key, mats)]
    return mats


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on an interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size < 2:
            raise ValueError("a rule needs at least two nodes")
        if not np.isfinite(nodes).all() or not np.isfinite(weights).all():
            raise ValueError("nodes and weights must be finite")
        if np.diff(nodes).min() <= 0.0:
            raise ValueError("nodes must be strictly increasing")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def interval(self) -> Interval:
        return Interval(float(self.nodes[0]), float(self.nodes[-1]))


@dataclass(frozen=True)
class ExactnessReport:
    """Outcome of checking a rule against a space.

    ``max_residual`` is the largest absolute pair-derivative residual,
    ``max_scaled_residual`` the same after dividing each residual by
    ``max(1, |moment|)``, and ``positive`` whether all weights are
    strictly positive.
    """

    max_residual: float
    max_scaled_residual: float
    positive: bool

    @property
    def exact(self) -> bool:
        return self.max_scaled_residual <= EXACTNESS_RTOL

    @property
    def ok(self) -> bool:
        return self.exact and self.positive


def trapezoid_rule(n_nodes: int, interval: Interval) -> QuadratureRule:
    """Composite trapezoid rule on ``n_nodes`` equidistant nodes."""
    n = _whole_count(n_nodes)
    if n < 2:
        raise ValueError(f"trapezoid rule needs at least 2 nodes, got {n}")
    nodes = np.linspace(interval.left, interval.right, n)
    h = interval.width / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    return QuadratureRule(nodes, weights)


def gauss_lobatto_rule(n_nodes: int, interval: Interval) -> QuadratureRule:
    """Gauss-Lobatto rule with ``n_nodes`` nodes, endpoints included.

    Interior nodes are the roots of the derivative of the Legendre
    polynomial of degree ``n_nodes - 1``, computed as the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the weight ``1 - x**2``
    (Golub & Welsch, 1969).  Exact for polynomials of degree up to
    ``2*n_nodes - 3``.
    """
    n = _whole_count(n_nodes)
    if n < 2:
        raise ValueError(f"Gauss-Lobatto rule needs at least 2 nodes, got {n}")
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
    half = 0.5 * interval.width
    nodes = interval.left + half * (ref_nodes + 1.0)
    nodes[-1] = interval.right
    return QuadratureRule(nodes, half * ref_weights)


def least_squares_rule(space: FunctionSpace, n_nodes: int) -> QuadratureRule:
    """Minimum-norm weights on equidistant nodes for the pair-derivative moments.

    The constraints are one row per pair of basis elements, evaluated on
    the nodes, against the pair moments.  Starting from uniform weights,
    the minimum-norm correction satisfying them is applied, with singular
    values below ``1e-12`` times the largest discarded.  The rule is
    returned as built, exact or not and positive or not:
    :func:`verify_exactness` judges it.  Raises ``ValueError`` when
    ``n_nodes`` is not a whole number or is below ``dim``.
    """
    n = _whole_count(n_nodes)
    if n < space.dim:
        raise ValueError(
            f"need at least dim={space.dim} nodes for space {space.kind!r}, got {n}"
        )
    iv = space.interval
    nodes = np.linspace(iv.left, iv.right, n)
    _, _, Phi = _on_grid(space, nodes)
    m = space.moments

    w = np.full(n, iv.width / n)
    U, s, Vt = np.linalg.svd(Phi, full_matrices=False)
    if s[0] > 0.0:
        r = int(np.count_nonzero(s > _SVD_RTOL * s[0]))
        lhs_r = Vt[:r]
        rhs_r = (U[:, :r].T @ m) / s[:r]
        w = w + lhs_r.T @ (rhs_r - lhs_r @ w)
    return QuadratureRule(nodes, w)


def verify_exactness(rule: QuadratureRule, space: FunctionSpace) -> ExactnessReport:
    """Check a rule against every pair-derivative moment of a space.

    The residuals are recomputed on every call; inside a search the pair
    rows on the rule's grid are the ones the search already holds.
    """
    iv = space.interval
    slack = 1e-12 * iv.width
    if (
        abs(rule.nodes[0] - iv.left) > slack
        or abs(rule.nodes[-1] - iv.right) > slack
    ):
        raise ValueError("rule and space do not share an interval")
    _, _, Phi = _on_grid(space, rule.nodes)
    m = space.moments
    resid = np.abs(Phi @ rule.weights - m)
    scaled = resid / np.maximum(1.0, np.abs(m))
    return ExactnessReport(
        max_residual=float(resid.max()),
        max_scaled_residual=float(scaled.max()),
        positive=bool((rule.weights > 0.0).all()),
    )


def _ladder(space: FunctionSpace, n_nodes: int | None) -> range:
    """Node counts to search: the pinned ``n_nodes``, or 25 from the start."""
    if n_nodes is not None:
        n = _whole_count(n_nodes)
        if n < 2:
            raise ValueError(f"node ladder must start at 2 or above, got {n}")
        return range(n, n + 1)
    # Gauss-Lobatto with dim nodes already integrates the product span
    start = max(space.dim, 2) if space.rule == "gauss-lobatto" else space.dim + 1
    return range(start, start + 25)


def _candidates(space: FunctionSpace, n: int):
    # built on demand, so a passing closed form skips the least-squares rule
    if space.rule == "trapezoid":
        yield trapezoid_rule(n, space.interval)
    elif space.rule == "gauss-lobatto":
        yield gauss_lobatto_rule(n, space.interval)
    if n >= space.dim:
        yield least_squares_rule(space, n)


def find_positive_rule(
    space: FunctionSpace, n_nodes: int | None = None
) -> QuadratureRule:
    """Smallest positive exact rule found in a node-count ladder.

    Both the ladder and the candidates follow ``space.rule``.  The ladder
    runs over 25 node counts from ``dim`` for ``"gauss-lobatto"`` and from
    ``dim + 1`` otherwise; a given ``n_nodes`` pins it to that one count.
    For each node count, the closed-form rule the space names comes first
    (trapezoid or Gauss-Lobatto), then the least-squares construction,
    each built only when the ones before it fail.  The first candidate
    that :func:`verify_exactness` finds exact and positive is returned as
    built.
    """
    rungs = _ladder(space, n_nodes)
    with _search_scope():
        for n in rungs:
            for rule in _candidates(space, n):
                if verify_exactness(rule, space).ok:
                    return rule
    counts = f"{rungs.start}" if len(rungs) == 1 else f"{rungs.start}..{rungs[-1]}"
    raise QuadratureError(
        f"no positive exact rule for {space.kind!r} with {counts} nodes"
    )
