"""Quadrature rules whose exactness is tied to a function space.

An operator exact on a space F exists on a given grid if and only if the
grid carries a positive quadrature rule that integrates every derivative
of a product of two elements of F exactly, the integrals being known in
closed form as boundary product moments.  This module builds such rules:
the composite trapezoid rule (exact for trigonometric spaces once the
grid resolves twice the top frequency), Gauss-Lobatto rules (polynomial
spaces), and a minimum-norm least-squares construction on equidistant
nodes that works for any space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as _legendre

from .spaces import FunctionSpace, Interval, pair_derivative_rows, pair_moments

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
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise ValueError("nodes and weights must be finite")
        if np.min(np.diff(nodes)) <= 0.0:
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
    n = int(n_nodes)
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
    polynomial of degree ``n_nodes - 1``, found by damped Newton from
    Chebyshev-Lobatto starting guesses.  Exact for polynomials of degree
    up to ``2*n_nodes - 3``.
    """
    n = int(n_nodes)
    if n < 2:
        raise ValueError(f"Gauss-Lobatto rule needs at least 2 nodes, got {n}")
    if n == 2:
        ref_nodes = np.array([-1.0, 1.0])
        ref_weights = np.array([1.0, 1.0])
    else:
        c = np.zeros(n)
        c[-1] = 1.0  # Legendre polynomial of degree n - 1
        dc = _legendre.legder(c)
        d2c = _legendre.legder(dc)
        x = -np.cos(np.pi * np.arange(1, n - 1) / (n - 1))
        for _ in range(100):
            step = _legendre.legval(x, dc) / _legendre.legval(x, d2c)
            # keep iterates strictly inside (-1, 1)
            while np.any(np.abs(x - step) >= 1.0):
                step *= 0.5
            x = x - step
            if np.max(np.abs(step)) < 1e-14:
                break
        else:
            raise QuadratureError(
                f"Newton iteration for {n}-node Gauss-Lobatto rule did not converge"
            )
        ref_nodes = np.concatenate(([-1.0], np.sort(x), [1.0]))
        pvals = _legendre.legval(ref_nodes, c)
        ref_weights = 2.0 / (n * (n - 1) * pvals**2)
    half = 0.5 * interval.width
    nodes = interval.left + half * (ref_nodes + 1.0)
    nodes[-1] = interval.right
    return QuadratureRule(nodes, half * ref_weights)


def least_squares_rule(space: FunctionSpace, n_nodes: int) -> QuadratureRule:
    """Weights on equidistant nodes matching all pair-derivative moments.

    The raw constraint rows (one per pair of basis elements) are nearly
    parallel for monomial-type spaces and would limit the attainable
    residual, so they are first recombined into an orthonormal set over a
    fine sample grid; the recombination changes neither the constraint
    set nor the reported residual, only the float behaviour.  Starting
    from uniform weights, the minimum-norm correction satisfying the
    recombined constraints is applied, with singular values below
    ``1e-12`` times the largest discarded.  Positivity is reported, not
    enforced.  Raises :class:`QuadratureError` when the grid cannot
    support exactness at all.
    """
    n = int(n_nodes)
    if n < space.dim:
        raise ValueError(
            f"need at least dim={space.dim} nodes for space {space.kind!r}, got {n}"
        )
    iv = space.interval
    nodes = np.linspace(iv.left, iv.right, n)
    Phi = pair_derivative_rows(space, nodes)
    m = pair_moments(space)

    fine = np.linspace(iv.left, iv.right, max(257, 4 * (Phi.shape[0] + n)))
    Hd = pair_derivative_rows(space, fine)
    Uh, sh, _ = np.linalg.svd(Hd, full_matrices=False)
    lhs, rhs = Phi, m
    if sh.size and sh[0] > 0.0:
        rh = int(np.sum(sh > _SVD_RTOL * sh[0]))
        if rh:
            T = (Uh[:, :rh] / sh[:rh]).T
            lhs = T @ Phi
            rhs = T @ m

    w = np.full(n, iv.width / n)
    U, s, Vt = np.linalg.svd(lhs, full_matrices=False)
    if s.size and s[0] > 0.0:
        r = int(np.sum(s > _SVD_RTOL * s[0]))
        if r:
            lhs_r = Vt[:r]
            rhs_r = (U[:, :r].T @ rhs) / s[:r]
            w = w + lhs_r.T @ (rhs_r - lhs_r @ w)

    resid = Phi @ w - m
    scaled = np.abs(resid) / np.maximum(1.0, np.abs(m))
    worst = float(np.max(scaled)) if scaled.size else 0.0
    if worst > EXACTNESS_RTOL:
        raise QuadratureError(
            f"{n} equidistant nodes cannot integrate the derivative span of "
            f"{space.kind!r}: residual {worst:.3e}"
        )
    return QuadratureRule(nodes, w)


def verify_exactness(rule: QuadratureRule, space: FunctionSpace) -> ExactnessReport:
    """Check a rule against every pair-derivative moment of a space."""
    iv = space.interval
    slack = 1e-12 * iv.width
    if (
        abs(rule.nodes[0] - iv.left) > slack
        or abs(rule.nodes[-1] - iv.right) > slack
    ):
        raise ValueError("rule and space do not share an interval")
    Phi = pair_derivative_rows(space, rule.nodes)
    m = pair_moments(space)
    resid = np.abs(Phi @ rule.weights - m)
    scaled = resid / np.maximum(1.0, np.abs(m))
    return ExactnessReport(
        max_residual=float(np.max(resid)) if resid.size else 0.0,
        max_scaled_residual=float(np.max(scaled)) if scaled.size else 0.0,
        positive=bool(np.all(rule.weights > 0.0)),
    )


def _ladder(space: FunctionSpace, n_start: int | None, n_max: int | None) -> range:
    """Node counts of a rule ladder: family start, window of 24, at least 2."""
    if n_start is None:
        # Gauss-Lobatto with dim nodes already integrates the product span
        n_start = max(space.dim, 2) if space.kind.startswith("poly") else space.dim + 1
    n_start = int(n_start)
    if n_start < 2:
        raise ValueError(f"node ladder must start at 2 or above, got {n_start}")
    n_max = n_start + 24 if n_max is None else int(n_max)
    return range(n_start, n_max + 1)


def _candidates(space: FunctionSpace, n: int):
    # built on demand, so a passing closed form skips the least-squares rule
    kind = space.kind.split(":", 1)[0]
    if kind == "trig":
        yield trapezoid_rule(n, space.interval)
    elif kind == "poly":
        yield gauss_lobatto_rule(n, space.interval)
    if n >= space.dim:
        try:
            rule = least_squares_rule(space, n)
        except QuadratureError:
            return
        yield rule


def find_positive_rule(
    space: FunctionSpace,
    n_start: int | None = None,
    n_max: int | None = None,
) -> QuadratureRule:
    """Smallest positive exact rule found in a node-count ladder.

    The ladder runs from ``n_start`` (by default ``dim`` nodes for
    polynomial kinds, ``dim + 1`` otherwise) to ``n_max`` (by default 24
    more).  For each node count, family-specific candidates come first
    (trapezoid for trigonometric kinds, Gauss-Lobatto for polynomial
    kinds), then the least-squares construction, each built only when the
    ones before it fail.  The first candidate passing both the exactness
    and positivity checks is returned as built.
    """
    rungs = _ladder(space, n_start, n_max)
    for n in rungs:
        for rule in _candidates(space, n):
            if verify_exactness(rule, space).ok:
                return rule
    raise QuadratureError(
        f"no positive exact rule for {space.kind!r} with "
        f"{rungs.start}..{rungs.stop - 1} nodes"
    )
