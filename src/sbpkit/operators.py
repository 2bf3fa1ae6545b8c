"""Construction and verification of derivative operators D = P^{-1} Q.

Given a function space F and a positive quadrature rule on the same grid
that is exact for the derivative span of F*F, there is a matrix Q with

* ``D F = F_x`` for the value/derivative Vandermonde pair of F,
* ``Q + Q^T = B`` with B = diag(-1, 0, ..., 0, 1),

and D = P^{-1} Q then differentiates every member of F exactly while
mimicking integration by parts discretely.  The symmetric part of Q is
fixed to B/2; the antisymmetric part is the minimum-norm least-squares
solution of the exactness equations, written in closed form through the
thin SVD of the Vandermonde matrix F, so the construction is
deterministic.

Operators serialize to a plain JSON file with every real printed at 17
significant digits; readers reject files that fail verification.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .quadrature import (
    QuadratureError,
    QuadratureRule,
    _ladder,
    _on_grid,
    _search_scope,
    find_positive_rule,
    verify_exactness,
)
from .spaces import RANK_RTOL, FunctionSpace, Interval, affine_map, make_space

__all__ = [
    "OperatorError",
    "FsbpOperator",
    "SbpReport",
    "build_operator",
    "find_operator",
    "verify_sbp",
    "apply",
    "affine_block_operator",
    "rule_of",
    "write_operator",
    "read_operator",
    "TOL_EXACTNESS",
    "TOL_ANTISYMMETRY",
    "TOL_CONSTANT",
    "TOL_COHERENCE",
]

#: max |D F - F_x| over the space Vandermonde
TOL_EXACTNESS = 1e-8
#: max |Q + Q^T - B|
TOL_ANTISYMMETRY = 1e-12
#: max |D 1| when constants lie in the span
TOL_CONSTANT = 1e-10
#: max |D - P^{-1} Q|
TOL_COHERENCE = 1e-13

# infinity-norm gate on the least-squares residual of the exactness system
_BUILD_RESIDUAL_TOL = 1e-10

_log = logging.getLogger(__name__)


class OperatorError(RuntimeError):
    """Operator construction or verification failed."""


@dataclass(frozen=True)
class FsbpOperator:
    """Derivative operator bound to its space, grid and norm weights.

    ``p`` holds the diagonal of the norm matrix P.  All arrays are frozen
    after construction and may be shared freely.
    """

    space: FunctionSpace
    nodes: np.ndarray
    p: np.ndarray
    Q: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        for name in ("nodes", "p", "Q", "D"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.nodes.size
        if self.p.shape != (n,) or self.Q.shape != (n, n) or self.D.shape != (n, n):
            raise ValueError("inconsistent operator array shapes")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class SbpReport:
    """Scalar diagnostics produced by :func:`verify_sbp`."""

    exactness_residual: float
    antisymmetry_residual: float
    min_weight: float
    d_one_residual: float
    coherence_residual: float
    passed: bool


def _boundary_matrix(n: int) -> np.ndarray:
    B = np.zeros((n, n))
    B[0, 0] = -1.0
    B[-1, -1] = 1.0
    return B


def build_operator(space: FunctionSpace, rule: QuadratureRule) -> FsbpOperator:
    """Build the operator for a space from a positive exact rule.

    The antisymmetric part Q_A of Q minimises ``|Q_A F - (P F_x - B F / 2)|``
    in the Frobenius norm, and among all minimisers it has the smallest
    norm.  With ``F = U diag(s) W^T`` this is closed form: a 2x2 problem
    per pair of singular directions, plus the part of the right-hand side
    outside the range of U divided by ``s``.  Raises
    :class:`OperatorError` if the rule fails exactness or positivity, the
    grid does not determine the space uniquely, or the largest entry of
    the residual exceeds the gate.

    The rule check and the build share one evaluation of the space on the
    rule's grid; inside a search it is the one the search already holds.
    """
    x = rule.nodes
    p = rule.weights
    n = x.size
    K = space.dim
    with _search_scope():
        report = verify_exactness(rule, space)
        if not report.positive:
            raise OperatorError(
                f"rule has non-positive weights (min {np.min(p):.3e})"
            )
        if not report.exact:
            raise OperatorError(
                f"rule is not exact for {space.kind!r}: "
                f"residual {report.max_scaled_residual:.3e}"
            )
        F, Fx, _ = _on_grid(space, x)
    U, s, Wt = np.linalg.svd(F, full_matrices=False)
    # full rank: every singular value above RANK_RTOL times the largest
    if s.size < K or not s[-1] > RANK_RTOL * s[0]:
        raise OperatorError(
            f"grid does not determine {space.kind!r} uniquely "
            f"(rank below {K}); refine the grid"
        )

    B = _boundary_matrix(n)
    R = p[:, None] * Fx - 0.5 * (B @ F)

    # X: block of QA on range(U); Y: range(U) into its complement; the
    # block on the complement is zero for the minimum norm
    RW = R @ Wt.T
    Z = U.T @ RW
    X = (Z * s - s[:, None] * Z.T) / (s[:, None] ** 2 + s**2)
    Y = (RW - U @ Z) / s
    M = U @ X @ U.T + Y @ U.T - U @ Y.T
    QA = 0.5 * (M - M.T)
    residual = float(np.abs(QA @ F - R).max())
    if residual > _BUILD_RESIDUAL_TOL:
        raise OperatorError(
            f"exactness system for {space.kind!r} on {n} nodes is "
            f"inconsistent: residual {residual:.3e}"
        )

    Q = QA + 0.5 * B
    D = Q / p[:, None]
    return FsbpOperator(space=space, nodes=x, p=p, Q=Q, D=D)


def find_operator(space: FunctionSpace, n_nodes: int | None = None) -> FsbpOperator:
    """Operator on the smallest workable grid from the rule ladder.

    Each rung (the ladder of :func:`find_positive_rule`) takes the positive
    exact rule with that node count, builds the operator and checks it
    with :func:`verify_sbp`; the first rung to pass all three wins.  A rule
    can sit just inside the quadrature residual gate while its operator
    misses a verification tolerance, so a failed rung moves the search on.
    A pinned ``n_nodes`` is a one-rung ladder whose failure propagates; an
    exhausted ladder raises :class:`OperatorError` with the last reason.
    Each rejected rung is logged at DEBUG on the ``sbpkit`` logger.

    The search evaluates the space once per grid: the rule check, the
    build and the verification of a rung share their matrices, and every
    rule is checked against the moments the space computed when it was
    constructed.  Nothing is kept after the call.
    """
    rungs = _ladder(space, n_nodes)
    with _search_scope():
        for n in rungs:
            try:
                rule = find_positive_rule(space, n)
                op = build_operator(space, rule)
                report = verify_sbp(op)
                if not report.passed:
                    raise OperatorError(
                        f"operator for {space.kind!r} on {n} nodes fails "
                        f"verification: exactness {report.exactness_residual:.3e}, "
                        f"constant residual {report.d_one_residual:.3e}"
                    )
                return op
            except (QuadratureError, OperatorError) as exc:
                _log.debug("rung of %s nodes rejected: %s", n, exc)
                if n_nodes is not None:
                    raise
                last_error = exc
    raise OperatorError(
        f"no workable operator for {space.kind!r} with up to "
        f"{rungs.stop - 1} nodes; last: {last_error}"
    ) from last_error


def verify_sbp(op: FsbpOperator) -> SbpReport:
    """Recompute the defining residuals of an operator.

    Checks exactness on the space, antisymmetry of Q against the boundary
    matrix, positivity of the norm weights, annihilation of constants
    (when the span contains them) and coherence of D with P^{-1} Q.
    """
    F, Fx, _ = _on_grid(op.space, op.nodes)
    exactness = float(np.abs(op.D @ F - Fx).max())
    B = _boundary_matrix(op.n_nodes)
    antisymmetry = float(np.abs(op.Q + op.Q.T - B).max())
    min_weight = float(op.p.min())
    ones = np.ones(op.n_nodes)
    d_one = float(np.abs(op.D @ ones).max())
    coherence = float(np.abs(op.D - op.Q / op.p[:, None]).max())
    passed = (
        exactness <= TOL_EXACTNESS
        and antisymmetry <= TOL_ANTISYMMETRY
        and min_weight > 0.0
        and coherence <= TOL_COHERENCE
        and (not op.space.contains_constants or d_one <= TOL_CONSTANT)
    )
    return SbpReport(
        exactness_residual=exactness,
        antisymmetry_residual=antisymmetry,
        min_weight=min_weight,
        d_one_residual=d_one,
        coherence_residual=coherence,
        passed=passed,
    )


def apply(op: FsbpOperator, u: np.ndarray) -> np.ndarray:
    """Differentiate nodal values: ``D @ u``."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n_nodes,):
        raise ValueError(f"expected {op.n_nodes} nodal values, got shape {u.shape}")
    return op.D @ u


def affine_block_operator(op: FsbpOperator, interval: Interval) -> FsbpOperator:
    """Transplant an operator onto another interval.

    Nodes map affinely, the norm weights scale with the width ratio, Q is
    invariant and D picks up the inverse scale.  The attached space is
    pulled back through the same chart, so exactness is preserved in the
    mapped sense.
    """
    src = op.space.interval
    s = interval.width / src.width
    nodes = interval.left + (op.nodes - src.left) * s
    nodes[0] = interval.left
    nodes[-1] = interval.right
    return FsbpOperator(
        space=affine_map(op.space, interval),
        nodes=nodes,
        p=op.p * s,
        Q=op.Q.copy(),
        D=op.D / s,
    )


def rule_of(op: FsbpOperator) -> QuadratureRule:
    """The quadrature rule an operator carries in its norm weights."""
    return QuadratureRule(op.nodes.copy(), op.p.copy())


# ---------------------------------------------------------------------------
# operator files


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _fmt_vector(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def _fmt_matrix(M: np.ndarray) -> str:
    rows = ",\n    ".join(_fmt_vector(row) for row in M)
    return "[\n    " + rows + "\n  ]"


def write_operator(op: FsbpOperator, path) -> None:
    """Serialize an operator to a JSON text file at full precision.

    Only natively built spaces round-trip through their textual kind, so
    affinely mapped operators are refused.
    """
    try:
        make_space(op.space.kind, op.space.interval)
    except ValueError as exc:
        raise ValueError(
            f"space {op.space.kind!r} has no textual form; "
            f"build the operator natively on its interval to serialize it"
        ) from exc
    iv = op.space.interval
    text = (
        "{\n"
        f'  "space": {json.dumps(op.space.kind)},\n'
        f'  "domain": [{_fmt(iv.left)}, {_fmt(iv.right)}],\n'
        f'  "nodes": {_fmt_vector(op.nodes)},\n'
        f'  "weights": {_fmt_vector(op.p)},\n'
        f'  "Q": {_fmt_matrix(op.Q)},\n'
        f'  "D": {_fmt_matrix(op.D)}\n'
        "}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


def read_operator(path) -> FsbpOperator:
    """Load and verify an operator file.

    Raises ``ValueError`` for malformed files and
    :class:`OperatorError` when the stored matrices fail verification.
    """
    op = _load_unchecked(path)
    report = verify_sbp(op)
    if not report.passed:
        raise OperatorError(
            f"operator file {path} fails verification: "
            f"exactness {report.exactness_residual:.3e}, "
            f"antisymmetry {report.antisymmetry_residual:.3e}, "
            f"min weight {report.min_weight:.3e}, "
            f"constant residual {report.d_one_residual:.3e}"
        )
    return op


def _load_unchecked(path) -> FsbpOperator:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"operator file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"operator file {path} must hold a JSON object")
    required = ("space", "domain", "nodes", "weights", "Q", "D")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"operator file {path} misses fields: {missing}")
    domain = data["domain"]
    if not (isinstance(domain, list) and len(domain) == 2):
        raise ValueError(f"operator file {path}: domain must be [left, right]")
    try:
        left, right = float(domain[0]), float(domain[1])
        nodes, weights, Q, D = (
            np.asarray(data[key], dtype=float) for key in ("nodes", "weights", "Q", "D")
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"operator file {path}: domain and arrays must hold numbers ({exc})"
        ) from exc
    # asarray turns a null entry (None) into nan without complaint
    if not all(np.all(np.isfinite(a)) for a in (nodes, weights, Q, D)):
        raise ValueError(f"operator file {path}: arrays must hold finite numbers")
    space = make_space(str(data["space"]), Interval(left, right))
    if nodes.ndim != 1 or weights.shape != nodes.shape:
        raise ValueError(f"operator file {path}: bad nodes/weights shapes")
    n = nodes.size
    if Q.shape != (n, n) or D.shape != (n, n):
        raise ValueError(f"operator file {path}: bad matrix shapes")
    return FsbpOperator(space=space, nodes=nodes, p=weights, Q=Q, D=D)
