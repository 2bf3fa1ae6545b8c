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

import contextlib
import json
import logging
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .quadrature import (
    ExactnessReport,
    QuadratureError,
    QuadratureRule,
    _ladder,
    find_positive_rule,
    verify_exactness,
)
from .spaces import (
    RANK_RTOL,
    FunctionSpace,
    Interval,
    _all_finite,
    _amax,
    _amin,
    _on_grid,
    _real,
    _reals,
    affine_map,
    make_space,
)

__all__ = [
    "OperatorError",
    "FsbpOperator",
    "SbpReport",
    "build_operator",
    "find_operator",
    "verify_sbp",
    "affine_block_operator",
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

# operators found by the searches of the running convergence study, keyed
# by (id(space), n_nodes); None outside a study, see _study_scope
_STUDY: ContextVar[dict | None] = ContextVar("sbpkit_study", default=None)


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
            arr = _reals(getattr(self, name), name)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.nodes.size
        shapes = (self.nodes.ndim, self.p.shape, self.Q.shape, self.D.shape)
        if shapes != (1, (n,), (n, n), (n, n)):
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

    The rule check and the build share the space's one evaluation on the
    rule's grid; after a search it is the one the search already holds.
    """
    x = rule.nodes
    p = rule.weights
    n = x.size
    K = space.dim
    report = verify_exactness(rule, space)
    if not report.positive:
        raise OperatorError(f"rule has non-positive weights (min {np.min(p):.3e})")
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
    residual = float(_amax(np.abs(QA @ F - R)))
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
    build and the verification of a rung share the matrices the space
    keeps for its latest grid, and every rule is checked against the
    moments the space computed when it was constructed.  The space keeps
    the winning grid's matrices after the call.

    Inside a convergence study (:func:`~sbpkit.diagnostics.convergence_table`)
    the first search of a space object with a given ``n_nodes`` walks the
    ladder, and every later one in the same study returns that same
    frozen operator, with one DEBUG record in place of the rung records.
    This memo holds the results of the study's searches, not the
    evaluations inside one search; it keeps no failure and is dropped
    when the study returns or raises.
    """
    rungs = _ladder(space, n_nodes)
    study = _STUDY.get()
    if study is not None and (op := study.get((id(space), n_nodes))) is not None:
        _log.debug(
            "reusing the %s-node operator this study found for %s; "
            "its rejected rungs were logged by that search",
            op.n_nodes,
            space.kind,
        )
        return op
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
            if study is not None:
                study[id(space), n_nodes] = op
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


@contextlib.contextmanager
def _study_scope():
    """Share each search's operator among the levels of one study.

    Within the block, :func:`find_operator` keeps every operator it finds,
    keyed by the space object and the pin as given; the memo holds each
    space through its operator, so no id is reused while the block runs.
    """
    token = _STUDY.set({})
    try:
        yield
    finally:
        _STUDY.reset(token)


def verify_sbp(op: FsbpOperator) -> SbpReport:
    """Recompute the defining residuals of an operator.

    Checks exactness on the space, antisymmetry of Q against the boundary
    matrix, positivity of the norm weights, annihilation of constants
    (when the span contains them) and coherence of D with P^{-1} Q.
    """
    F, Fx, _ = _on_grid(op.space, op.nodes)
    exactness = float(_amax(np.abs(op.D @ F - Fx)))
    B = _boundary_matrix(op.n_nodes)
    antisymmetry = float(_amax(np.abs(op.Q + op.Q.T - B)))
    min_weight = float(_amin(op.p))
    ones = np.ones(op.n_nodes)
    d_one = float(_amax(np.abs(op.D @ ones)))
    coherence = float(_amax(np.abs(op.D - op.Q / op.p[:, None])))
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
        Q=op.Q,
        D=op.D / s,
    )


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

    The space is stored as its textual kind, which every built-in space
    round-trips through; affinely mapped and user spaces have none and
    are refused.
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

    The stored matrices must pass :func:`verify_sbp` and the norm weights
    :func:`~sbpkit.quadrature.verify_exactness` as a rule on the nodes,
    the two checks ``sbpkit verify`` makes.  A malformed file raises
    ``ValueError`` naming it, a failed check :class:`OperatorError`.
    """
    op, report, exact = _load_and_check(path)
    if not (report.passed and exact.ok):
        raise OperatorError(
            f"operator file {path} fails verification: "
            f"exactness {report.exactness_residual:.3e}, "
            f"antisymmetry {report.antisymmetry_residual:.3e}, "
            f"min weight {report.min_weight:.3e}, "
            f"constant residual {report.d_one_residual:.3e}, "
            f"coherence residual {report.coherence_residual:.3e}, "
            f"quadrature residual {exact.max_scaled_residual:.3e}"
        )
    return op


def _load_and_check(path) -> tuple[FsbpOperator, SbpReport, ExactnessReport]:
    """The operator in ``path`` with its :func:`verify_sbp` report and its
    norm weights' :func:`~sbpkit.quadrature.verify_exactness` report.

    Reading, parsing, building and checking share one guard: every
    ``ValueError`` on the way (no JSON object, a missing field, text,
    booleans or non-finite entries where numbers belong, a space or
    domain that does not construct, inconsistent shapes, nodes out of
    order or off the domain) is raised again naming the file once.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("must hold a JSON object")
        required = ("space", "domain", "nodes", "weights", "Q", "D")
        missing = [key for key in required if key not in data]
        if missing:
            raise ValueError(f"misses fields: {missing}")
        kind, domain = data["space"], data["domain"]
        if not isinstance(kind, str):
            raise ValueError(f"space must be text, got {kind!r}")
        if not (isinstance(domain, list) and len(domain) == 2):
            raise ValueError("domain must be [left, right]")
        nodes, weights, Q, D = arrays = [_reals(data[key], key) for key in required[2:]]
        for key, a in zip(required[2:], arrays):
            if not _all_finite(a):
                raise ValueError(f"{key} must hold finite numbers")
        space = make_space(kind, Interval(*(_real(v, "domain") for v in domain)))
        op = FsbpOperator(space=space, nodes=nodes, p=weights, Q=Q, D=D)
        # both checks share the space's one evaluation on the grid
        report = verify_sbp(op)
        exact = verify_exactness(QuadratureRule(op.nodes, op.p), op.space)
    except ValueError as exc:
        raise ValueError(f"operator file {path}: {exc}") from exc
    return op, report, exact

