"""References, error norms and convergence studies.

Error norms weight the pointwise error with the block norm weights, so
they approximate the continuous L2 norm of the error.  Reference
solutions follow characteristics: shifted (and, with a source, scaled)
initial data for advection, and an implicit characteristic equation
solved pointwise for pre-shock Burgers flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .solver import BlockState, ProblemSpec

__all__ = [
    "DiagnosticsRecord",
    "ErrorReport",
    "ConvergenceRow",
    "mass",
    "energy",
    "exact_advection",
    "burgers_reference",
    "reference_solution",
    "error_report",
    "convergence_table",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Mass and energy at one time instant."""

    t: float
    mass: float
    energy: float


@dataclass(frozen=True)
class ErrorReport:
    """Norm-weighted, root-mean-square and maximum errors."""

    err_p: float
    err_2: float
    err_max: float


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level of a convergence study.

    ``order`` is the observed rate against the previous level of the same
    space, NaN on the first level.
    """

    space: str
    blocks: int
    err_p: float
    err_2: float
    err_max: float
    order: float


def mass(state: BlockState) -> float:
    """Discrete integral of the solution over all blocks.

    Block i contributes ``s_i p @ u_i``, summed as ``s @ (u @ p)``.
    """
    return float(state.s @ (state.u @ state.operator.p))


def energy(state: BlockState) -> float:
    """Discrete squared L2 norm of the solution over all blocks."""
    u = state.u
    return float(state.s @ ((u * u) @ state.operator.p))


def _wrap(x: np.ndarray, domain) -> np.ndarray:
    return domain.left + np.mod(x - domain.left, domain.width)


def exact_advection(
    u0: Callable[[np.ndarray], np.ndarray],
    a: float,
    t: float,
    x: np.ndarray,
    domain,
    periodic: bool = True,
) -> np.ndarray:
    """Initial data transported with speed ``a`` for time ``t``.

    Periodic transport wraps the foot of the characteristic back into the
    domain; otherwise the caller is responsible for feet that leave it.
    """
    x = np.asarray(x, dtype=float)
    xi = x - a * t
    if periodic:
        xi = _wrap(xi, domain)
    return np.asarray(u0(xi), dtype=float)


def _trace_burgers_point(u0: Callable, x: float, t: float) -> float:
    if t == 0.0:
        return float(u0(x))

    def char(xi):
        return xi + t * float(u0(xi)) - x

    # expand a bracket around x until the root is enclosed
    r = max(1.0, abs(t) * (1.0 + abs(float(u0(x)))))
    lo, hi = x - r, x + r
    for _ in range(60):
        if char(lo) <= 0.0 <= char(hi):
            break
        r *= 2.0
        lo, hi = x - r, x + r
    else:
        raise ValueError("could not bracket the characteristic foot")

    # conservative pre-shock guard along the bracket
    xs = np.linspace(lo, hi, 64)
    h = 1e-6 * max(1.0, hi - lo)
    slopes = (np.asarray(u0(xs + h)) - np.asarray(u0(xs - h))) / (2.0 * h)
    if t * float(np.max(np.abs(slopes))) >= 1.0:
        raise ValueError(
            f"characteristics cross before t={t:.6g}; no smooth reference exists"
        )

    xi = x
    f = char(xi)
    for _ in range(200):
        if abs(f) <= 1e-12:
            return float(u0(xi))
        fp = (char(xi + h) - char(xi - h)) / (2.0 * h)
        step_ok = fp != 0.0
        if step_ok:
            cand = xi - f / fp
            step_ok = lo < cand < hi
        if not step_ok:
            cand = 0.5 * (lo + hi)
        fc = char(cand)
        if char(lo) * fc <= 0.0:
            hi = cand
        else:
            lo = cand
        xi, f = cand, fc
    raise ValueError("characteristic solve did not reach the residual target")


def burgers_reference(
    u0: Callable[[np.ndarray], np.ndarray], x, t: float
) -> np.ndarray:
    """Pre-shock Burgers solution by characteristic tracing.

    Solves ``xi + t u0(xi) = x`` for each evaluation point with a
    safeguarded Newton iteration (bisection fallback) to a residual of
    1e-12 and returns ``u0(xi)``.  ``u0`` must be defined wherever the
    feet land; raises once characteristics cross.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_trace_burgers_point(u0, float(v), t) for v in xs])
    return out if np.ndim(x) else float(out[0])


def reference_solution(
    spec: ProblemSpec, t: float
) -> Callable[[np.ndarray], np.ndarray] | None:
    """Closed-form (or characteristic) solution of a model problem at time t.

    Returns None for configurations without a usable reference
    (Burgers with inflow boundary data).
    """
    u0 = spec.initial_condition
    dom = spec.domain
    if spec.kind in ("advection", "advection_source"):
        a = spec.wave_speed
        c = spec.source_coefficient if spec.kind == "advection_source" else 0.0

        if spec.periodic:

            def ref(x):
                return np.exp(c * t) * exact_advection(u0, a, t, x, dom, True)

            return ref

        def ref(x):
            x = np.asarray(x, dtype=float)
            xi = x - a * t
            inside = xi >= dom.left
            vals = np.empty_like(x)
            if np.any(inside):
                vals[inside] = np.exp(c * t) * np.asarray(
                    u0(xi[inside]), dtype=float
                )
            if np.any(~inside):
                # characteristic entered through the left boundary
                entry_delay = (x[~inside] - dom.left) / a
                g = np.array(
                    [float(spec.inflow(t - d)) for d in entry_delay]
                )
                vals[~inside] = np.exp(c * entry_delay) * g
            return vals

        return ref

    if spec.kind == "burgers" and spec.periodic:

        def u0_periodic(xi):
            return u0(_wrap(np.asarray(xi, dtype=float), dom))

        return lambda x: burgers_reference(u0_periodic, x, t)

    return None


def error_report(
    state: BlockState, reference: Callable[[np.ndarray], np.ndarray]
) -> ErrorReport:
    """Error norms of a state against a reference function of x.

    The reference is evaluated once on the flattened block nodes.
    """
    nodes = state.nodes
    ref = np.asarray(reference(nodes.ravel()), dtype=float)
    e = state.u - ref.reshape(nodes.shape)
    sq = e * e
    return ErrorReport(
        err_p=math.sqrt(float(state.s @ (sq @ state.operator.p))),
        err_2=math.sqrt(float(np.sum(sq)) / e.size),
        err_max=float(np.max(np.abs(e))),
    )


def convergence_table(
    spec: ProblemSpec,
    space_specs: Sequence[str],
    block_counts: Sequence[int],
    n_nodes: int | None = None,
    t_final: float = 1.0,
    cfl: float = 0.5,
) -> list[ConvergenceRow]:
    """Run each space over a ladder of block counts and tabulate errors.

    Observed orders compare consecutive levels of the same space using
    the norm-weighted error and the block-count ratio.  A problem without
    a reference solution is rejected before any run.
    """
    from .solver import run

    ref = reference_solution(spec, t_final)
    if ref is None:
        raise ValueError(f"no reference solution for problem kind {spec.kind!r}")
    rows: list[ConvergenceRow] = []
    for space in space_specs:
        prev: ConvergenceRow | None = None
        for blocks in block_counts:
            result = run(
                spec,
                space,
                n_nodes=n_nodes,
                n_blocks=blocks,
                t_final=t_final,
                cfl=cfl,
            )
            err = error_report(result.state, ref)
            if prev is None or not (err.err_p > 0.0 and prev.err_p > 0.0):
                order = math.nan
            else:
                order = math.log(prev.err_p / err.err_p) / math.log(
                    blocks / prev.blocks
                )
            row = ConvergenceRow(
                space=space,
                blocks=blocks,
                err_p=err.err_p,
                err_2=err.err_2,
                err_max=err.err_max,
                order=order,
            )
            rows.append(row)
            prev = row
    return rows
