"""References, error norms and convergence studies.

Error norms weight the pointwise error with the block norm weights, so
they approximate the continuous L2 norm of the error.  Reference
solutions follow characteristics: shifted (and, with a source, scaled)
initial data for advection, and, for pre-shock Burgers flow, an
implicit characteristic equation solved for all distinct evaluation
points at once by one array-wide safeguarded Newton iteration, after a
crossing guard that samples each point's own bracket.  A convergence
study runs all its levels first and then evaluates the reference once,
on the nodes of every level together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .solver import BlockState, ProblemSpec
from .spaces import _whole_count

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


#: points per slice of the pre-shock guard, which samples 64 points of
#: each bracket; slicing keeps its temporaries to a few thousand values
_GUARD_SLICE = 64


def burgers_reference(
    u0: Callable[[np.ndarray], np.ndarray], x, t: float
) -> np.ndarray:
    """Pre-shock Burgers solution by characteristic tracing.

    Solves ``xi + t u0(xi) = x`` for all evaluation points at once, as
    numpy arrays, and returns ``u0(xi)`` in the shape of ``x``.  Every
    step of the solve works point by point, so each distinct point is
    solved once and repeated points share its value.  Each point doubles
    a bracket around ``x`` until it encloses the foot (at most 60
    times).  A conservative guard then samples the slope of ``u0`` at 64
    points of each point's own bracket and raises once
    ``t max|u0'| >= 1``, when characteristics may cross.  A safeguarded
    Newton iteration runs on the points not yet converged: a Newton step
    is taken only strictly inside the point's bracket, bisection
    otherwise, until the residual is at most 1e-12 (at most 200 steps).
    ``u0`` must accept arrays and be defined wherever the feet land.  If
    any point fails, this raises ``ValueError`` and returns no partial
    result.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        out = np.asarray(u0(xs), dtype=float)
        return out if np.ndim(x) else float(out[0])
    shape = xs.shape
    xs, back = np.unique(xs, return_inverse=True)

    def char(xi, x):
        return xi + t * u0(xi) - x

    # expand each bracket around x until the root is enclosed; fmax, like
    # Python's max, falls back to 1 where u0(x) is NaN
    r = np.fmax(1.0, abs(t) * (1.0 + np.abs(u0(xs))))
    open_ = np.arange(xs.size)
    for _ in range(60):
        xo, ro = xs[open_], r[open_]
        enclosed = (char(xo - ro, xo) <= 0.0) & (0.0 <= char(xo + ro, xo))
        open_ = open_[~enclosed]
        if open_.size == 0:
            break
        r[open_] *= 2.0
    else:
        raise ValueError("could not bracket the characteristic foot")
    lo, hi = xs - r, xs + r

    # conservative pre-shock guard along each point's own bracket
    h = 1e-6 * np.maximum(1.0, hi - lo)
    for s in range(0, xs.size, _GUARD_SLICE):
        part = slice(s, s + _GUARD_SLICE)
        hs = h[part, None]
        grid = np.linspace(lo[part], hi[part], 64, axis=-1)
        up = u0((grid + hs).ravel()).reshape(grid.shape)
        um = u0((grid - hs).ravel()).reshape(grid.shape)
        steepest = np.max(np.abs((up - um) / (2.0 * hs)), axis=1)
        if np.any(t * steepest >= 1.0):
            raise ValueError(
                f"characteristics cross before t={t:.6g}; "
                "no smooth reference exists"
            )

    # safeguarded Newton on the points not yet converged; idx maps them
    # back into xs, and f_lo caches the residual at each bracket's left end
    idx, xa, h_a, xi = np.arange(xs.size), xs, h, xs
    f, f_lo = char(xs, xs), char(lo, xs)
    feet = np.empty_like(xs)
    for _ in range(200):
        done = np.abs(f) <= 1e-12
        feet[idx[done]] = xi[done]
        if done.all():
            break
        keep = ~done
        idx, xa, lo, hi, h_a, xi, f, f_lo = (
            v[keep] for v in (idx, xa, lo, hi, h_a, xi, f, f_lo)
        )
        fp = (char(xi + h_a, xa) - char(xi - h_a, xa)) / (2.0 * h_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = xi - f / fp
        step_ok = (fp != 0.0) & (lo < cand) & (cand < hi)
        cand = np.where(step_ok, cand, 0.5 * (lo + hi))
        fc = char(cand, xa)
        left = f_lo * fc <= 0.0
        hi = np.where(left, cand, hi)
        lo = np.where(left, lo, cand)
        f_lo = np.where(left, f_lo, fc)
        xi, f = cand, fc
    else:
        raise ValueError("characteristic solve did not reach the residual target")
    out = np.asarray(u0(feet), dtype=float)[back].reshape(shape)
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

    Every level of every space runs first; the reference is then
    evaluated once, on the final nodes of all levels together, so a
    reference failure (crossing Burgers characteristics) surfaces after
    the last run.  Observed orders compare consecutive levels of the
    same entry of ``space_specs`` using the norm-weighted error and the
    block-count ratio.  A problem without a reference solution, and a
    ladder whose block counts are not distinct whole numbers of at
    least 1, are rejected before any run.
    """
    from .solver import run

    counts: list[int] = []
    for b in block_counts:
        n = _whole_count(b, "block count")
        if n < 1:
            raise ValueError(f"need at least one block, got {b}")
        if n in counts:
            raise ValueError(f"block count {b} appears more than once in the ladder")
        counts.append(n)
    ref = reference_solution(spec, t_final)
    if ref is None:
        raise ValueError(f"no reference solution for problem kind {spec.kind!r}")
    states = [
        [
            run(
                spec,
                space,
                n_nodes=n_nodes,
                n_blocks=blocks,
                t_final=t_final,
                cfl=cfl,
            ).state
            for blocks in counts
        ]
        for space in space_specs
    ]
    nodes = [state.nodes.ravel() for level in states for state in level]
    if not nodes:
        return []
    values = np.asarray(ref(np.concatenate(nodes)), dtype=float)
    per_level = iter(np.split(values, np.cumsum([x.size for x in nodes[:-1]])))
    rows: list[ConvergenceRow] = []
    for space, level in zip(space_specs, states):
        prev: ConvergenceRow | None = None
        for blocks, state in zip(counts, level):
            v = next(per_level)
            err = error_report(state, lambda _nodes, v=v: v)
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
