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

from .operators import _study_scope
from .solver import BlockState, ProblemSpec, _block_count
from .spaces import FunctionSpace, _real, _reals, _samples

__all__ = [
    "DiagnosticsRecord",
    "ErrorReport",
    "ConvergenceRow",
    "mass",
    "energy",
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

    Block i contributes ``s_i p @ u_i``, summed as ``s @ (u @ p)``;
    ``np.dot`` rounds like ``@`` here and skips its dispatch.
    """
    return float(np.dot(state.s, np.dot(state.u, state.operator.p)))


def energy(state: BlockState) -> float:
    """Discrete squared L2 norm of the solution over all blocks."""
    u = state.u
    return float(np.dot(state.s, np.dot(u * u, state.operator.p)))


def _wrap(x: np.ndarray, domain) -> np.ndarray:
    """``x`` wrapped into ``domain``, bit for bit
    ``left + np.mod(x - left, width)``.

    numpy's remainder loop takes ``fmod``, adds the width to a negative
    remainder and writes a zero remainder as +0.0, and also computes a
    floor quotient that it throws away.  Here the same steps run without
    the quotient: one added array holds the width where the remainder is
    negative and 0.0 elsewhere, and adding 0.0 turns -0.0 into +0.0.
    """
    left, width = domain.left, domain.width
    m = np.fmod(x - left, width)
    m += np.where(m < 0.0, width, 0.0)
    return left + m


#: periodic Burgers data may differ by this much, relative to
#: max(1, |u0|), between the two domain ends
_PERIODIC_TOL = 1e-8

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
    ``|t| max|u0'| >= 1``, when characteristics may cross (forwards or,
    for a negative ``t``, backwards in time).  A safeguarded
    Newton iteration runs on the points not yet converged: a Newton step
    is taken only strictly inside the point's bracket, bisection
    otherwise, until the residual is at most 1e-12 (at most 200 steps).
    ``u0`` must accept arrays and be defined wherever the feet land.  If
    any point fails, this raises ``ValueError`` and returns no partial
    result.
    """
    t = _real(t, "t")
    xs = np.atleast_1d(_reals(x, "x"))
    if t == 0.0:
        out = _samples(u0(xs), "u0 values", ("x", xs), xs.shape)
        return out if np.ndim(x) else out.item()
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
        if np.any(abs(t) * steepest >= 1.0):
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
    out = _samples(u0(feet), "u0 values", ("x", feet), feet.shape)[back].reshape(shape)
    return out if np.ndim(x) else out.item()


def reference_solution(
    spec: ProblemSpec, t: float
) -> Callable[[np.ndarray], np.ndarray] | None:
    """Closed-form (or characteristic) solution of a model problem at time t.

    Returns None for configurations without a usable reference
    (Burgers with inflow boundary data); at t = 0 a periodic one is ``u0``
    itself.  Otherwise periodic Burgers data must take one value at both
    domain ends, or this raises ``ValueError``: the jump where the domain
    wraps is a shock from t = 0.
    """
    t = _real(t, "t")
    u0 = spec.initial_condition
    dom = spec.domain
    initial = lambda x: _samples(u0(x), "initial condition values", ("x", x), x.shape)
    if spec.inflow is None and t == 0.0:
        # a wrap would read u0(left) at x = right, where the data may differ
        return lambda x: initial(np.asarray(x, dtype=float))
    if spec.kind == "advection":
        a = spec.wave_speed
        c = spec.source_coefficient
        growth = np.exp(c * t)
        if spec.inflow is None:

            def periodic(x):
                xi = _wrap(np.asarray(x, dtype=float) - a * t, dom)
                return growth * initial(xi)

            return periodic

        def inflow(x):
            x = np.asarray(x, dtype=float)
            xi = x - a * t
            inside = xi >= dom.left
            vals = np.empty_like(x)
            if np.any(inside):
                vals[inside] = growth * initial(xi[inside])
            if np.any(~inside):
                # characteristic entered through the left boundary
                entry_delay = (x[~inside] - dom.left) / a
                ts = t - entry_delay
                g = [spec.inflow(s) for s in ts]
                g = _samples(g, "inflow values", ("t", ts), ts.shape)
                vals[~inside] = np.exp(c * entry_delay) * g
            return vals

        return inflow

    if spec.inflow is not None:
        return None
    ul, ur = initial(np.array([dom.left, dom.right]))
    if abs(ul - ur) > _PERIODIC_TOL * max(1.0, abs(ul), abs(ur)):
        raise ValueError(
            "periodic Burgers data must take one value at both ends of "
            f"[{dom.left:.6g}, {dom.right:.6g}], got u0={ul:.6g} and "
            f"u0={ur:.6g}; the jump where the domain wraps is a shock "
            "from t=0, so no smooth reference exists"
        )

    def u0_periodic(xi):
        return u0(_wrap(np.asarray(xi, dtype=float), dom))

    return lambda x: burgers_reference(u0_periodic, x, t)


def error_report(
    state: BlockState, reference: Callable[[np.ndarray], np.ndarray]
) -> ErrorReport:
    """Error norms of a state against a reference function of x.

    The reference is evaluated once on the flattened block nodes.  Its
    values must be real, one per node; where they or the errors are not
    finite, or the squared errors overflow, the norms are inf or NaN.
    """
    nodes = state.nodes
    ref = _reals(reference(nodes.ravel()), "reference values")
    if ref.size != nodes.size:
        raise ValueError(f"reference values gave {ref.size} for {nodes.size} nodes")
    e = state.u - ref.reshape(nodes.shape)
    with np.errstate(over="ignore"):
        sq = e * e
    return ErrorReport(
        err_p=math.sqrt(float(state.s @ (sq @ state.operator.p))),
        err_2=math.sqrt(float(np.sum(sq)) / e.size),
        err_max=float(np.max(np.abs(e))),
    )


def convergence_table(
    spec: ProblemSpec,
    space_specs: Sequence[str | FunctionSpace],
    block_counts: Sequence[int],
    n_nodes: int | None = None,
    t_final: float = 1.0,
    cfl: float = 0.5,
) -> list[ConvergenceRow]:
    """Run each space over a ladder of block counts and tabulate errors.

    Each entry of ``space_specs`` (a textual kind, or a prebuilt space as
    :func:`~sbpkit.solver.run` takes it) becomes its space on [0, 1] once,
    before any run, and every level of that entry runs on it.  Each level
    calls :func:`~sbpkit.solver.find_operator` through ``run``, but only
    an entry's first level walks the rule ladder: the later ones get the
    operator that search found, which the study keeps until it returns
    or raises.  Every level of every space runs first; the reference is
    then evaluated once, on the final nodes of all levels together, so a
    reference failure (crossing Burgers characteristics) surfaces after
    the last run.  Observed orders compare consecutive levels of the same
    entry of ``space_specs`` using the norm-weighted error and the
    block-count ratio.  A problem without a reference solution (or with
    periodic Burgers data that is not periodic on its domain), a ladder
    whose block counts are not distinct whole numbers of at least 1, and
    a space that does not construct are rejected before any run.
    """
    from .solver import _reference_space, run

    counts: list[int] = []
    for b in block_counts:
        n = _block_count(b)
        if n in counts:
            raise ValueError(f"block count {b} appears more than once in the ladder")
        counts.append(n)
    ref = reference_solution(spec, _real(t_final, "t_final"))
    if ref is None:
        raise ValueError(f"no reference solution for problem kind {spec.kind!r}")
    spaces = [_reference_space(space) for space in space_specs]
    with _study_scope():
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
            for space in spaces
        ]
    nodes = [state.nodes.ravel() for level in states for state in level]
    if not nodes:
        return []
    values = ref(np.concatenate(nodes))
    per_level = iter(np.split(values, np.cumsum([x.size for x in nodes[:-1]])))
    rows: list[ConvergenceRow] = []
    for entry, space, level in zip(space_specs, spaces, states):
        # a text entry keeps its text as given, a prebuilt space its kind
        name = entry if isinstance(entry, str) else space.kind
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
                space=name,
                blocks=blocks,
                err_p=err.err_p,
                err_2=err.err_2,
                err_max=err.err_max,
                order=order,
            )
            rows.append(row)
            prev = row
    return rows
