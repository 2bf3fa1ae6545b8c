"""Multi-block semidiscretizations with boundary and coupling penalties.

Two model problems are supported on a partition of the domain into
contiguous blocks, each carrying an affinely mapped copy of one reference
operator.  The state stacks the blocks into one ``(n_blocks, n)`` array
next to that reference operator, so every block is handled by the same
array operations:

* linear advection with a linear source ``u_t + a u_x = c u`` (no
  source when ``c = 0``),
* Burgers' equation in split form ``u_t + (1/3)(u u_x + (u^2)_x) = 0``.

Boundary data enters weakly through a penalty at the first node of each
block; interface coupling passes the rightmost value of the left
neighbour, and without inflow data the last block closes the chain.
Time stepping is the three-stage third-order strong-stability-preserving
Runge-Kutta scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import FsbpOperator, find_operator
from .spaces import (
    UNIT_INTERVAL,
    FunctionSpace,
    Interval,
    _all_finite,
    _amax,
    _count,
    _nodes,
    _real,
    _reals,
    _samples,
    affine_map,
    make_space,
)

__all__ = [
    "InstabilityError",
    "PROBLEM_KINDS",
    "ProblemSpec",
    "BlockState",
    "RunResult",
    "rhs_advection",
    "rhs_burgers",
    "ssprk33_step",
    "run",
]

PROBLEM_KINDS = ("advection", "burgers")


class InstabilityError(RuntimeError):
    """The time integration produced non-finite values."""


@dataclass(frozen=True)
class ProblemSpec:
    """Model problem: equation kind, domain, data and penalty strength.

    ``initial_condition`` maps an array of points to one real, finite value
    each; a callable ``inflow`` maps a time to one real, finite number, the
    weak boundary data g(t) at the left end (``None``: periodic).  ``run``
    and the references refuse other output by name.  Advection
    adds the source ``c u`` for a nonzero ``c = source_coefficient``.
    Burgers has no source and its wave speed is ``u``, so it refuses a
    nonzero ``source_coefficient`` and a ``wave_speed`` other than 1.0.
    ``sigma`` of ``None`` is stored as the default penalty strength (1
    for advection, 2 for Burgers), so ``spec.sigma`` is always the
    number the penalty uses.  The three numbers must be real, finite and
    not booleans, and are stored as floats.

    A given ``sigma`` must make the inflow penalty dissipative:
    ``sigma > 1/2`` for advection, whose boundary energy rate
    ``a(u_0^2 - u_N^2 - 2 sigma u_0^2 + 2 sigma u_0 g)`` is then bounded
    by the data, and ``sigma >= 1`` for Burgers, whose rate
    ``(2/3)(sigma u_0^2 g - (sigma - 1) u_0^3 - u_N^3)`` is otherwise
    positive at ``g = u_N = 0 < u_0``.  The advection interface term
    ``a((1 - 2 sigma) v^2 + 2 sigma v g - g^2)`` (``v`` a block's first
    value, ``g`` its left neighbour's last) is nonpositive for every
    state only at ``sigma = 1``, where it is ``-a (v - g)^2``; other
    accepted values have no interface energy estimate.
    """

    kind: str
    domain: Interval
    initial_condition: Callable[[np.ndarray], np.ndarray]
    inflow: Callable[[float], float] | None = None
    wave_speed: float = 1.0
    source_coefficient: float = 0.0
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(
                f"unknown problem kind {self.kind!r}; expected one of {PROBLEM_KINDS}"
            )
        if not isinstance(self.domain, Interval):
            raise ValueError(f"domain must be an Interval, got {self.domain!r}")
        if not callable(self.initial_condition):
            raise ValueError(
                f"initial_condition must be callable, got {self.initial_condition!r}"
            )
        if self.inflow is not None and not callable(self.inflow):
            raise ValueError(
                f"inflow must be None (periodic) or callable, got {self.inflow!r}"
            )
        burgers = self.kind == "burgers"
        if self.sigma is None:
            object.__setattr__(self, "sigma", 2.0 if burgers else 1.0)
        for name in ("wave_speed", "source_coefficient", "sigma"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (self.sigma >= 1.0 if burgers else self.sigma > 0.5):
            bound = "be at least 1" if burgers else "exceed 1/2"
            raise ValueError(f"sigma must {bound} for {self.kind!r}, got {self.sigma}")
        if burgers:
            if self.source_coefficient != 0.0:
                raise ValueError(
                    "source_coefficient must be 0 for 'burgers', "
                    f"got {self.source_coefficient}"
                )
            if self.wave_speed != 1.0:
                raise ValueError(
                    f"wave_speed must be 1.0 for 'burgers', got {self.wave_speed}"
                )
        elif not self.wave_speed > 0.0:
            raise ValueError("advection requires a positive wave speed")


@dataclass(frozen=True)
class BlockState:
    """Stacked solution values on copies of one reference operator.

    Row ``i`` of ``u`` holds the nodal values of block ``i``, which spans
    ``[edges[i], edges[i + 1]]`` and carries the reference operator
    mapped affinely onto it: with the width ratio ``s_i`` of the block to
    the operator's interval, its nodes map affinely, ``P_i = s_i P`` and
    ``D_i = D / s_i``.  The width ratios ``s`` are derived from the
    edges, and all arrays are frozen after construction.
    """

    u: np.ndarray
    operator: FsbpOperator
    edges: np.ndarray
    t: float
    s: np.ndarray = field(init=False, repr=False, compare=False)
    # the per-grid constants of the right sides: D.T, the divisors -s
    # (advection, which keeps the sign of -a there) and -3 s (Burgers) as
    # contiguous arrays shaped like u, each block's ratio repeated along
    # its row, s * p[0], and the flat index of each block's left
    # neighbour's last node (the last block's for block 0, which closes
    # the periodic chain).  D.T stays the transposed view: np.dot on it
    # rounds like u @ D.T, and a contiguous copy does not.  The divisors
    # hold the values of -s[:, None] and -3 s[:, None]; negation is exact,
    # so they round alike, but numpy divides by a full-shape array in one
    # inner loop rather than one short loop per row of a broadcast column
    _DT: np.ndarray = field(init=False, repr=False, compare=False)
    _ms_div: np.ndarray = field(init=False, repr=False, compare=False)
    _m3s_div: np.ndarray = field(init=False, repr=False, compare=False)
    _s_p0: np.ndarray = field(init=False, repr=False, compare=False)
    _left_last: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        iv = self.operator.space.interval
        # judged on a copy, as the judged grid is frozen
        edges = _nodes(np.array(_reals(self.edges, "edges")), "edges")
        u = _reals(self.u, "u")
        if u.shape != (edges.size - 1, self.operator.n_nodes):
            raise ValueError(
                f"values of shape {u.shape} do not match {edges.size - 1} "
                f"blocks of {self.operator.n_nodes} nodes"
            )
        object.__setattr__(self, "t", _real(self.t, "t"))
        with np.errstate(over="ignore"):  # an overflow is refused below
            s = (edges[1:] - edges[:-1]) / iv.width
            fits = (s > 0.0) & np.isfinite(3.0 * s)  # 3 s: the Burgers divisor
        if np.count_nonzero(fits) != s.size:
            i = int(np.argmin(fits))
            why = "narrow" if s[i] == 0.0 else "wide"  # the edges increase
            raise ValueError(
                f"block {i} on {edges[i:i + 2].tolist()} is too {why}: its width "
                f"ratio to the operator's interval of width {iv.width!r} is {s[i]}"
                + ("" if why == "narrow" else ", above a third of the largest float")
            )
        n_blocks, n = u.shape
        ms_div = -np.repeat(s, n).reshape(n_blocks, n)
        m3s_div = 3.0 * ms_div
        s_p0 = s * self.operator.p[0]
        left_last = np.roll(np.arange(n_blocks), 1) * n + (n - 1)
        for arr in (u, s, ms_div, m3s_div, s_p0, left_last):
            arr.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_DT", self.operator.D.T)
        object.__setattr__(self, "_ms_div", ms_div)
        object.__setattr__(self, "_m3s_div", m3s_div)
        object.__setattr__(self, "_s_p0", s_p0)
        object.__setattr__(self, "_left_last", left_last)

    def _on_same_grid(self, u: np.ndarray, t: float) -> BlockState:
        """This state's grid with new values ``u`` at time ``t``.

        The grid was validated when this state was built, so the new state
        shares its operator, edges and derived constants unchecked and
        only freezes ``u``.  Values of another type, shape or dtype go
        through the validating constructor instead.
        """
        # dtypes such as float64 are singletons, so the identity test
        # settles the usual case without the slower comparison
        if (
            type(u) is not np.ndarray
            or u.shape != self.u.shape
            or (u.dtype is not self.u.dtype and u.dtype != self.u.dtype)
        ):
            return BlockState(u=u, operator=self.operator, edges=self.edges, t=t)
        u.setflags(write=False)
        # installing one copy of the fields as __dict__ is cheaper than
        # filling the new state's empty __dict__ from them
        fields = self.__dict__.copy()
        fields["u"] = u
        fields["t"] = t
        new = object.__new__(BlockState)
        object.__setattr__(new, "__dict__", fields)
        return new

    @property
    def n_blocks(self) -> int:
        return self.u.shape[0]

    @property
    def total_nodes(self) -> int:
        return self.u.size

    @property
    def nodes(self) -> np.ndarray:
        """Block nodes, shape ``(n_blocks, n)``, block ends set exactly."""
        ref = self.operator
        offsets = ref.nodes - ref.space.interval.left
        x = self.edges[:-1, None] + offsets * self.s[:, None]
        x[:, 0] = self.edges[:-1]
        x[:, -1] = self.edges[1:]
        return x

    @property
    def operators(self) -> tuple[FsbpOperator, ...]:
        """The mapped operator of each block, built on demand.

        Block ``i`` has ``nodes[i]``, ``s_i P``, the shared ``Q``, ``D / s_i``
        and the reference space mapped onto it.  For inspection only; the
        solver works on the stacked arrays and never builds these.
        """
        ref = self.operator
        return tuple(
            FsbpOperator(
                affine_map(ref.space, Interval(a, b)), x, ref.p * s, ref.Q, ref.D / s
            )
            for a, b, x, s in zip(self.edges[:-1], self.edges[1:], self.nodes, self.s)
        )


def _penalise(du, state: BlockState, t: float, spec: ProblemSpec, scale) -> None:
    """Subtract ``scale (u_1 - g) / p_1`` from each block's first value in ``du``.

    ``g`` is the left neighbour's last value, or for the first block the
    inflow data (the last block's last value when there is none).  A
    ``scale`` of ``None`` stands for exactly 1.0 and multiplies nothing.
    """
    # in place on the datum array taken here; the penalty goes through a
    # column view, which du[:, 0] -= pen would write back a second time
    pen = state.u.take(state._left_last)
    if spec.inflow is not None:
        pen[0] = spec.inflow(t)
    np.subtract(state.u[:, 0], pen, out=pen)
    if scale is not None:
        pen *= scale
    pen /= state._s_p0
    col = du[:, 0]
    col -= pen


def rhs_advection(state: BlockState, t: float, spec: ProblemSpec) -> np.ndarray:
    """Semidiscrete right-hand side for advection.

    Each block computes ``-a D_i u_i`` (plus ``c u_i`` for a nonzero
    source ``c``) and adds the penalty ``-sigma a (u_1 - g) / p_1`` at its
    first node.  Returns an array shaped like ``state.u``.
    """
    # scaled and penalised in place on the array allocated here, bit for
    # bit -a * (u @ D.T) / s[:, None] and sigma * a * (u_1 - g) / p_1: the
    # divisor is -s repeated along each row, and negation is exact, so
    # (a x) / (-s) rounds like (-a x) / s; a product with exactly 1.0
    # (a = 1, or sigma * a = 1) returns its operand, so it is skipped
    a = spec.wave_speed
    u = state.u
    du = np.dot(u, state._DT)
    if a != 1.0:
        du *= a
    du /= state._ms_div
    if spec.source_coefficient:
        du += spec.source_coefficient * u
    scale = spec.sigma * a
    _penalise(du, state, t, spec, None if scale == 1.0 else scale)
    return du


def rhs_burgers(state: BlockState, t: float, spec: ProblemSpec) -> np.ndarray:
    """Split-form Burgers right-hand side with a nonlinear inflow penalty.

    Each block computes ``-(D_i(u^2) + u D_i u) / 3`` plus the penalty
    ``-(sigma/3) u_1 (u_1 - g) / p_1`` at its first node, which makes the
    discrete energy rate depend on boundary values only.  Returns an
    array shaped like ``state.u``.
    """
    # in place on the arrays allocated here, in the operation order of
    # -((u u) @ D.T + u (u @ D.T)) / (3 s[:, None]) and
    # (sigma/3) u_1 (u_1 - g) / p_1; the divisor is -3 s repeated along each
    # row, and dividing by -3 s rounds exactly like negating and dividing by 3 s
    u = state.u
    DT = state._DT
    du = np.dot(u * u, DT)
    udu = np.dot(u, DT)
    udu *= u
    du += udu
    du /= state._m3s_div
    _penalise(du, state, t, spec, (spec.sigma / 3.0) * u[:, 0])
    return du


def _check_finite(u: np.ndarray, t: float) -> None:
    if _all_finite(u):
        return
    bad = np.flatnonzero(~np.isfinite(u).all(axis=1))
    more = f" (and {bad.size - 1} more)" if bad.size > 1 else ""
    raise InstabilityError(
        f"non-finite solution values in block {bad[0]}{more} near t={t:.6g}"
    )


def ssprk33_step(
    rhs_fn: Callable[[BlockState, float], np.ndarray],
    state: BlockState,
    dt: float,
) -> BlockState:
    """One step of the three-stage third-order SSP Runge-Kutta scheme.

    Stages evaluate the right-hand side at times t, t + dt and t + dt/2;
    every stage is checked for finite values, and a failure names the
    first block that went non-finite and the time of the stage that
    produced it.  A ``dt`` that is not a real, finite number (or is a
    boolean) raises ``ValueError`` before any stage.

    The grid is validated once, when ``state`` is built: the stage states
    and the returned state share its operator, edges and width ratios and
    only swap in new values and times.  A stage whose values come out with
    another shape or dtype (say, a ``rhs_fn`` returning a wrongly shaped
    array) is validated in full and raises ``ValueError``.

    The stages are ``u0 + dt k``, ``3/4 u0 + 1/4 (u1 + dt k)`` and
    ``(u0 + 2 (u2 + dt k)) / 3``.  The last two are scaled in place on the
    fresh sum ``u1 + dt k`` (``u2 + dt k``) with the same IEEE operations,
    commuted, so the result is bit-identical to those formulas.  The right
    side's own output is never written to: it may be a state's read-only
    values.
    """
    dt = _real(dt, "dt")
    t, u0 = state.t, state.u
    t_end, t_mid = t + dt, t + 0.5 * dt

    u1 = u0 + dt * rhs_fn(state, t)
    _check_finite(u1, t)

    k = rhs_fn(state._on_same_grid(u1, t_end), t_end)
    u2 = u1 + dt * k
    u2 *= 0.25
    u2 += 0.75 * u0
    _check_finite(u2, t_end)

    k = rhs_fn(state._on_same_grid(u2, t_mid), t_mid)
    u3 = u2 + dt * k
    u3 *= 2.0
    u3 += u0
    u3 /= 3.0
    _check_finite(u3, t_mid)
    return state._on_same_grid(u3, t_end)


@dataclass(frozen=True)
class RunResult:
    """Final state, per-step mass/energy history and the step count."""

    state: BlockState
    history: tuple
    steps: int


def _finite_record(record) -> bool:
    """Whether a diagnostics record's mass and energy are both finite."""
    return math.isfinite(record.mass) and math.isfinite(record.energy)


def _reference_space(space: str | FunctionSpace) -> FunctionSpace:
    """``space`` itself, or the space its textual form names on [0, 1]."""
    if isinstance(space, FunctionSpace):
        return space
    return make_space(space, UNIT_INTERVAL)


def run(
    spec: ProblemSpec,
    space: str | FunctionSpace,
    n_nodes: int | None = None,
    n_blocks: int = 1,
    t_final: float = 1.0,
    cfl: float = 0.5,
) -> RunResult:
    """Integrate a model problem on a uniform multi-block grid.

    A reference operator is built once on [0, 1] (``space`` may be a
    textual kind or a prebuilt reference space) and every block uses it
    through its width ratio; no per-block operator is built.  The
    initial condition is evaluated once on the flattened block nodes.
    The step size is ``cfl`` times the smallest node spacing over the
    largest wave speed, refreshed every step for Burgers, and the final
    step is shortened to land on ``t_final`` exactly.  Mass and energy
    are recorded after every step.  The inflow, if any, is sampled at 65
    times of ``[0, t_final]`` before the first step; it and the initial
    values follow :class:`ProblemSpec`'s rule (nonnegative for Burgers).
    Counts are whole numbers up to 2**53: ``n_blocks`` from 1, ``n_nodes`` from 2.
    """
    from .diagnostics import DiagnosticsRecord, energy, mass

    cfl, t_final = _real(cfl, "cfl"), _real(t_final, "t_final")
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    if not t_final >= 0.0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    n_blocks = _count(n_blocks, "n_blocks", 1)

    ref_op = find_operator(_reference_space(space), n_nodes)

    edges = np.linspace(spec.domain.left, spec.domain.right, n_blocks + 1)
    state = BlockState(
        u=np.zeros((n_blocks, ref_op.n_nodes)), operator=ref_op, edges=edges, t=0.0
    )
    nodes = state.nodes
    x = nodes.ravel()
    u = spec.initial_condition(x)
    u = _samples(u, "initial condition values", ("x", x), x.shape)

    if spec.kind == "burgers" and u.min() < -1e-12:
        raise ValueError("Burgers runs require nonnegative initial data")
    if spec.inflow is not None:
        ts = np.linspace(0.0, t_final, 65)
        # a list, so that a boolean among the samples is refused as one
        g = [spec.inflow(t) for t in ts]
        g = _samples(g, "inflow values", ("t", ts), ts.shape)
        if spec.kind == "burgers" and g.min() < -1e-12:
            raise ValueError("Burgers runs require nonnegative inflow data")

    state = state._on_same_grid(u.reshape(nodes.shape), 0.0)
    # read from the module here, once, so a patched rhs_* applies to the run
    rhs = rhs_burgers if spec.kind == "burgers" else rhs_advection
    rhs_fn = lambda st, t: rhs(st, t, spec)
    spacing = float(np.min(np.diff(nodes, axis=1)))

    steps = 0
    end = t_final - 1e-12 * max(1.0, t_final)
    # the advection wave speed is constant, so its step is too
    fixed_dt = None if spec.kind == "burgers" else cfl * spacing / spec.wave_speed
    # a blow-up overflows on its way to inf or nan; every stage and every
    # recorded mass and energy is checked for finite values, so it raises
    # InstabilityError (ValueError at t = 0), not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        history = [DiagnosticsRecord(0.0, mass(state), energy(state))]
        if not _finite_record(history[0]):
            raise ValueError(
                "initial condition values give a non-finite mass or energy: "
                f"mass {history[0].mass}, energy {history[0].energy}"
            )
        while state.t < end:
            dt = fixed_dt
            if dt is None:  # Burgers: the wave speed is max|u|, at least 1
                dt = cfl * spacing / max(1.0, float(_amax(np.abs(state.u))))
            last = state.t + dt >= end
            if last:
                dt = t_final - state.t
            state = ssprk33_step(rhs_fn, state, dt)
            if last:
                state = state._on_same_grid(state.u, t_final)
            steps += 1
            history.append(DiagnosticsRecord(state.t, mass(state), energy(state)))
            if not _finite_record(history[-1]):
                raise InstabilityError(
                    f"non-finite mass or energy near t={state.t:.6g}"
                )
    return RunResult(state=state, history=tuple(history), steps=steps)
