"""Multi-block semidiscretizations with boundary and coupling penalties.

Three model problems are supported on a partition of the domain into
contiguous blocks, each carrying an affinely mapped copy of one reference
operator.  The state stacks the blocks into one ``(n_blocks, n)`` array
next to that reference operator, so every block is handled by the same
array operations:

* linear advection ``u_t + a u_x = 0``,
* advection with a linear source ``u_t + a u_x = c u``,
* Burgers' equation in split form ``u_t + (1/3)(u u_x + (u^2)_x) = 0``.

Boundary data enters weakly through a penalty at the first node of each
block; interface coupling passes the rightmost value of the left
neighbour, and periodic runs close the chain.  Time stepping is the
three-stage third-order strong-stability-preserving Runge-Kutta scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import FsbpOperator, affine_block_operator, find_operator
from .spaces import (
    UNIT_INTERVAL,
    FunctionSpace,
    Interval,
    _all_finite,
    _amax,
    _whole_count,
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
    "rhs_for",
    "ssprk33_step",
    "run",
]

PROBLEM_KINDS = ("advection", "advection_source", "burgers")


class InstabilityError(RuntimeError):
    """The time integration produced non-finite values."""


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as floats, refusing complex values the cast would truncate."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real, got complex values")
    return np.asarray(values, dtype=float)


@dataclass(frozen=True)
class ProblemSpec:
    """Model problem: equation kind, domain, data and penalty strength.

    ``initial_condition`` maps node arrays to values.  Periodic problems
    ignore ``inflow``; otherwise ``inflow`` supplies the weak boundary
    data g(t) at the left end.  ``sigma`` of ``None`` picks the default
    penalty strength (1 for the advection kinds, 2 for Burgers).

    A given ``sigma`` must make the inflow penalty dissipative:
    ``sigma > 1/2`` for the advection kinds, whose boundary energy rate
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
    periodic: bool = True
    inflow: Callable[[float], float] | None = None
    wave_speed: float = 1.0
    source_coefficient: float = 2.0
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(
                f"unknown problem kind {self.kind!r}; expected one of {PROBLEM_KINDS}"
            )
        for name in ("wave_speed", "source_coefficient", "sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sigma is not None:
            burgers = self.kind == "burgers"
            if not (self.sigma >= 1.0 if burgers else self.sigma > 0.5):
                bound = "be at least 1" if burgers else "exceed 1/2"
                raise ValueError(
                    f"sigma must {bound} for {self.kind!r}, got {self.sigma}"
                )
        if self.kind != "burgers" and not self.wave_speed > 0.0:
            raise ValueError("advection requires a positive wave speed")
        if not self.periodic and self.inflow is None:
            raise ValueError("non-periodic problems need inflow boundary data")

    @property
    def effective_sigma(self) -> float:
        if self.sigma is not None:
            return float(self.sigma)
        return 2.0 if self.kind == "burgers" else 1.0


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
    # the per-grid constants of the right sides: D.T, the divisors s and
    # -3 s (the Burgers one) as contiguous arrays shaped like u, each
    # block's ratio repeated along its row, s * p[0], and the flat index
    # of each block's left neighbour's last node (the last block's for
    # block 0, which closes the periodic chain).  D.T stays the transposed
    # view: np.dot on it rounds like u @ D.T, and a contiguous copy does
    # not.  The divisors hold the values of s[:, None] and -3 s[:, None],
    # so they round alike, but numpy divides by a full-shape array in one
    # inner loop rather than one short loop per row of a broadcast column
    _DT: np.ndarray = field(init=False, repr=False, compare=False)
    _s_div: np.ndarray = field(init=False, repr=False, compare=False)
    _m3s_div: np.ndarray = field(init=False, repr=False, compare=False)
    _s_p0: np.ndarray = field(init=False, repr=False, compare=False)
    _left_last: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        iv = self.operator.space.interval
        edges = np.array(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError(
                "edges must be a 1-D sequence of at least 2 block edges, "
                f"got shape {edges.shape}"
            )
        u = _real_array(self.u, "block state values")
        if u.shape != (edges.size - 1, self.operator.n_nodes):
            raise ValueError(
                f"values of shape {u.shape} do not match {edges.size - 1} "
                f"blocks of {self.operator.n_nodes} nodes"
            )
        if not np.isfinite(edges).all():
            raise ValueError(f"block edges must be finite, got {edges}")
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        s = (edges[1:] - edges[:-1]) / iv.width
        if not s.min() > 0.0:
            raise ValueError("block edges must be strictly increasing")
        n_blocks, n = u.shape
        s_div = np.repeat(s, n).reshape(n_blocks, n)
        m3s_div = -3.0 * s_div
        s_p0 = s * self.operator.p[0]
        left_last = np.roll(np.arange(n_blocks), 1) * n + (n - 1)
        for arr in (u, edges, s, s_div, m3s_div, s_p0, left_last):
            arr.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_DT", self.operator.D.T)
        object.__setattr__(self, "_s_div", s_div)
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
        new = object.__new__(BlockState)
        new.__dict__.update(self.__dict__, u=u, t=t)
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

        A view for inspection only; the solver works on the stacked
        arrays and never builds these.
        """
        return tuple(
            affine_block_operator(self.operator, Interval(float(a), float(b)))
            for a, b in zip(self.edges[:-1], self.edges[1:])
        )


def _penalise(du, state: BlockState, t: float, spec: ProblemSpec, scale) -> None:
    """Subtract ``scale (u_1 - g) / p_1`` from each block's first value in ``du``.

    ``g`` is the left neighbour's last value, or for the first block the
    inflow data (the last block's last value when periodic).
    """
    # in place on the datum array taken here; the penalty goes through a
    # column view, which du[:, 0] -= pen would write back a second time
    pen = state.u.take(state._left_last)
    if not spec.periodic:
        pen[0] = spec.inflow(t)
    np.subtract(state.u[:, 0], pen, out=pen)
    pen *= scale
    pen /= state._s_p0
    col = du[:, 0]
    col -= pen


def rhs_advection(state: BlockState, t: float, spec: ProblemSpec) -> np.ndarray:
    """Semidiscrete right-hand side for the advection kinds.

    Each block computes ``-a D_i u_i`` (plus ``c u_i`` for the source
    kind) and adds the boundary penalty ``-sigma a (u_1 - g) / p_1`` at
    its first node.  Returns an array shaped like ``state.u``.
    """
    # scaled and penalised in place on the array allocated here, in the
    # operation order of -a * (u @ D.T) / s[:, None] and
    # sigma * a * (u_1 - g) / p_1; the divisor is s repeated along each row
    a = spec.wave_speed
    u = state.u
    du = np.dot(u, state._DT)
    du *= -a
    du /= state._s_div
    if spec.kind == "advection_source":
        du += spec.source_coefficient * u
    _penalise(du, state, t, spec, spec.effective_sigma * a)
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
    _penalise(du, state, t, spec, (spec.effective_sigma / 3.0) * u[:, 0])
    return du


def rhs_for(spec: ProblemSpec) -> Callable[[BlockState, float], np.ndarray]:
    """Bind a problem to its right-hand-side function of (state, t)."""
    if spec.kind == "burgers":
        return lambda state, t: rhs_burgers(state, t, spec)
    return lambda state, t: rhs_advection(state, t, spec)


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
    produced it.  A non-finite ``dt`` raises ``ValueError`` before any
    stage.

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
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    t, u0 = state.t, state.u

    u1 = u0 + dt * rhs_fn(state, t)
    _check_finite(u1, t)

    k = rhs_fn(state._on_same_grid(u1, t + dt), t + dt)
    u2 = u1 + dt * k
    u2 *= 0.25
    u2 += 0.75 * u0
    _check_finite(u2, t + dt)

    k = rhs_fn(state._on_same_grid(u2, t + 0.5 * dt), t + 0.5 * dt)
    u3 = u2 + dt * k
    u3 *= 2.0
    u3 += u0
    u3 /= 3.0
    _check_finite(u3, t + 0.5 * dt)
    return state._on_same_grid(u3, t + dt)


@dataclass(frozen=True)
class RunResult:
    """Final state, per-step mass/energy history and the step count."""

    state: BlockState
    history: tuple
    steps: int


def _max_wave_speed(spec: ProblemSpec, u: np.ndarray) -> float:
    if spec.kind == "burgers":
        return max(1.0, float(_amax(np.abs(u))))
    return spec.wave_speed


def _require_finite(what: str, v: np.ndarray, name: str, at: np.ndarray) -> None:
    """Refuse non-finite values ``v``, naming the first one and its ``name=at``."""
    bad = ~np.isfinite(v)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"{what} must be finite, got {v[i]} at {name}={at[i]:.6g}")


def _block_count(value) -> int:
    """``value`` as a block count: a whole number of at least 1."""
    n = _whole_count(value, "block count")
    if n < 1:
        raise ValueError(f"need at least one block, got {n}")
    return n


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
    are recorded after every step.  The initial values must be finite,
    and a non-periodic problem's inflow is
    sampled at 65 times of ``[0, t_final]`` before the first step and
    must be finite there (both nonnegative for Burgers).
    """
    from .diagnostics import DiagnosticsRecord, energy, mass

    for name, value in (("cfl", cfl), ("t_final", t_final)):
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, got {value}")
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    if not (np.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    t_final = float(t_final)
    n_blocks = _block_count(n_blocks)

    ref_op = find_operator(_reference_space(space), n_nodes)

    edges = np.linspace(spec.domain.left, spec.domain.right, n_blocks + 1)
    state = BlockState(
        u=np.zeros((n_blocks, ref_op.n_nodes)), operator=ref_op, edges=edges, t=0.0
    )
    nodes = state.nodes
    u = _real_array(spec.initial_condition(nodes.ravel()), "initial condition values")
    if u.shape != (nodes.size,):
        raise ValueError("initial condition must return one value per node")
    _require_finite("initial condition", u, "x", nodes.ravel())

    if spec.kind == "burgers" and float(np.min(u)) < -1e-12:
        raise ValueError("Burgers runs require nonnegative initial data")
    if not spec.periodic:
        ts = np.linspace(0.0, t_final, 65)
        g = np.array([float(spec.inflow(t)) for t in ts])
        _require_finite("inflow", g, "t", ts)
        if spec.kind == "burgers" and g.min() < -1e-12:
            raise ValueError("Burgers runs require nonnegative inflow data")

    state = state._on_same_grid(u.reshape(nodes.shape), 0.0)
    rhs_fn = rhs_for(spec)
    spacing = float(np.min(np.diff(nodes, axis=1)))

    history = [DiagnosticsRecord(t=0.0, mass=mass(state), energy=energy(state))]
    steps = 0
    tiny = 1e-12 * max(1.0, t_final)
    # a blow-up overflows on its way to inf or nan; every stage is checked
    # for finite values, so it raises InstabilityError, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        while state.t < t_final - tiny:
            dt = cfl * spacing / _max_wave_speed(spec, state.u)
            last = state.t + dt >= t_final - tiny
            if last:
                dt = t_final - state.t
            state = ssprk33_step(rhs_fn, state, dt)
            if last:
                state = state._on_same_grid(state.u, t_final)
            steps += 1
            history.append(
                DiagnosticsRecord(t=state.t, mass=mass(state), energy=energy(state))
            )
    return RunResult(state=state, history=tuple(history), steps=steps)
