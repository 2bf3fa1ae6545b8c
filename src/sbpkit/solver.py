"""Multi-block semidiscretizations with boundary and coupling penalties.

Three model problems are supported on a partition of the domain into
contiguous blocks, each carrying an affinely mapped copy of one reference
operator:

* linear advection ``u_t + a u_x = 0``,
* advection with a linear source ``u_t + a u_x = c u``,
* Burgers' equation in split form ``u_t + (1/3)(u u_x + (u^2)_x) = 0``.

Boundary data enters weakly through a penalty at the first node of each
block; interface coupling passes the rightmost value of the left
neighbour, and periodic runs close the chain.  Time stepping is the
three-stage third-order strong-stability-preserving Runge-Kutta scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .operators import FsbpOperator, affine_block_operator, find_operator
from .spaces import FunctionSpace, Interval, UNIT_INTERVAL, make_space

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


@dataclass(frozen=True)
class ProblemSpec:
    """Model problem: equation kind, domain, data and penalty strength.

    ``initial_condition`` maps node arrays to values.  Periodic problems
    ignore ``inflow``; otherwise ``inflow`` supplies the weak boundary
    data g(t) at the left end.  ``sigma`` of ``None`` picks the default
    penalty strength (1 for the advection kinds, 2 for Burgers).
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
    """Solution values per block, the block operators and the time."""

    blocks: tuple[np.ndarray, ...]
    operators: tuple[FsbpOperator, ...]
    t: float

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.operators):
            raise ValueError("one operator per block is required")
        frozen = []
        for u, op in zip(self.blocks, self.operators):
            arr = np.asarray(u, dtype=float)
            if arr.shape != (op.n_nodes,):
                raise ValueError("block values do not match operator nodes")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_nodes(self) -> int:
        return sum(u.size for u in self.blocks)


def _left_values(state: BlockState, t: float, spec: ProblemSpec) -> list[float]:
    """Weak boundary datum for each block's first node.

    Interior blocks receive the rightmost value of their left neighbour;
    the first block receives either the inflow data or, when periodic,
    the rightmost value of the last block.  All values are read from the
    given state snapshot.
    """
    gs = []
    for i in range(state.n_blocks):
        if i > 0:
            gs.append(float(state.blocks[i - 1][-1]))
        elif spec.periodic:
            gs.append(float(state.blocks[-1][-1]))
        else:
            gs.append(float(spec.inflow(t)))
    return gs


def rhs_advection(state: BlockState, t: float, spec: ProblemSpec) -> list[np.ndarray]:
    """Semidiscrete right-hand side for the advection kinds.

    Each block computes ``-a D u`` (plus ``c u`` for the source kind) and
    adds the boundary penalty ``-sigma a (u_1 - g) / p_1`` at its first
    node.
    """
    a = spec.wave_speed
    sigma = spec.effective_sigma
    c = spec.source_coefficient if spec.kind == "advection_source" else 0.0
    gs = _left_values(state, t, spec)
    out = []
    for u, op, g in zip(state.blocks, state.operators, gs):
        du = -a * (op.D @ u)
        if c:
            du = du + c * u
        du[0] -= sigma * a * (u[0] - g) / op.p[0]
        out.append(du)
    return out


def rhs_burgers(state: BlockState, t: float, spec: ProblemSpec) -> list[np.ndarray]:
    """Split-form Burgers right-hand side with a nonlinear inflow penalty.

    Each block computes ``-(D(u^2) + u D u) / 3`` plus the penalty
    ``-(sigma/3) u_1 (u_1 - g) / p_1`` at its first node, which makes the
    discrete energy rate depend on boundary values only.
    """
    sigma = spec.effective_sigma
    gs = _left_values(state, t, spec)
    out = []
    for u, op, g in zip(state.blocks, state.operators, gs):
        du = -(op.D @ (u * u) + u * (op.D @ u)) / 3.0
        du[0] -= (sigma / 3.0) * u[0] * (u[0] - g) / op.p[0]
        out.append(du)
    return out


def rhs_for(spec: ProblemSpec) -> Callable[[BlockState, float], list[np.ndarray]]:
    """Bind a problem to its right-hand-side function of (state, t)."""
    if spec.kind == "burgers":
        return lambda state, t: rhs_burgers(state, t, spec)
    return lambda state, t: rhs_advection(state, t, spec)


def _check_finite(blocks: Sequence[np.ndarray], t: float) -> None:
    for u in blocks:
        if not np.all(np.isfinite(u)):
            raise InstabilityError(f"non-finite solution values near t={t:.6g}")


def ssprk33_step(
    rhs_fn: Callable[[BlockState, float], list[np.ndarray]],
    state: BlockState,
    dt: float,
) -> BlockState:
    """One step of the three-stage third-order SSP Runge-Kutta scheme.

    Stages evaluate the right-hand side at times t, t + dt and t + dt/2;
    every stage is checked for finite values, and a failure names the
    time of the stage that produced it.
    """
    t, u0 = state.t, state.blocks

    k = rhs_fn(state, t)
    u1 = [u + dt * du for u, du in zip(u0, k)]
    _check_finite(u1, t)
    s1 = replace(state, blocks=tuple(u1), t=t + dt)

    k = rhs_fn(s1, t + dt)
    u2 = [
        0.75 * u + 0.25 * (v + dt * du) for u, v, du in zip(u0, s1.blocks, k)
    ]
    _check_finite(u2, t + dt)
    s2 = replace(state, blocks=tuple(u2), t=t + 0.5 * dt)

    k = rhs_fn(s2, t + 0.5 * dt)
    u3 = [
        (u + 2.0 * (v + dt * du)) / 3.0 for u, v, du in zip(u0, s2.blocks, k)
    ]
    _check_finite(u3, t + 0.5 * dt)
    return replace(state, blocks=tuple(u3), t=t + dt)


@dataclass(frozen=True)
class RunResult:
    """Final state, per-step mass/energy history and the step count."""

    state: BlockState
    history: tuple
    steps: int


def _max_wave_speed(spec: ProblemSpec, blocks: Sequence[np.ndarray]) -> float:
    if spec.kind == "burgers":
        peak = max(float(np.max(np.abs(u))) for u in blocks)
        return max(1.0, peak)
    return spec.wave_speed


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
    textual kind or a prebuilt reference space) and transplanted to the
    blocks.  The step size is ``cfl`` times the smallest node spacing
    over the largest wave speed, refreshed every step for Burgers, and
    the final step is shortened to land on ``t_final`` exactly.  Mass and
    energy are recorded after every step.
    """
    from .diagnostics import DiagnosticsRecord, energy, mass

    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    if t_final < 0.0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    if n_blocks < 1:
        raise ValueError(f"need at least one block, got {n_blocks}")

    if isinstance(space, FunctionSpace):
        ref_space = space
    else:
        ref_space = make_space(space, UNIT_INTERVAL)
    ref_op = find_operator(ref_space, n_nodes)

    edges = np.linspace(spec.domain.left, spec.domain.right, n_blocks + 1)
    ops = tuple(
        affine_block_operator(ref_op, Interval(float(a), float(b)))
        for a, b in zip(edges[:-1], edges[1:])
    )
    blocks = tuple(
        np.asarray(spec.initial_condition(op.nodes), dtype=float) for op in ops
    )
    for u, op in zip(blocks, ops):
        if u.shape != op.nodes.shape:
            raise ValueError("initial condition must return one value per node")

    if spec.kind == "burgers":
        if min(float(np.min(u)) for u in blocks) < -1e-12:
            raise ValueError("Burgers runs require nonnegative initial data")
        if not spec.periodic:
            ts = np.linspace(0.0, t_final, 65)
            if min(float(spec.inflow(t)) for t in ts) < -1e-12:
                raise ValueError("Burgers runs require nonnegative inflow data")

    state = BlockState(blocks=blocks, operators=ops, t=0.0)
    _check_finite(state.blocks, 0.0)
    rhs_fn = rhs_for(spec)
    spacing = float(np.min(np.diff(ops[0].nodes)))

    history = [DiagnosticsRecord(t=0.0, mass=mass(state), energy=energy(state))]
    steps = 0
    tiny = 1e-12 * max(1.0, t_final)
    while state.t < t_final - tiny:
        dt = cfl * spacing / _max_wave_speed(spec, state.blocks)
        last = state.t + dt >= t_final - tiny
        if last:
            dt = t_final - state.t
        state = ssprk33_step(rhs_fn, state, dt)
        if last:
            state = replace(state, t=t_final)
        steps += 1
        history.append(
            DiagnosticsRecord(t=state.t, mass=mass(state), energy=energy(state))
        )
    return RunResult(state=state, history=tuple(history), steps=steps)
