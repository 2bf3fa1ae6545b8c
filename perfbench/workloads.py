"""Seeded inputs, timed passes and correctness gates of the three workloads.

Each workload has three steps.  ``build`` makes the inputs from the seed
(this is what ``setup_s`` times, together with ``import sbpkit``).
``run_pass`` is the timed part and calls only the public sbpkit API or
CLI.  ``check`` applies the correctness gates to a pass's outputs,
outside the timed region, and returns a :class:`PassOutcome`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sbpkit
from sbpkit import cli

UNIT = sbpkit.Interval(0.0, 1.0)


def _rbf(m: int) -> str:
    return "rbf-cubic:centers=" + ",".join(
        format(v, ".17g") for v in np.linspace(0.0, 1.0, m)
    )


#: (space, interval, pinned node count or None, found at the seed commit)
CATALOG = (
    ("trig:d=20", UNIT, None, True),
    ("poly:d=40", UNIT, None, True),
    ("exp:d=5", UNIT, None, True),
    (_rbf(5), UNIT, None, True),
    (_rbf(7), UNIT, None, True),
    ("poly:d=5", UNIT, 64, True),
    ("trig:d=5", UNIT, 64, True),
    ("exp:d=5", UNIT, 64, True),
    (_rbf(5), UNIT, 64, True),
    ("exp:d=6", UNIT, None, False),
    (_rbf(11), UNIT, None, False),
    ("exp:d=5", sbpkit.Interval(0.0, math.pi), None, False),
)

ADVECTION_SPACE = "trig:d=4"
ADVECTION_BLOCKS = 64
ADVECTION_T_FINAL = 0.5
ADVECTION_STEPS = 576
CONSERVATION_TOL = 1e-10

BURGERS_SPACES = ("exp:d=2", "poly:d=2")
BURGERS_BLOCKS = (10, 20, 40, 80, 160)
BURGERS_T_FINAL = 0.05


@dataclass
class PassOutcome:
    """What one pass did and which gates it broke.

    ``attempted`` operations were run and ``found`` of them produced a
    result; ``errors`` lists gate violations, each one an operation whose
    output is wrong.  The known catalog failures are expected outcomes:
    they count as attempted but not found, and break no gate.
    """

    attempted: int
    found: int
    errors: list[str] = field(default_factory=list)
    searches: int = 0
    steps: int = 0
    grid_nodes: int = 0
    err_p: float = math.nan

    @property
    def failed(self) -> int:
        return min(len(self.errors), self.attempted)


# ---------------------------------------------------------------------------
# operator-catalog


def _test_function(x):
    # not in any catalog space, and smooth enough that every operator's
    # error is far above rounding
    s = x - 0.3
    return np.abs(s) ** 2.5, 2.5 * np.abs(s) ** 1.5 * np.sign(s)


class OperatorCatalog:
    name = "operator-catalog"
    ops_per_pass = len(CATALOG)
    kernel = "lapack-mix"

    def build(self, seed: int, out_root: Path):
        order = np.random.default_rng(seed).permutation(len(CATALOG))
        return [
            (CATALOG[i], sbpkit.make_space(CATALOG[i][0], CATALOG[i][1]))
            for i in order
        ]

    def run_pass(self, inputs):
        out = []
        for (_, _, n_nodes, _), space in inputs:
            try:
                out.append(sbpkit.find_operator(space, n_nodes))
            except (sbpkit.OperatorError, sbpkit.QuadratureError) as exc:
                out.append(exc)
        return out

    def check(self, inputs, raw) -> PassOutcome:
        res = PassOutcome(attempted=len(inputs), found=0, searches=len(inputs))
        errs = []
        for ((text, iv, n_nodes, expected), _), op in zip(inputs, raw):
            label = f"{text} on [{iv.left:g}, {iv.right:g}] nodes={n_nodes}"
            if isinstance(op, Exception):
                if expected:
                    res.errors.append(f"{label}: {op}")
                continue
            res.found += 1
            if not sbpkit.verify_sbp(op).passed:
                res.errors.append(f"{label}: returned operator fails verify_sbp")
            elif n_nodes is not None and op.n_nodes != n_nodes:
                res.errors.append(f"{label}: {op.n_nodes} nodes, pinned {n_nodes}")
            if not expected:
                continue
            if n_nodes is None:
                res.grid_nodes += op.n_nodes
            f, fx = _test_function(op.nodes)
            e = op.D @ f - fx
            errs.append(math.sqrt(float(op.p @ (e * e))))
        # geometric mean, so that every operator moves it and none dominates
        if errs:
            res.err_p = math.exp(sum(map(math.log, errs)) / len(errs))
        return res


# ---------------------------------------------------------------------------
# advection-blocks


@dataclass(frozen=True)
class FourierData:
    """``1 + sum_k a_k cos(2 pi k x + phi_k)`` with seeded phases.

    The amplitudes are fixed, so the error norm hardly depends on the
    seed while the data does.
    """

    phases: tuple[float, ...]
    amplitudes: tuple[float, ...] = (0.5, 0.25, 0.125)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = np.ones_like(x)
        for k, (a, phi) in enumerate(zip(self.amplitudes, self.phases), 1):
            u = u + a * np.cos(2.0 * np.pi * k * x + phi)
        return u


class AdvectionBlocks:
    name = "advection-blocks"
    ops_per_pass = 1
    kernel = "interpreter"

    def build(self, seed: int, out_root: Path):
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 3)
        spec = sbpkit.ProblemSpec(
            kind="advection",
            domain=UNIT,
            initial_condition=FourierData(tuple(float(p) for p in phases)),
        )
        return spec, sbpkit.make_space(ADVECTION_SPACE, UNIT)

    def run_pass(self, inputs):
        spec, space = inputs
        result = sbpkit.run(
            spec, space, n_blocks=ADVECTION_BLOCKS,
            t_final=ADVECTION_T_FINAL, cfl=0.5,
        )
        ref = sbpkit.reference_solution(spec, ADVECTION_T_FINAL)
        return result, sbpkit.error_report(result.state, ref)

    def check(self, inputs, raw) -> PassOutcome:
        result, err = raw
        res = PassOutcome(
            attempted=1, found=1, searches=1, steps=result.steps,
            grid_nodes=result.state.operators[0].n_nodes, err_p=err.err_p,
        )
        masses = np.array([r.mass for r in result.history])
        energies = np.array([r.energy for r in result.history])
        drift = float(np.max(np.abs(masses - masses[0])))
        growth = float(np.max(np.diff(energies)))
        bad = []
        if result.steps != ADVECTION_STEPS:
            bad.append(f"{result.steps} steps, expected {ADVECTION_STEPS}")
        if not drift <= CONSERVATION_TOL:
            bad.append(f"mass drift {drift:.3e}")
        if not growth <= CONSERVATION_TOL:
            bad.append(f"energy growth {growth:.3e} in one step")
        if not 0.0 < err.err_p < 1.0:
            bad.append(f"err_P {err.err_p!r} out of range")
        if bad:
            res.errors.append("; ".join(bad))
        return res


# ---------------------------------------------------------------------------
# burgers-study


@dataclass
class BurgersInputs:
    argv: list[str]
    out_root: Path
    passes: int = 0
    nodes: dict = field(default_factory=dict)


class BurgersStudy:
    name = "burgers-study"
    ops_per_pass = 1
    kernel = "interpreter"

    def build(self, seed: int, out_root: Path):
        order = np.random.default_rng(seed).permutation(len(BURGERS_SPACES))
        spaces = tuple(BURGERS_SPACES[i] for i in order)
        for text in spaces:
            sbpkit.make_space(text, UNIT)
        argv = ["convergence", "--problem", "burgers"]
        for text in spaces:
            argv += ["--space", text]
        argv += ["--blocks", *map(str, BURGERS_BLOCKS)]
        argv += ["--tfinal", repr(BURGERS_T_FINAL), "--cfl", "0.5"]
        return BurgersInputs(argv=argv, out_root=out_root)

    def run_pass(self, inputs: BurgersInputs):
        inputs.passes += 1
        outdir = inputs.out_root / f"burgers-{inputs.passes}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(inputs.argv + ["--out", str(outdir)])
        return rc, outdir

    def check(self, inputs: BurgersInputs, raw) -> PassOutcome:
        rc, outdir = raw
        res = PassOutcome(
            attempted=1, found=0, searches=len(BURGERS_SPACES) * len(BURGERS_BLOCKS)
        )
        if not inputs.nodes:
            # the node counts the CLI's searches land on, found once and
            # outside any timed pass
            inputs.nodes = {
                s: sbpkit.find_operator(sbpkit.make_space(s, UNIT)).n_nodes
                for s in BURGERS_SPACES
            }
        res.grid_nodes = len(BURGERS_BLOCKS) * sum(inputs.nodes.values())
        path = outdir / "convergence.csv"
        if rc != 0 or not path.is_file():
            res.errors.append(f"cli exit {rc}, convergence.csv present: {path.is_file()}")
            return res
        res.found = 1
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        shutil.rmtree(outdir)
        table = {(r["space"], int(float(r["I"]))): r for r in rows}
        wanted = [(s, b) for s in BURGERS_SPACES for b in BURGERS_BLOCKS]
        if len(rows) != len(wanted) or set(table) != set(wanted):
            res.errors.append(f"{len(rows)} csv rows, expected {len(wanted)}: {sorted(table)}")
            return res
        exp_text, poly_text = BURGERS_SPACES
        bad = []
        for blocks in BURGERS_BLOCKS:
            e = float(table[(exp_text, blocks)]["err_max"])
            p = float(table[(poly_text, blocks)]["err_max"])
            if not e < p:
                bad.append(f"I={blocks}: exp err_max {e:.3e} >= poly {p:.3e}")
        if bad:
            res.errors.append("; ".join(bad))
        finest = BURGERS_BLOCKS[-1]
        res.err_p = max(float(table[(s, finest)]["err_P"]) for s in BURGERS_SPACES)
        return res


def get(name: str):
    return {w.name: w for w in (OperatorCatalog(), AdvectionBlocks(), BurgersStudy())}[name]
