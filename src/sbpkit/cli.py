"""Command-line front end: build, verify, run, convergence.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 when a
verification fails, 3 when a time integration blows up.  An argument
@FILE reads more arguments from FILE, each line split like a shell command
line, in its place: `sbpkit run @flags.txt --tfinal 0`; a later flag wins.
"""

from __future__ import annotations

import argparse
import csv
import functools
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from .diagnostics import convergence_table, error_report, reference_solution
from .operators import (
    OperatorError,
    find_operator,
    verify_sbp,
    write_operator,
    _fmt,
    _load_and_check,
)
from .quadrature import QuadratureError
from .solver import InstabilityError, Interval, ProblemSpec, run
from .spaces import _real, make_space

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_UNSTABLE = 3


def _oscillatory(x):
    x = np.asarray(x, dtype=float)
    return np.cos(4.0 * np.pi * x) + 0.5 * np.sin(40.0 * np.pi * x)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _bumpy(x):
    # 1 + sin(w)^3 / 2 + cos(w)^5 / 4 with w = 4 pi x; the odd powers are
    # products, which numpy evaluates far faster than ``**``
    w = 4.0 * np.pi * np.asarray(x, dtype=float)
    sin, cos = np.sin(w), np.cos(w)
    cos2 = cos * cos
    return 1.0 + 0.5 * (sin * sin * sin) + 0.25 * (cos2 * cos2 * cos)


#: per-problem defaults: kind, source coefficient, initial data, domain,
#: inflow value (None: periodic), t_final; its keys are the --problem choices
_PROBLEM_SETUP = {
    "advection": dict(kind="advection", source=0.0, ic=_oscillatory,
                      domain=(0.0, 1.0), inflow=None, tfinal=1.0),
    "advection-source": dict(kind="advection", source=2.0, ic=_ones,
                             domain=(0.0, np.pi), inflow=1.0, tfinal=3.5),
    "burgers": dict(kind="burgers", source=0.0, ic=_bumpy,
                    domain=(0.0, 1.0), inflow=None, tfinal=0.01),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def convert_arg_line_to_args(self, arg_line):
        # a line of an argument file reads like a piece of the command line
        return shlex.split(arg_line)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The top-level parser, with the parser of each command.

    Built once per process, on first use, and shared by every ``main``
    call: parsing never changes a parser.
    """
    parser = _Parser(prog="sbpkit", description=__doc__, fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build",
                             help="construct an operator and write it to a file")
    p_build.add_argument("--space", required=True,
                         help="space such as trig:d=1 or rbf-cubic:centers=0,0.5,1")
    p_build.add_argument("--domain", nargs=2, type=float, default=(0.0, 1.0),
                         metavar=("XL", "XR"))
    p_build.add_argument("--nodes", type=int, required=True)
    p_build.add_argument("--out", type=Path, required=True)

    p_verify = sub.add_parser("verify", help="check a stored operator file")
    p_verify.add_argument("opfile", type=Path)

    # flags shared by the two time-integration commands
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", choices=tuple(_PROBLEM_SETUP), required=True)
    problem.add_argument("--domain", nargs=2, type=float, metavar=("XL", "XR"))
    problem.add_argument("--nodes", type=int)
    problem.add_argument("--tfinal", type=float)
    problem.add_argument("--cfl", type=float, default=0.5)
    problem.add_argument("--sigma", type=float)
    problem.add_argument("--periodic", action="store_true",
                         help="force periodic coupling")
    problem.add_argument("--inflow", type=float,
                         help="constant inflow value (forces a boundary run)")
    problem.add_argument("--out", type=Path, default=Path("."))

    p_run = sub.add_parser("run", parents=[problem],
                           help="integrate a model problem and write CSV output")
    p_run.add_argument("--space", required=True)
    p_run.add_argument("--blocks", type=int, default=1)

    p_conv = sub.add_parser("convergence", parents=[problem],
                            help="error table over a ladder of block counts")
    p_conv.add_argument("--space", action="append", required=True,
                        help="repeatable; one table section per space")
    p_conv.add_argument("--blocks", nargs="+", type=int, required=True)
    return parser


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    # a field is quoted only when it needs it, such as a space text with commas
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [v if isinstance(v, str) else _fmt(v) for v in row] for row in rows
        )


def _cmd_build(args) -> int:
    space = make_space(args.space, Interval(*args.domain))
    op = find_operator(space, args.nodes)
    report = verify_sbp(op)  # on the winning grid the space still keeps
    write_operator(op, args.out)
    print(f"space      {space.kind}")
    print(f"nodes      {op.n_nodes}")
    print("weights    " + " ".join(format(w, ".6g") for w in op.p))
    print(f"exactness  {report.exactness_residual:.3e}")
    print(f"written    {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    _, report, exact = _load_and_check(args.opfile)
    print(f"exactness residual     {report.exactness_residual:.3e}")
    print(f"antisymmetry residual  {report.antisymmetry_residual:.3e}")
    print(f"min weight             {report.min_weight:.6g}")
    print(f"constant residual      {report.d_one_residual:.3e}")
    print(f"coherence residual     {report.coherence_residual:.3e}")
    print(f"quadrature residual    {exact.max_scaled_residual:.3e}")
    if not report.min_weight > 0.0:
        print(
            "FAIL: norm weights must be strictly positive "
            "(positive-definite norm axiom)",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    if not report.passed or not exact.ok:
        print("FAIL: operator violates the summation-by-parts axioms",
              file=sys.stderr)
        return EXIT_VERIFY
    print("PASS")
    return EXIT_OK


def _problem_spec(args) -> tuple[ProblemSpec, float]:
    setup = _PROBLEM_SETUP[args.problem]
    # --periodic wins over --inflow, and --inflow over the table
    g = setup["inflow"] if args.inflow is None else _real(args.inflow, "--inflow")
    spec = ProblemSpec(
        kind=setup["kind"],
        domain=Interval(*(args.domain or setup["domain"])),
        initial_condition=setup["ic"],
        inflow=None if args.periodic or g is None else (lambda t, g=g: g),
        source_coefficient=setup["source"],
        sigma=args.sigma,
    )
    tfinal = args.tfinal if args.tfinal is not None else setup["tfinal"]
    return spec, tfinal


def _cmd_run(args) -> int:
    spec, tfinal = _problem_spec(args)
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)

    # a reference that refuses its data does so before the run; every
    # output is computed before the first file is written, so a failing
    # reference leaves an output directory as it was
    ref = reference_solution(spec, tfinal)
    start = time.perf_counter()
    result = run(
        spec,
        args.space,
        n_nodes=args.nodes,
        n_blocks=args.blocks,
        t_final=tfinal,
        cfl=args.cfl,
    )
    wallclock = time.perf_counter() - start

    nodes = result.state.nodes.ravel()
    uref = ref(nodes) if ref is not None else np.full(nodes.size, np.nan)
    # reuse the reference values already evaluated on these nodes; NaN
    # values (no reference) give NaN norms
    err = error_report(result.state, lambda _nodes: uref)

    _write_csv(
        outdir / "diagnostics.csv",
        ["t", "mass", "energy"],
        [[rec.t, rec.mass, rec.energy] for rec in result.history],
    )
    rows = [
        [x, v, vr, abs(v - vr)]
        for x, v, vr in zip(nodes, result.state.u.ravel(), uref)
    ]
    _write_csv(outdir / "solution.csv", ["x", "u", "u_ref", "abs_err"], rows)
    _write_csv(
        outdir / "summary.csv",
        ["err_P", "err_2", "err_max", "steps", "wallclock_s"],
        [[err.err_p, err.err_2, err.err_max, float(result.steps), wallclock]],
    )
    print(
        f"steps {result.steps}  t {result.state.t:.6g}  "
        + ("no reference" if ref is None else f"err_P {err.err_p:.6e}")
    )
    return EXIT_OK


def _cmd_convergence(args) -> int:
    spec, tfinal = _problem_spec(args)
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    rows = convergence_table(
        spec,
        args.space,
        args.blocks,
        n_nodes=args.nodes,
        t_final=tfinal,
        cfl=args.cfl,
    )
    _write_csv(
        outdir / "convergence.csv",
        ["space", "I", "err_P", "err_2", "err_max", "order"],
        [[r.space, float(r.blocks), r.err_p, r.err_2, r.err_max, r.order]
         for r in rows],
    )
    for r in rows:
        order = "      " if np.isnan(r.order) else f"{r.order:6.2f}"
        print(
            f"{r.space:24s} I={r.blocks:<4d} err_P {r.err_p:.6e}  "
            f"err_max {r.err_max:.6e}  order {order}"
        )
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "run": _cmd_run,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OperatorError, QuadratureError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except InstabilityError as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
