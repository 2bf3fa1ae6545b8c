"""Command-line front end: build, verify, run, convergence.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 when a
verification fails, 3 when a time integration blows up.  Flags can be
preloaded from a JSON config file via --config; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
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


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each command, by name.

    Built once per process, on first use, and shared by every ``main``
    call: parsing never changes a parser, and config values go to the
    namespace, not to the parser's defaults.
    """
    parser = _Parser(prog="sbpkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON file with default flag values")

    p_build = sub.add_parser("build", parents=[common],
                             help="construct an operator and write it to a file")
    p_build.add_argument("--space",
                         help="space such as trig:d=1 or rbf-cubic:centers=0,0.5,1")
    p_build.add_argument("--domain", nargs=2, type=float, default=None,
                         metavar=("XL", "XR"))
    p_build.add_argument("--nodes", type=int, default=None)
    p_build.add_argument("--out", type=Path, default=None)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check a stored operator file")
    p_verify.add_argument("opfile", type=Path)

    # flags shared by the two time-integration commands
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", choices=tuple(_PROBLEM_SETUP))
    problem.add_argument("--domain", nargs=2, type=float, default=None,
                         metavar=("XL", "XR"))
    problem.add_argument("--nodes", type=int, default=None)
    problem.add_argument("--tfinal", type=float, default=None)
    problem.add_argument("--cfl", type=float, default=None)
    problem.add_argument("--sigma", type=float, default=None)
    problem.add_argument("--periodic", action="store_true", default=None,
                         help="force periodic coupling")
    problem.add_argument("--inflow", type=float, default=None,
                         help="constant inflow value (forces a boundary run)")
    problem.add_argument("--out", type=Path, default=None)

    p_run = sub.add_parser("run", parents=[common, problem],
                           help="integrate a model problem and write CSV output")
    p_run.add_argument("--space")
    p_run.add_argument("--blocks", type=int, default=None)

    p_conv = sub.add_parser("convergence", parents=[common, problem],
                            help="error table over a ladder of block counts")
    p_conv.add_argument("--space", action="append",
                        help="repeatable; one table section per space")
    p_conv.add_argument("--blocks", nargs="+", type=int, default=None)
    return parser, sub.choices


#: values applied after the config merge when neither flags nor the config
#: file set them; required options have no default and are checked below
_DEFAULTS = {
    "build": {"domain": [0.0, 1.0]},
    "verify": {},
    "run": {"blocks": 1, "cfl": 0.5, "out": Path(".")},
    "convergence": {"cfl": 0.5, "out": Path(".")},
}
_REQUIRED = {
    "build": ("space", "nodes", "out"),
    "verify": (),
    "run": ("problem", "space"),
    "convergence": ("problem", "space", "blocks"),
}


def _config_value(action: argparse.Action, value, where: str):
    """A config value as its flag would parse it, or ``ValueError``.

    An on/off flag takes a JSON boolean.  Every other value item must be
    a string or a number that the flag's type accepts in its text form;
    an option of fixed or variable arity takes a list, and a repeatable
    one a list or a single item.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"{where} takes true or false, got {value!r}")
        return value
    repeatable = isinstance(action, argparse._AppendAction)
    if action.nargs == "+" or isinstance(action.nargs, int):
        count = "one or more" if action.nargs == "+" else action.nargs
        if not isinstance(value, list) or not value or (
            isinstance(action.nargs, int) and len(value) != action.nargs
        ):
            raise ValueError(f"{where} takes a list of {count} values, got {value!r}")
        items = value
    elif repeatable and isinstance(value, list):
        items = value
    else:
        items = [value]

    convert = action.type or str
    parsed = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise ValueError(f"{where}: {item!r} is not a string or a number")
        try:
            item = convert(str(item))
        except ValueError:
            raise ValueError(f"{where}: invalid value {item!r}") from None
        if action.choices is not None and item not in action.choices:
            raise ValueError(
                f"{where} must be one of {tuple(action.choices)}, got {item!r}"
            )
        parsed.append(item)
    return parsed if action.nargs is not None or repeatable else parsed[0]


def _apply_config(args: argparse.Namespace, command: argparse.ArgumentParser) -> None:
    """Fill unset flags from the JSON config file, if one was given.

    Every flag parses with a None default, so an explicit command-line
    value always wins over the file; per-command defaults are applied
    only after the merge.  Each value is checked against the flag of
    ``command`` it stands for, and ``null`` leaves the flag unset.
    """
    path = getattr(args, "config", None)
    if path is None:
        return
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    actions = {a.dest: a for a in command._actions if a.dest != "config"}
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr not in actions or not hasattr(args, attr):
            raise ValueError(f"config {path}: unknown option {key!r}")
        if getattr(args, attr) is None and value is not None:
            where = f"config {path}: option {key!r}"
            setattr(args, attr, _config_value(actions[attr], value, where))


def _finish_args(args: argparse.Namespace) -> None:
    for key, value in _DEFAULTS[args.command].items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    missing = [k for k in _REQUIRED[args.command] if getattr(args, k) is None]
    if missing:
        flags = " ".join("--" + k for k in missing)
        raise ValueError(f"missing required option(s): {flags}")


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
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, commands[args.command])
        _finish_args(args)
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
