"""Old-vs-new replay of the ``sbpkit`` command line: 7 studies, 11 runs, 4 builds.

Each case is one ``python3 -m sbpkit.cli`` command of ``CASES`` run in a
fresh process, with its output directory ``<out>/<case>``.  What each
case keeps for the comparison:

* a study: ``convergence.csv``;
* a run: ``diagnostics.csv``, ``solution.csv`` and
  ``summary-no-wallclock.csv``, the first four columns of ``summary.csv``
  (its wallclock varies between runs);
* a refusal: its exit ``status`` and ``stderr.txt``;
* a build: its exit ``status`` and ``op.json``, then the output
  (``verify.txt``) and exit status (``verify-status``) of ``sbpkit
  verify`` on that file.  A build that fails leaves no ``op.json``.

Replay the commands on one source tree each, then compare the two output
directories::

    python3 tools/cli_replay.py --src path/to/parent/src --out parent-cli
    python3 tools/cli_replay.py --out change-cli
    python3 tools/cli_replay.py --compare parent-cli change-cli

``--src`` defaults to the ``src/`` directory next to this file.  A study or
run exits 0 on a working tree; one that does not is named on standard
error and the replay exits 2.  ``--compare`` prints every kept file whose
bytes differ or that only one directory has, and exits 1 if there is any,
like ``diff``; its last line tallies the moved files by file name.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

KEPT = {
    "study": ("convergence.csv",),
    "run": ("diagnostics.csv", "solution.csv", "summary-no-wallclock.csv"),
    "refusal": ("status", "stderr.txt"),
    "build": ("status", "op.json", "verify.txt", "verify-status"),
}

_PI = "3.141592653589793"

#: (case, kind, options of the command after its subcommand)
CASES = (
    # Burgers study over five levels of two spaces
    ("study", "study", "convergence --problem burgers --space exp:d=2 "
     "--space poly:d=2 --blocks 10 20 40 80 160 --tfinal 0.05 --cfl 0.5"),
    # --nodes 6: every level of each space shares one pinned operator
    ("pinned", "study", "convergence --problem burgers --space exp:d=2 "
     "--space poly:d=2 --nodes 6 --blocks 10 20 40 --tfinal 0.05 --cfl 0.5"),
    # the source in the inflow reference of a study
    ("source", "study", "convergence --problem advection-source --space poly:d=3 "
     "--blocks 2 4 8 --tfinal 0.5"),
    # a space text with commas, which convergence.csv quotes (a base that
    # joins fields with bare commas lists it as moved)
    ("rbfstudy", "study", "convergence --problem advection "
     "--space rbf-cubic:centers=0,0.5,1 --blocks 2 4 --tfinal 0.1"),
    # the Burgers reference wraps the feet of the characteristics into a
    # domain whose left end is not 0
    ("shiftedstudy", "study", "convergence --problem burgers --space poly:d=2 "
     "--blocks 10 20 --domain 0.25 1.25 --tfinal 0.05 --cfl 0.5"),
    # the source-scaled periodic reference through a study
    ("periodicstudy", "study", "convergence --problem advection-source "
     "--space poly:d=3 --blocks 2 4 8 --tfinal 0.5 --periodic"),
    # initial data not periodic on [0, 0.3]: refused (a base that integrates
    # every level before its reference fails lists its stderr as moved)
    ("refused", "refusal", "convergence --problem burgers --space poly:d=2 "
     "--blocks 10 20 --domain 0 0.3 --tfinal 0.05"),
    # every width ratio is exactly 1/64
    ("run", "run", "run --problem advection --space trig:d=4 --blocks 64 "
     "--tfinal 0.5 --cfl 0.5"),
    # the ratios differ by ulps, so this shows a right side dividing a row
    # by another block's ratio
    ("run10", "run", "run --problem advection --space trig:d=4 --blocks 10 "
     "--tfinal 0.5 --cfl 0.5"),
    # a penalty scale other than exactly 1.0, which the default sigma skips
    ("run10s", "run", "run --problem advection --space trig:d=4 --blocks 10 "
     "--tfinal 0.5 --cfl 0.5 --sigma 0.75"),
    # the inflow penalty
    ("inflow", "run", "run --problem advection-source --space poly:d=3 --blocks 4"),
    # --periodic overrides the problem's inflow
    ("periodic", "run", "run --problem advection-source --space poly:d=3 --blocks 4 "
     "--periodic"),
    # the output of a run without a reference
    ("noref", "run", "run --problem burgers --space poly:d=3 --blocks 4 "
     "--inflow 0.5 --tfinal 0.05"),
    # source-free advection with inflow data
    ("advinflow", "run", "run --problem advection --space poly:d=3 --blocks 4 "
     "--inflow 0.5 --tfinal 0.5"),
    # the advection reference wraps its feet into [-0.5, 0.5]
    ("shifted", "run", "run --problem advection --space trig:d=4 --blocks 10 "
     "--domain -0.5 0.5 --tfinal 0.5 --cfl 0.5"),
    # zero steps on [0, 0.3], where the data is not periodic: the t = 0
    # reference at x = 0.3 (a base whose periodic reference wraps the right
    # end onto the left one at t = 0 lists solution and summary as moved)
    ("zeroadv", "run", "run --problem advection --space poly:d=2 --blocks 2 "
     "--domain 0 0.3 --tfinal 0"),
    ("zeroburgers", "run", "run --problem burgers --space poly:d=2 --blocks 2 "
     "--domain 0 0.3 --tfinal 0"),
    # the values stay finite while their squares overflow (a base that
    # records an inf energy, leaks numpy's overflow warning and exits 0
    # lists both as moved)
    ("blowup", "refusal", "run --problem advection --space trig:d=4 --blocks 10 "
     "--tfinal 0.5 --cfl 0.5 --sigma 10"),
    ("build", "build", f"build --space exp:d=5 --domain 0 {_PI} --nodes 20"),
    # centers written at full precision still include the right end of [0, pi]
    ("rbf", "build", "build --space rbf-cubic:centers=0,1.5707963267948966,"
     f"3.1415926535897931 --domain 0 {_PI} --nodes 4"),
    # the trapezoid rule's equispaced nodes
    ("trig", "build", "build --space trig:d=20 --nodes 42"),
    # Gauss-Lobatto exp nodes survive the file round trip (a base without
    # that candidate has no rule there, exits 2 and writes no file)
    ("exp8", "build", "build --space exp:d=8 --nodes 12"),
)


def kept_files() -> list[str]:
    """Every ``case/file`` the comparison reads, in table order."""
    return [f"{case}/{name}" for case, kind, _ in CASES for name in KEPT[kind]]


def _sbpkit(src: Path, args: list[str], **streams) -> int:
    """The exit status of ``sbpkit <args>`` run on the tree ``src``."""
    # one BLAS/OpenMP thread, so both trees take the same floating-point path
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [sys.executable, "-m", "sbpkit.cli", *args]
    return subprocess.run(command, env=env, check=False, **streams).returncode


def replay(src: Path, out: Path) -> list[str]:
    """Run every case on the tree ``src`` into ``out``; the failed cases.

    A study or run fails when it exits other than 0; the exit status of a
    refusal or build is kept for the comparison instead.
    """
    failed = []
    for case, kind, options in CASES:
        where = out / case
        where.mkdir(parents=True)
        args = options.split()
        if kind == "build":
            op = str(where / "op.json")
            (where / "status").write_text(f"{_sbpkit(src, [*args, '--out', op])}\n")
            with open(where / "verify.txt", "w") as fh:
                status = _sbpkit(src, ["verify", op], stdout=fh)
            (where / "verify-status").write_text(f"{status}\n")
        elif kind == "refusal":
            with open(where / "stderr.txt", "w") as fh:
                status = _sbpkit(src, [*args, "--out", str(where)], stderr=fh)
            (where / "status").write_text(f"{status}\n")
        elif (status := _sbpkit(src, [*args, "--out", str(where)])) != 0:
            failed.append(f"{case} exited {status}")
        elif kind == "run":
            lines = (where / "summary.csv").read_text().splitlines()
            (where / "summary-no-wallclock.csv").write_text(
                "".join(",".join(line.split(",")[:4]) + "\n" for line in lines)
            )
    return failed


def compare(a: Path, b: Path) -> list[str]:
    """The kept files whose bytes differ, or that only one directory has."""
    moved = []
    for rel in kept_files():
        pa, pb = a / rel, b / rel
        if pa.exists() != pb.exists() or (
            pa.exists() and pa.read_bytes() != pb.read_bytes()
        ):
            moved.append(rel)
    return moved


def tally(a: Path, b: Path, moved: list[str]) -> str:
    """One line counting the moved files by file name, and those one side has."""
    names = sorted({name for kept in KEPT.values() for name in kept})
    counts = dict.fromkeys([*names, "in one directory only"], 0)
    for rel in moved:
        one_side = (a / rel).exists() != (b / rel).exists()
        counts["in one directory only" if one_side else rel.split("/")[1]] += 1
    return ", ".join(f"{count} {name}" for name, count in counts.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="source directory holding the sbpkit package")
    parser.add_argument("--out", type=Path,
                        help="new directory for the outputs of every case")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="list the kept files that moved between two "
                             "output directories")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = args.compare
        moved = compare(a, b)
        for rel in moved:
            print(rel)
        print(f"{len(moved)} of {len(kept_files())} files moved")
        print(tally(a, b, moved))
        return 1 if moved else 0

    if args.out is None:
        parser.error("--out is required unless --compare is given")
    failed = replay(args.src, args.out)
    for line in failed:
        print(f"cli_replay: {line}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
