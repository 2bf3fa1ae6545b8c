"""Old-vs-new sweep of the operator search over 480 searches.

Each search is one ``find_operator(space, n_nodes)`` call.  The spaces are
``poly`` d in {0..6, 8, 10, 12, 16, 20, 24, 30, 40}, ``trig`` d in
{1..6, 8, 10, 12, 16, 20}, ``exp`` d = 1..8 and ``rbf-cubic`` with 3, 4,
5, 7, 9 and 11 equispaced centers, each on [0, 1], [-1, 1] and [0, pi],
searched unpinned and pinned at dim + 2, dim + 6 and 64 nodes.  Every
search gives one JSON entry: the SHA-256 of the operator's ``nodes``,
``p``, ``Q`` and ``D`` bytes, or the type and message of the failure and
of its cause.

Run the sweep of one source tree, then compare two result files::

    python3 tools/operator_sweep.py --src path/to/parent/src --out parent.json
    python3 tools/operator_sweep.py --out change.json
    python3 tools/operator_sweep.py --compare parent.json change.json

``--src`` defaults to the ``src/`` directory next to this file; the
package is imported from there, so each tree is swept in its own
process.  ``--compare`` prints every key whose entry differs or that only
one file has, and exits 1 if there is any, like ``diff``.  Its last line
tallies the moves by kind: a failure that became an operator and the
reverse, an operator on fewer, more or the same number of nodes, a
failure whose message changed, and a key that only one file has.

``--reverse`` runs the same searches in reverse order (families, then
intervals, then pins).  Comparing its result file with a forward sweep
of the same tree shows any search whose result depends on what ran
earlier in the process, such as through a cache or a space's kept grid::

    python3 tools/operator_sweep.py --reverse --out reverse.json
    python3 tools/operator_sweep.py --compare change.json reverse.json
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything can load numpy, so both
# sides of a comparison take the same floating-point path
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

FAMILIES = (
    [f"poly:d={d}" for d in (*range(7), 8, 10, 12, 16, 20, 24, 30, 40)]
    + [f"trig:d={d}" for d in (*range(1, 7), 8, 10, 12, 16, 20)]
    + [f"exp:d={d}" for d in range(1, 9)]
    + [f"rbf-cubic:m={m}" for m in (3, 4, 5, 7, 9, 11)]
)
INTERVALS = ((0.0, 1.0), (-1.0, 1.0), (0.0, math.pi))


def _space_text(label: str, left: float, right: float) -> str:
    # rbf-cubic:m=5 stands for five equispaced centers over the interval
    if not label.startswith("rbf-cubic:m="):
        return label
    m = int(label.split("=")[1])
    centers = np.linspace(left, right, m)
    return "rbf-cubic:centers=" + ",".join(format(c, ".17g") for c in centers)


def _failure(exc: BaseException) -> dict:
    cause = exc.__cause__
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "cause": None if cause is None else f"{type(cause).__name__}: {cause}",
    }


def sweep(reverse: bool = False) -> dict:
    """Result entry of every search, keyed by space, interval and pin.

    ``reverse`` walks the families, the intervals and the pins in reverse
    order; the entries are the same unless a search depends on what ran
    before it in the process.
    """
    import sbpkit

    walk = reversed if reverse else iter
    results = {}
    for label in walk(FAMILIES):
        for left, right in walk(INTERVALS):
            where = f"{label} on [{left:.17g}, {right:.17g}]"
            try:
                space = sbpkit.make_space(
                    _space_text(label, left, right), sbpkit.Interval(left, right)
                )
            except Exception as exc:  # recorded, so the sweep goes on
                for pin in ("none", "dim+2", "dim+6", "64"):
                    results[f"{where} n={pin}"] = _failure(exc)
                continue
            pins = {
                "none": None,
                "dim+2": space.dim + 2,
                "dim+6": space.dim + 6,
                "64": 64,
            }
            for pin, n_nodes in walk(pins.items()):
                try:
                    op = sbpkit.find_operator(space, n_nodes)
                except Exception as exc:  # recorded, so the sweep goes on
                    results[f"{where} n={pin}"] = _failure(exc)
                    continue
                digest = hashlib.sha256()
                for name in ("nodes", "p", "Q", "D"):
                    digest.update(getattr(op, name).tobytes())
                results[f"{where} n={pin}"] = {
                    "n_nodes": op.n_nodes,
                    "sha256": digest.hexdigest(),
                }
    return results


def compare(a: dict, b: dict) -> list[str]:
    """Keys whose entries differ between two sweeps, or that one lacks."""
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


MOVE_KINDS = (
    "failure->operator",
    "operator->failure",
    "fewer nodes",
    "more nodes",
    "same node count",
    "failure message only",
    "in one file only",
)


def move_kind(old: dict | None, new: dict | None) -> str:
    """Which of ``MOVE_KINDS`` a moved key's pair of entries is."""
    if old is None or new is None:
        return "in one file only"
    if "n_nodes" not in old:
        return "failure message only" if "error" in new else "failure->operator"
    if "n_nodes" not in new:
        return "operator->failure"
    if new["n_nodes"] == old["n_nodes"]:
        return "same node count"
    return "fewer nodes" if new["n_nodes"] < old["n_nodes"] else "more nodes"


def tally(a: dict, b: dict) -> str:
    """One line counting the moved keys of two sweeps by ``move_kind``."""
    counts = dict.fromkeys(MOVE_KINDS, 0)
    for key in compare(a, b):
        counts[move_kind(a.get(key), b.get(key))] += 1
    return ", ".join(f"{count} {kind}" for kind, count in counts.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="source directory holding the sbpkit package")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the results here instead of standard output")
    parser.add_argument("--reverse", action="store_true",
                        help="search the families, intervals and pins in "
                             "reverse order (the result file is the same "
                             "unless a search depends on call order)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="list the keys that moved between two result files")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        moved = compare(a, b)
        for key in moved:
            print(key)
            for path, entries in zip(args.compare, (a, b)):
                print(f"  {path}: {entries.get(key)}")
        print(f"{len(moved)} of {len(a.keys() | b.keys())} searches moved")
        print(tally(a, b))
        return 1 if moved else 0

    sys.path.insert(0, str(args.src.resolve()))
    text = json.dumps(sweep(args.reverse), indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
