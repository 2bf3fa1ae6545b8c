"""The old-vs-new comparison of tools/operator_sweep.py, on synthetic entries."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "operator_sweep.py"


@pytest.fixture
def sweep(monkeypatch):
    # the script pins the BLAS thread variables on import; keep that local
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("operator_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _op(n_nodes, digest="a"):
    return {"n_nodes": n_nodes, "sha256": digest}


def _failure(message):
    return {"error": "OperatorError", "message": message, "cause": None}


OLD = {
    "found": _failure("none up to 36"),
    "lost": _op(5),
    "fewer 1": _op(19),
    "fewer 2": _op(30),
    "more": _op(15),
    "rounding 1": _op(7, "a"),
    "rounding 2": _op(9, "a"),
    "rounding 3": _op(4, "a"),
    "message": _failure("exactness 1e-9"),
    "old only": _op(3),
    "unmoved": _op(8),
}
NEW = {
    "found": _op(21),
    "lost": _failure("no positive rule"),
    "fewer 1": _op(13),
    "fewer 2": _op(17),
    "more": _op(16),
    "rounding 1": _op(7, "b"),
    "rounding 2": _op(9, "b"),
    "rounding 3": _op(4, "b"),
    "message": _failure("exactness 2e-9"),
    "unmoved": _op(8),
}


def test_tally_counts_each_kind_of_move(sweep):
    assert sweep.tally(OLD, NEW) == (
        "1 failure->operator, 1 operator->failure, 2 fewer nodes, "
        "1 more nodes, 3 same node count, 1 failure message only, "
        "1 in one file only"
    )
    assert sweep.tally(OLD, OLD) == ", ".join(
        f"0 {kind}" for kind in sweep.MOVE_KINDS
    )


def test_compare_ends_with_the_tally(sweep, tmp_path, capsys):
    paths = []
    for name, entries in (("old.json", OLD), ("new.json", NEW)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(entries))
    args = ["--compare", *map(str, paths)]
    assert sweep.main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "10 of 11 searches moved"
    assert lines[-1] == sweep.tally(OLD, NEW)
    assert sweep.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == sweep.tally(OLD, OLD)


def test_reverse_runs_the_same_searches_backwards(sweep, monkeypatch, tmp_path):
    import sbpkit

    families = ["poly:d=1", "exp:d=1", "rbf-cubic:m=3"]
    monkeypatch.setattr(sweep, "FAMILIES", families)
    monkeypatch.setattr(sweep, "INTERVALS", ((0.0, 1.0), (-1.0, 1.0)))
    calls = []
    find_operator = sbpkit.find_operator

    def recorded(space, n_nodes=None):
        calls.append((space.kind, space.interval.left, n_nodes))
        return find_operator(space, n_nodes)

    monkeypatch.setattr(sbpkit, "find_operator", recorded)

    def searches_and_file(*flags):
        calls.clear()
        out = tmp_path / f"sweep{len(flags)}.json"
        assert sweep.main([*flags, "--out", str(out)]) == 0
        return list(calls), out.read_bytes()

    forward, forward_file = searches_and_file()
    backward, backward_file = searches_and_file("--reverse")
    assert len(forward) == 3 * 2 * 4
    assert [pin for *_, pin in forward[:4]] == [None, 4, 8, 64]
    assert backward == forward[::-1]
    assert backward_file == forward_file
