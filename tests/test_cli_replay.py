"""The old-vs-new comparison of tools/cli_replay.py, on synthetic directories."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cli_replay.py"


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("cli_replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, replay, changed: dict[str, bytes | None]) -> Path:
    # every kept file with the same bytes, except those in changed (None:
    # left out)
    for rel in replay.kept_files():
        content = changed.get(rel, f"{rel}\n".encode())
        if content is not None:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(content)
    return root


def test_the_table_holds_seven_studies_eleven_runs_and_four_builds(replay):
    commands = [options.split()[0] for _, _, options in replay.CASES]
    assert [commands.count(c) for c in ("convergence", "run", "build")] == [7, 11, 4]
    assert len({case for case, _, _ in replay.CASES}) == len(replay.CASES)


def test_identical_trees_move_nothing(tmp_path, replay, capsys):
    a = _tree(tmp_path / "a", replay, {})
    b = _tree(tmp_path / "b", replay, {})
    assert replay.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0 of 56 files moved"
    assert lines[-1].startswith("0 convergence.csv, 0 diagnostics.csv")


def test_compare_lists_each_moved_file_and_tallies_them(tmp_path, replay, capsys):
    a = _tree(tmp_path / "a", replay, {"exp8/op.json": None, "exp8/verify.txt": None})
    b = _tree(
        tmp_path / "b",
        replay,
        {
            "run10/solution.csv": b"moved\n",
            "zeroadv/solution.csv": b"moved\n",
            "blowup/stderr.txt": b"unstable\n",
            "study/convergence.csv": None,
            # absent on both sides: not moved
            "exp8/verify.txt": None,
        },
    )
    assert replay.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # in table order
    assert lines[:-2] == [
        "study/convergence.csv",
        "run10/solution.csv",
        "zeroadv/solution.csv",
        "blowup/stderr.txt",
        "exp8/op.json",
    ]
    assert lines[-2] == "5 of 56 files moved"
    assert lines[-1] == (
        "0 convergence.csv, 0 diagnostics.csv, 0 op.json, 2 solution.csv, "
        "0 status, 1 stderr.txt, 0 summary-no-wallclock.csv, 0 verify-status, "
        "0 verify.txt, 2 in one directory only"
    )


def test_replay_needs_an_output_directory(replay, capsys):
    with pytest.raises(SystemExit) as exc:
        replay.main([])
    assert exc.value.code == 2
    assert "--out is required" in capsys.readouterr().err
