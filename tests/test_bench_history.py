"""The committed BENCH_*.json files form a consistent performance history.

Each change that claims or checks a speed-up commits the harness output
of the parent ("before") and of the change ("after") at the repository
root, named ``BENCH_<label>_{before,after}_<workload>_seed<n>.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(
    r"BENCH_(?P<label>[^_]+)_(?P<side>before|after)_(?P<workload>.+)"
    r"_seed(?P<seed>\d+)\.json"
)
FILES = sorted(ROOT.glob("BENCH_*.json"))


def _parts(path: Path) -> dict:
    match = NAME.fullmatch(path.name)
    assert match, f"{path.name} is not BENCH_<label>_<side>_<workload>_seed<n>.json"
    return match.groupdict()


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_is_an_untraced_correct_run_of_its_name(path):
    parts = _parts(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["correct"] is True
    provenance = data["provenance"]
    # traced runs carry span overhead and are not comparable timings
    assert provenance["trace"] == 0
    assert provenance["workload"] == parts["workload"]
    assert provenance["seed"] == int(parts["seed"])


def test_every_bench_run_has_a_before_and_an_after():
    assert FILES
    sides: dict[tuple, set] = {}
    for path in FILES:
        parts = _parts(path)
        key = (parts["label"], parts["workload"], parts["seed"])
        sides.setdefault(key, set()).add(parts["side"])
    unpaired = {key: side for key, side in sides.items() if side != {"before", "after"}}
    assert not unpaired
