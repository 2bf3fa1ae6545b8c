"""The Python examples and the quoted known limits of README.md hold as written."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

import sbpkit
from sbpkit.operators import OperatorError, find_operator
from sbpkit.spaces import Interval, make_space

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run(capsys):
    blocks = _python_blocks()
    assert len(blocks) >= 2
    # later blocks use the imports of earlier ones, as a reader would
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert capsys.readouterr().out


def _known_limits() -> list[tuple[str, Interval, str]]:
    # the bullets of the "Known limits" section: `space` on [a, b]: "message"
    text = README.read_text(encoding="utf-8")
    section = text.split("### Known limits", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(
        r'^\* `([^`]+)` on \[([^\]]+)\]: "([^"]+)"', section, flags=re.MULTILINE
    )
    limits = []
    for space, ends, message in bullets:
        left, right = (float(v.replace("π", repr(math.pi))) for v in ends.split(","))
        limits.append((space, Interval(left, right), " ".join(message.split())))
    return limits


def test_readme_known_limits_quote_the_search():
    limits = _known_limits()
    assert limits
    for space, interval, message in limits:
        with pytest.raises(OperatorError) as exc:
            find_operator(make_space(space, interval))
        assert str(exc.value) == message


def test_readme_call_bullets_name_public_attributes():
    # a bullet opening with a call form documents a name of the package,
    # so a deleted public name cannot stay in the README
    text = README.read_text(encoding="utf-8")
    names = re.findall(r"^\* `(\w+)\(", text, flags=re.MULTILINE)
    assert len(names) >= 5
    assert [name for name in names if not hasattr(sbpkit, name)] == []
