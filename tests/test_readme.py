"""The Python examples of README.md run as written."""

from __future__ import annotations

import re
from pathlib import Path

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
