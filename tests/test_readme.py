"""The README's library sketch runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    """The first python code block under the README's "Library sketch" heading."""
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under ## Library sketch"
    return match.group(1)


def test_library_sketch_runs() -> None:
    namespace: dict = {}
    exec(compile(_sketch(), str(README), "exec"), namespace)
    grid = namespace["grid"]
    for name in ("m_hat", "s_hat"):
        assert namespace[name].grid == grid
    for name in ("m", "s"):
        assert len(namespace[name]) == grid.n_bins
