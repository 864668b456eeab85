"""The README's library example runs as written, and its prose names only existing API."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import oscidmd as od

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def has_member(cls: type, name: str) -> bool:
    return hasattr(cls, name) or name in {f.name for f in dataclasses.fields(cls)}


def test_library_example_runs(capsys):
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], f"{README.name} python block", "exec"), scope)
    level, frequency_hz, _ = capsys.readouterr().out.split()
    assert int(level) == 4
    assert abs(float(frequency_hz) - 8.6) < 0.05
    assert scope["total"].shape == scope["level4"].shape == (1000 + 4000 - 1,)


def test_named_attributes_exist():
    text = README.read_text()
    named = set(re.findall(r"(?<![\w.])(od|result|node)\.(\w+)", text))
    assert ("result", "total_reconstruction") in named
    owners = {"od": None, "result": od.MrdmdResult, "node": od.MrdmdNode}
    missing = [
        f"{prefix}.{name}"
        for prefix, name in sorted(named)
        if not (hasattr(od, name) if owners[prefix] is None else has_member(owners[prefix], name))
    ]
    assert not missing
