"""The README's library example runs as written, and its prose names only existing API."""

from __future__ import annotations

import dataclasses
import importlib
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


def resolves(path: str) -> bool:
    """Whether a dotted ``oscidmd.X.Y`` name resolves by attribute access from the package."""
    owner = od
    for name in path.split(".")[1:]:
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


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
    # the function oscidmd.dmd hides the submodule of that name, so a dotted
    # path must be checked by attribute access, as a reader's code would use it
    dotted = set(re.findall(r"(?<![\w./])oscidmd(?:\.\w+)+", text))
    assert dotted
    missing += sorted(path for path in dotted if not resolves(path))
    # each backticked name in a "`oscidmd.<module>`: ..." bullet lives on that submodule
    bullets = re.findall(r"^- `oscidmd\.(\w+)`:(.*(?:\n  .*)*)", text, flags=re.MULTILINE)
    assert len(bullets) >= 3
    missing += [
        f"oscidmd.{module}.{name}"
        for module, body in bullets
        for name in re.findall(r"`(\w+)`", body)
        if not hasattr(importlib.import_module(f"oscidmd.{module}"), name)
    ]
    assert not missing
