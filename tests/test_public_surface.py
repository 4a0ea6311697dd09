"""Census of the public surface: every name in ``rwre.__all__`` is used.

A name counts as used when code in ``src/rwre`` (other than the package
``__init__``, which only re-exports), ``demos/`` or ``perfbench/`` names
it: as a variable, an attribute or an imported name.  Its own ``def`` or
``class`` line, ``__all__`` strings, docstrings and comments do not count,
and neither do the package's tests.  A public name that only its own
tests call is dead surface: delete it, or use it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import rwre

ROOT = Path(__file__).resolve().parents[1]


def _sources() -> list[Path]:
    files = [p for p in (ROOT / "src" / "rwre").glob("*.py") if p.name != "__init__.py"]
    for tree in ("demos", "perfbench"):
        files += [p for p in (ROOT / tree).rglob("*.py") if "tests" not in p.parts]
    return files


def _used_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    used = set().union(*map(_used_names, _sources()))
    assert sorted(set(rwre.__all__) - used) == []
