"""Import hygiene: every name a module imports is read somewhere in it.

Standard library only.  The package's `__init__.py` is left out, since its
imports are the public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression reads.
    A name quoted in a string annotation is not read; the modules use
    `from __future__ import annotations` instead."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(imported - read)


def test_unused_imports_are_found():
    src = "import os, os.path as osp, sys as system\nfrom math import pi, tau\nx = pi, system.argv\n"
    assert unused_imports(src) == ["os", "osp", "tau"]


def test_every_import_is_read():
    files = [p for p in sorted((ROOT / "src" / "lowfreq2d").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    assert len(files) > 20
    unused = {p.relative_to(ROOT).as_posix(): names for p in files
              if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}
