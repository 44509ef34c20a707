"""Import hygiene: every name a module imports is read somewhere in it, and
every definition in the package is named somewhere else in the package.

Standard library only.  The package's `__init__.py` is left out, since its
imports are the public re-exports.
"""

import ast
import builtins
import importlib
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


def _external_base_attrs(cls: ast.ClassDef) -> set[str]:
    """Attribute names of cls's bases from outside the package: builtins and
    `module.Class` bases.  A method of one of these names overrides a method
    its base calls, so it is read without being named."""
    out = set()
    for b in cls.bases:
        if isinstance(b, ast.Name) and hasattr(builtins, b.id):
            out.update(dir(getattr(builtins, b.id)))
        elif isinstance(b, ast.Attribute) and isinstance(b.value, ast.Name):
            out.update(dir(getattr(importlib.import_module(b.value.id), b.attr)))
    return out


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` for each top-level function or class in sources (module
    -> text) whose name no module reads, as a name, an attribute or an
    import, and `module.Class.method` for each class method that no module
    reads as an attribute (a local variable of the same name does not name
    it); dunder methods and overrides of methods of outside bases are left
    out."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    named, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    named |= attrs
    out = []
    for m, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name not in named:
                out.append(f"{m}.{node.name}")
            if isinstance(node, ast.ClassDef):
                skip = _external_base_attrs(node)
                out += [f"{m}.{node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name not in attrs | skip
                        and not (item.name.startswith("__") and item.name.endswith("__"))]
    return sorted(out)


def test_unnamed_definitions_are_found():
    a = ("import argparse\nclass P(argparse.ArgumentParser):\n    def error(self, m): pass\n"
         "class C(Exception):\n    def __str__(self): return ''\n    def used(self): pass\n"
         "    def spare(self): pass\n    def shadowed(self): pass\n"
         "def f(): return C().used()\ndef g(): pass\n")
    b = "from a import f\nshadowed = f()\n"
    assert unnamed_definitions({"a": a, "b": b}) == ["a.C.shadowed", "a.C.spare", "a.P", "a.g"]


def test_every_package_definition_is_named_in_the_package():
    # a definition only the tests read belongs in the tests
    files = [p for p in sorted((ROOT / "src" / "lowfreq2d").glob("*.py")) if p.name != "__init__.py"]
    assert len(files) > 10
    assert unnamed_definitions({p.stem: p.read_text(encoding="utf-8") for p in files}) == []
