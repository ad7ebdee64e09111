"""Every name a module of the package imports is used in that module.

No linter is installed, so this walks each module's syntax tree.  A name
counts as used when it is read anywhere in the module or listed in
`__all__`; `from __future__` imports are compiler directives and always
count as used.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fcn"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from .a import b, c\n"
        "__all__ = ['c']\n"
        "def f():\n"
        "    from .d import e\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "system"), (3, "b"), (6, "e")]
