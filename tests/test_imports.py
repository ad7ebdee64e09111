"""Every name a module of the package imports is used in that module,
every name it defines is used somewhere, and every name the benchmark and
the demos import from the package exists.

No linter is installed, so this walks each module's syntax tree.  An
imported name counts as used when it is read anywhere in the module or
listed in `__all__`; `from __future__` imports are compiler directives and
always count as used.  A module-level name counts as used when it is read,
read as an attribute or imported outside its own definition, in the
package, the tests, the benchmark or the demos; a decorated def counts as
used by its decorator.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fcn"


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


def defined_names(source: str) -> list:
    """The module-level names a module defines, decorated defs left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def referenced_names(source: str) -> set:
    """The names a module reads, reads as attributes or imports, each
    outside the module-level definition of that same name."""
    found = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                found.add(name)
    return found


def unreferenced(defining: list, sources: list) -> list:
    used = set().union(*(referenced_names(s) for s in sources))
    return sorted(n for s in defining for n in defined_names(s) if n not in used)


def test_no_unreferenced_definitions():
    defining = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    sources = [
        p.read_text()
        for top in ("src", "tests", "bench", "demos")
        for p in sorted((ROOT / top).rglob("*.py"))
    ]
    assert unreferenced(defining, sources) == []


def test_unreferenced_definitions_are_found():
    module = (
        "import click\n"
        "X = 1\n"
        "Y: int = 2\n"
        "def f(n):\n"
        "    return f(n - 1) + X\n"
        "def g():\n"
        "    return Y\n"
        "@click.command()\n"
        "def h():\n"
        "    pass\n"
        "class C:\n"
        "    pass\n"
    )
    user = "from m import g\nprint(m.C)\n"
    assert unreferenced([module], [module, user]) == ["f"]


def unresolved_fcn_imports(source: str) -> list:
    """The `fcn` modules and names a source imports that do not exist."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            wanted = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            wanted = [(node.module, a.name) for a in node.names]
        else:
            continue
        for module, name in wanted:
            if module != "fcn" and not module.startswith("fcn."):
                continue
            try:
                found = importlib.import_module(module)
            except ImportError:
                missing.append(module)
                continue
            if name is None or hasattr(found, name):
                continue
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    return missing


@pytest.mark.parametrize(
    "path",
    sorted([*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_bench_and_demo_imports_resolve(path):
    assert unresolved_fcn_imports(path.read_text()) == []


def test_unresolved_imports_are_found():
    source = (
        "import os, fcn.nowhere\n"
        "from fcn import signature, no_such_module\n"
        "from fcn.protocol import proto_equal, star_x_unfold\n"
        "from .local import anything\n"
    )
    assert unresolved_fcn_imports(source) == [
        "fcn.nowhere", "fcn.no_such_module", "fcn.protocol.star_x_unfold"
    ]
