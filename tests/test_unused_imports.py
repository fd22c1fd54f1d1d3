"""Every name a module of the package or a test file imports is used in
that file, and every private helper a module of the package defines is
used in that module.

A name counts as used when it is read as a name (which covers the base
of an attribute, ``mod.attr``) or when it occurs inside a string
annotation, such as ``"CompiledProgram"`` under ``TYPE_CHECKING``.  A private helper
is a module-level function, class or constant whose name starts with a
single ``_``.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dlgx"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    """Every annotation node; ``None`` where a name has none."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield node.returns
            yield from (arg.annotation for arg in every if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> set[str]:
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _unused(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{line}: {name}" for name, line in _imported(tree).items() if name not in used]


def _private_helpers(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {
        name: line
        for name, line in names.items()
        if name.startswith("_") and not name.startswith("__")
    }


def _dead(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{line}: {name}" for name, line in _private_helpers(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_test_file_has_no_unused_import(path):
    assert _unused(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_dead_private_helper(path):
    assert _dead(path.read_text(encoding="utf-8")) == []


def test_the_check_reads_names_attributes_and_string_annotations():
    source = (
        "import os\nimport json\nfrom typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n    from .query import Query\n"
        "def f(q: Optional['Query']) -> None:\n    os.path.join()\n"
    )
    assert _unused(source) == ["2: json"]


def test_the_dead_helper_check_reads_functions_classes_and_constants():
    source = (
        "_LIMIT = 3\n_UNUSED = 4\n__all__ = []\n"
        "def _used(x):\n    return x + _LIMIT\n"
        "def _dead():\n    return _used(1)\n"
        "class _Spare:\n    pass\n"
        "def public() -> '_Kept':\n    return _used(2)\n"
        "class _Kept:\n    pass\n"
    )
    assert _dead(source) == ["2: _UNUSED", "6: _dead", "8: _Spare"]
