"""Each module of the package imports only the layers below it:

    model <- parser, analysis <- chase <- query <- benchgen, generator <- cli

and ``__init__`` imports none, so ``import dlgx.parser`` does not load the
chase engine and the CLI loads the benchmark generator only for ``bench``
and ``generate``.  An import inside a function or under ``TYPE_CHECKING``
runs later or never, so it is not module-level; ``Program.compiled``
imports ``CompiledProgram`` from ``chase`` that way.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import dlgx

PACKAGE = Path(dlgx.__file__).resolve().parent
LAYER = {
    "__init__": -1,
    "model": 0,
    "parser": 1,
    "analysis": 1,
    "chase": 2,
    "query": 3,
    "benchgen": 4,
    "generator": 4,
    "cli": 5,
}


def _runs_later(node: ast.AST) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return True
    return isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"


def module_level_imports(tree: ast.AST):
    """The package modules a tree imports when it is executed, with line numbers."""
    for node in ast.iter_child_nodes(tree):
        if _runs_later(node):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            yield from ((name.split(".")[0], node.lineno) for name in names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("dlgx."):
            yield node.module.split(".")[1], node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dlgx."):
                    yield alias.name.split(".")[1], node.lineno
        else:
            yield from module_level_imports(node)


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(LAYER)


def test_module_level_imports_reach_only_lower_layers():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for target, line in module_level_imports(tree):
            if LAYER[target] >= LAYER[path.stem]:
                upward.append(f"{path.name}:{line} imports {target}")
    assert upward == []


def test_the_layer_check_skips_functions_and_type_checking_blocks():
    source = (
        "from typing import TYPE_CHECKING\nfrom .model import Atom\nimport dlgx.chase\n"
        "if TYPE_CHECKING:\n    from .query import Query\n"
        "def f():\n    from .cli import main\n"
        "try:\n    from . import parser\nexcept ImportError:\n    pass\n"
    )
    assert list(module_level_imports(ast.parse(source))) == [("model", 2), ("chase", 3), ("parser", 9)]


def test_importing_a_module_loads_only_the_layers_below_it():
    script = (
        "import sys\n"
        "for name in ('dlgx', 'dlgx.parser', 'dlgx.cli'):\n"
        "    __import__(name)\n"
        "    print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'dlgx')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    after_package, after_parser, after_cli = (set(line.split()) for line in proc.stdout.splitlines())
    assert after_package == {"dlgx"}
    assert after_parser == {"dlgx", "dlgx.model", "dlgx.parser"}
    assert "dlgx.cli" in after_cli
    assert not {"dlgx.benchgen", "dlgx.generator"} & after_cli
