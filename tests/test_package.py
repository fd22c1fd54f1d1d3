import ast
import re
import sys
from pathlib import Path

import pytest

import dlgx


def test_every_exported_name_resolves():
    missing = [name for name in dlgx.__all__ if not hasattr(dlgx, name)]
    assert missing == []


def test_a_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from dlgx import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dlgx.__all__)
    assert set(dlgx.__all__) <= set(dir(dlgx))


def test_query_is_one_class_under_every_name():
    import dlgx.model
    import dlgx.query

    assert dlgx.Query is dlgx.model.Query is dlgx.query.Query


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'dlgx' has no attribute 'no_such_name'"):
        dlgx.no_such_name


def test_a_submodule_imports_by_name_from_the_package():
    from dlgx import analysis, benchgen, chase, parser, query

    assert [m.__name__ for m in (analysis, benchgen, chase, parser, query)] == [
        "dlgx.analysis",
        "dlgx.benchgen",
        "dlgx.chase",
        "dlgx.parser",
        "dlgx.query",
    ]


def test_every_module_parses_as_python_3_10():
    """The package supports Python 3.10, so its modules must use no newer
    grammar, such as ``except*`` or a ``type`` statement.  This checks
    grammar only: not stdlib names added after 3.10, and not regex syntax,
    which ``test_fact_scan_pattern_needs_no_python_3_11_syntax`` covers."""
    modules = sorted(Path(dlgx.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_every_module_the_tests_import_is_installed_with_the_test_extra():
    """A module a test file imports is in the standard library, is dlgx,
    is a helper module of the test directory, or is named in the ``test``
    extra of pyproject.toml, so ``pip install -e ".[test]"`` can collect
    every test file."""
    tests = Path(__file__).parent
    pyproject = (tests.parent / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.MULTILINE).group(1)
    allowed = {name.lower().replace("-", "_") for name in re.findall(r'"([A-Za-z0-9_.-]+)', extra)}
    allowed |= {"dlgx"} | {path.stem for path in tests.glob("*.py")}
    imported = top_level_imports(tests.glob("*.py"))
    assert {"pytest", "jsonschema", "hypothesis"} <= imported
    assert sorted(imported - allowed - set(sys.stdlib_module_names)) == []


def test_the_package_imports_only_the_standard_library():
    """pyproject.toml lists no runtime dependency, so every module the
    package imports, anywhere in a file, is in the standard library or is
    dlgx itself, even where a faster third-party module is installed."""
    imported = top_level_imports(Path(dlgx.__file__).parent.glob("*.py"))
    assert {"dataclasses", "re"} <= imported
    assert sorted(imported - {"dlgx"} - set(sys.stdlib_module_names)) == []


def top_level_imports(paths) -> set[str]:
    """The top-level name of every absolute import in the files at ``paths``."""
    imported = set()
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported
