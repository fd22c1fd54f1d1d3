import ast
from pathlib import Path

import dlgx


def test_every_exported_name_resolves():
    missing = [name for name in dlgx.__all__ if not hasattr(dlgx, name)]
    assert missing == []


def test_every_module_parses_as_python_3_10():
    """The package supports Python 3.10, so its modules must use no newer
    grammar, such as ``except*`` or a ``type`` statement.  This checks
    grammar only: not stdlib names added after 3.10, and not regex syntax,
    which ``test_fact_scan_pattern_needs_no_python_3_11_syntax`` covers."""
    modules = sorted(Path(dlgx.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
