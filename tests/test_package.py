import dlgx


def test_every_exported_name_resolves():
    missing = [name for name in dlgx.__all__ if not hasattr(dlgx, name)]
    assert missing == []
