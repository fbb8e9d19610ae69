"""Every source and test file keeps to the Python floor pyproject.toml
declares (requires-python >= 3.10), checked by parsing rather than by
running an interpreter of that version."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_declared_floor_is_the_checked_one():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.MULTILINE)


def test_sources_parse_as_the_floor_version_and_import_no_tomllib():
    """ast.parse with feature_version rejects syntax newer than the floor
    (an `except*` block, for one); tomllib arrived in 3.11."""
    paths = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        tree = ast.parse(path.read_text(), str(path), feature_version=FLOOR)
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "tomllib" not in modules, path


def test_the_floor_check_sees_newer_syntax():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
