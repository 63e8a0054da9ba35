"""Every name a package module or test file imports is used in that file."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "liecoh"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_sees_a_leftover_import():
    assert unused_imports("import math\nimport operator\nmath.gcd(1, 2)\n") \
        == ["operator"]
    assert unused_imports("from .ffq import Fq, _Table\nFq(2, 1)\n") \
        == ["_Table"]
    assert unused_imports("from __future__ import annotations\n") == []


FILES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
