"""Only `invalg` builds generators: the other package modules take them from
`invalg.graded_pair`, so the rule for a generator pair lives in one place."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liecoh"


def generator_spec_calls(source: str) -> int:
    """How many calls in the source name `GeneratorSpec`, bare or as an
    attribute."""
    return sum(isinstance(node, ast.Call)
               and "GeneratorSpec" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(source)))


def test_the_check_sees_a_generator_spec_call():
    assert generator_spec_calls(
        "GeneratorSpec('x0', 'exterior', 1, (1,))\n") == 1
    assert generator_spec_calls(
        "from . import invalg\ninvalg.GeneratorSpec('y', 'polynomial', 2, ())"
        "\n") == 1
    assert generator_spec_calls("from .invalg import GeneratorSpec\n") == 0


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "invalg.py"))
def test_only_invalg_builds_generators(module):
    assert generator_spec_calls((PACKAGE / module).read_text()) == 0
