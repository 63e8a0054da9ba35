"""The eigenvalue oracle borrows no invariance logic from the divisibility
route: its set-up and its call name none of that route's functions or
held state, so the two routes keep checking each other."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liecoh"
ORACLE = ("_oracle_setup", "invariant_monomials_oracle_by_degree")
DIVISIBILITY = {"_residue_route", "_residue_setup", "_residue_state",
                "_suffix_rows", "monomial_weight"}


def borrowed(source: str) -> dict:
    """Per top-level function named in ORACLE, the sorted DIVISIBILITY
    names its body uses as a name, an attribute or a string."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.Constant) and \
                        isinstance(sub.value, str):
                    names.add(sub.value)
            out[node.name] = sorted(names & DIVISIBILITY)
    return out


def test_the_check_sees_a_planted_reference():
    planted = (
        "def _oracle_setup(alg):\n"
        "    return alg._residue_state, getattr(alg, 'monomial_weight')\n"
        "def invariant_monomials_oracle_by_degree(alg, lo, hi):\n"
        "    def inner():\n"
        "        return _suffix_rows(alg.generators, 0, 1, lo, hi, True)\n"
        "    return inner()\n")
    assert borrowed(planted) == {
        "_oracle_setup": ["_residue_state", "monomial_weight"],
        "invariant_monomials_oracle_by_degree": ["_suffix_rows"]}


def test_the_oracle_borrows_no_divisibility_logic():
    assert borrowed((PACKAGE / "invalg.py").read_text()) == \
        {name: [] for name in ORACLE}
