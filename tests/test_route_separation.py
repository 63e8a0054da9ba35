"""The eigenvalue oracle borrows no invariance logic from the divisibility
route, and that route none from the oracle: the set-up and calls of each
name none of the other's functions, held state or field, so the two routes
keep checking each other.  The walker that both run, the listing engine's
count and traceback, names neither route's state, set-up or invariance helpers:
what it knows of a state (its steps and tests) its caller hands it.  Nor
does it hold a listing guard: each caller checks the degree range, and
refuses from a count, itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liecoh"
ORACLE = ("_oracle_setup", "invariant_monomials_oracle_by_degree")
DIVISIBILITY = {"_residue_route", "_residue_setup", "_residue_state",
                "_suffix_rows", "monomial_weight"}
DIVISIBILITY_ROUTE = ("_residue_setup", "_residue_route", "_suffix_rows",
                      "_count_invariants", "_trace_back",
                      "invariant_monomials_by_degree", "_detection")
ORACLE_NAMES = {"_oracle_setup", "_oracle_state",
                "invariant_monomials_oracle_by_degree", "field", "generator"}
ENGINE = ("_count_invariants", "_trace_back")
ROUTES = {"_residue_state", "_oracle_state", "_residue_setup",
          "_residue_route", "_oracle_setup", "_suffix_rows",
          "monomial_weight", "moduli", "field"}
GUARDS = {"MONOMIAL_CAP", "_refuse_over", "_over_cap", "_degree_range"}


def borrowed(source: str, functions=ORACLE, names=DIVISIBILITY) -> dict:
    """Per top-level function named in `functions`, the sorted `names` its
    body uses as a name, an attribute or a string."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
                elif isinstance(sub, ast.Constant) and \
                        isinstance(sub.value, str):
                    used.add(sub.value)
            out[node.name] = sorted(used & names)
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


def test_the_mirror_check_sees_a_planted_reference():
    planted = (
        "def _residue_route(alg, lo, hi):\n"
        "    return alg._oracle_state, alg.field.generator\n"
        "def _count_invariants(alg, hi):\n"
        "    return invariant_monomials_oracle_by_degree(alg, 0, hi)\n"
        "def _suffix_rows(gens, c, m, lo, hi, exact):\n"
        "    return getattr(gens[0], 'field'), _oracle_setup\n")
    assert borrowed(planted, DIVISIBILITY_ROUTE, ORACLE_NAMES) == {
        "_residue_route": ["_oracle_state", "field", "generator"],
        "_count_invariants": ["invariant_monomials_oracle_by_degree"],
        "_suffix_rows": ["_oracle_setup", "field"]}


def test_the_divisibility_route_borrows_no_oracle_logic():
    assert borrowed((PACKAGE / "invalg.py").read_text(), DIVISIBILITY_ROUTE,
                    ORACLE_NAMES) == {name: [] for name in DIVISIBILITY_ROUTE}


def test_the_engine_check_sees_a_planted_reference():
    planted = (
        "def _count_invariants(setup, lo, hi, births=None, alg=None):\n"
        "    _degree_range(setup[0], lo, hi)\n"
        "    stride = math.prod(alg.moduli)\n"
        "    tests = _residue_route(alg, lo, hi)[5:]\n"
        "    return stride, tests, getattr(alg, 'field').q\n"
        "def _trace_back(setup, bases, lo, counts, births, alg=None):\n"
        "    _refuse_over(counts, lo, MONOMIAL_CAP)\n"
        "    for key in alg._oracle_state[3]:\n"
        "        _suffix_rows(setup[0], 0, key, lo, lo, True)\n")
    assert borrowed(planted, ENGINE, ROUTES | GUARDS) == {
        "_count_invariants": ["_degree_range", "_residue_route", "field",
                              "moduli"],
        "_trace_back": ["MONOMIAL_CAP", "_oracle_state", "_refuse_over",
                        "_suffix_rows"]}


def test_the_walker_names_no_route():
    assert borrowed((PACKAGE / "invalg.py").read_text(), ENGINE, ROUTES) == \
        {name: [] for name in ENGINE}


def test_the_walker_holds_no_guard():
    planted = (
        "def _count_invariants(setup, lo, hi, births=None):\n"
        "    _degree_range(setup[0], lo, hi)\n"
        "    if len(setup[0]) > MONOMIAL_CAP:\n"
        "        raise ResourceGuardError('over')\n"
        "def _trace_back(setup, bases, lo, counts, births):\n"
        "    _refuse_over(counts, lo, MONOMIAL_CAP)\n")
    assert borrowed(planted, ENGINE, GUARDS) == {
        "_count_invariants": ["MONOMIAL_CAP", "_degree_range"],
        "_trace_back": ["MONOMIAL_CAP", "_refuse_over"]}
    assert borrowed((PACKAGE / "invalg.py").read_text(), ENGINE, GUARDS) == \
        {name: [] for name in ENGINE}
