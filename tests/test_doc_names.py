"""Every backticked private name (leading `_`) and every backticked module
reference (`invalg.SERIES_CAP`, `grgln.shared_run()`) in the package's
docstrings and comments, and in README.md, names a definition in the
package, so a deleted name cannot linger in the docs."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "liecoh"
README = TESTS.parent / "README.md"
SPAN = re.compile(r"`([^`\n]+)`")
REFERENCE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def definitions(source: str) -> set:
    """The names a module binds: every function, class and method, and the
    assignments at module and class level."""
    tree = ast.parse(source)
    names = set()
    scopes = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            scopes.append(node)
    for scope in scopes:
        for node in scope.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            names.update(sub.id for target in targets
                         for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
    return names


def docs(source: str) -> str:
    """The docstrings and comments of a module, one after another."""
    tree = ast.parse(source)
    parts = [ast.get_docstring(node, clean=False) or "" for node in
             ast.walk(tree) if isinstance(node, (
                 ast.Module, ast.ClassDef, ast.FunctionDef,
                 ast.AsyncFunctionDef))]
    parts += [tok.string for tok in
              tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.COMMENT]
    return "\n".join(parts)


def stale(text: str, defined: dict) -> list:
    """The backticked references in `text` that name no definition:
    `defined` maps each module name to the names it binds.  A reference
    that starts with a module name must resolve in that module, part by
    part; any other private part must be bound somewhere."""
    bound = set().union(*defined.values())
    bad = []
    for span in SPAN.findall(text):
        for ref in REFERENCE.findall(span):
            parts = ref.removeprefix("liecoh.").split(".")
            if parts[0] in defined and len(parts) > 1:
                missing = [p for p in parts[1:] if p not in defined[parts[0]]]
            else:
                missing = [p for p in parts if p.startswith("_")
                           and not p.startswith("__") and p.strip("_")
                           and p not in bound]
            if missing:
                bad.append(ref)
    return bad


DEFINED = {path.stem: definitions(path.read_text())
           for path in sorted(PACKAGE.glob("*.py"))}


def test_the_check_sees_a_stale_reference():
    planted = ("The walker (`_walk`, `invalg._stops`) and `ffq.nothing` are "
               "gone; `_count_invariants`, `invalg.SERIES_CAP`, "
               "`grgln.shared_run()`, `AlgebraSpec._oracle_state`, "
               "`liecoh.invalg`, `__slots__` and `ffq._Table` are not.")
    assert stale(planted, DEFINED) == ["_walk", "invalg._stops",
                                       "ffq.nothing"]
    comment = '"""No reference here."""\nx = 1  # but `_stops` here\n'
    assert stale(docs(comment), DEFINED) == ["_stops"]


FILES = sorted(PACKAGE.glob("*.py")) + [README]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_docs_name_only_definitions(path):
    text = path.read_text()
    assert stale(text if path == README else docs(text), DEFINED) == []
