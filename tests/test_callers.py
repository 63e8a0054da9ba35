"""Every function, class and method defined at module or class level in the
package is named somewhere in the package or in bench/, outside its own
definition.  Tests do not count as callers: code that only tests reach is
deleted, and its tests use test-side helpers instead.

The check works on names, read off the syntax tree.  A function or class
counts as called when its name appears as a name or as an attribute, a
method only as an attribute; dunder methods are exempt, since Python calls
them.  So the check can miss a definition that shares its name with another
one, but it never flags a definition that is called by name.  It also
exempts every definition whose qualified name (module.name or
module.Class.name) prefixes a per-layer metric name in BENCHMARK.json: the
traced benchmark run looks those up, and once a metric name goes, the check
asks for its definition to go too."""

import ast
import json
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "liecoh"


def _definitions(tree: ast.Module, module: str) -> list:
    """(qualified name, node, is a method) per function and class defined
    at module level or in the body of such a class."""
    out = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                method = in_class and not isinstance(node, ast.ClassDef)
                out.append((f"{prefix}.{node.name}", node, method))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}.{node.name}", True)
    visit(tree.body, module, False)
    return out


def _names(tree) -> tuple[Counter, Counter]:
    """How often each name appears in `tree` as a name and as an
    attribute."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def uncalled(modules: dict, others=(), metrics=()) -> list[str]:
    """Sorted qualified names of the definitions in `modules` (module name
    -> source) that no code in `modules` or `others` (sources) names outside
    the definition itself, less dunders and prefixes of `metrics`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names, attrs = Counter(), Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        n, a = _names(tree)
        names.update(n)
        attrs.update(a)
    out = []
    for module, tree in trees.items():
        for qual, node, method in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__") or any(
                    m.startswith(qual + ".") for m in metrics):
                continue
            own_names, own_attrs = _names(node)
            uses = attrs[name] - own_attrs[name]
            if not method:
                uses += names[name] - own_names[name]
            if not uses:
                out.append(qual)
    return sorted(out)


def test_the_check_sees_a_planted_definition_with_no_caller():
    planted = {
        "mod": (
            "class Box:\n"
            "    def __init__(self, v):\n"
            "        self.v = v\n"
            "    def used(self):\n"
            "        return self.v\n"
            "    def unused(self):\n"
            "        return self.unused()\n"
            "    def named(self):\n"
            "        return 0\n"
            "def helper():\n"
            "    return Box(1).used()\n"
            "def leftover(n):\n"
            "    return leftover(n - 1) if n else 0\n"
            "def traced():\n"
            "    return 0\n"),
        "other": "from mod import helper\nnamed = helper()\n",
    }
    # a method is not called by a bare name, nor a function by its own body
    assert uncalled(planted) == ["mod.Box.named", "mod.Box.unused",
                                 "mod.leftover", "mod.traced"]
    # bench sources count as callers, and a metric name exempts its prefix
    assert uncalled(planted, ["mod.leftover(3)\n"],
                    ["mod.traced.self_s", "mod.Box.unused_s"]) == \
        ["mod.Box.named", "mod.Box.unused"]


def test_every_definition_has_a_caller():
    modules = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text()
             for path in sorted((ROOT / "bench").glob("*.py"))]
    metrics = [m["name"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert uncalled(modules, bench, metrics) == []
    # what the metric names keep today, with no other caller
    assert uncalled(modules, bench) == [
        "invalg.canonical_sort", "invalg.enumerate_monomials",
        "rootsys.smith_invariant_factors"]
