"""Source hygiene: every module of the package uses each name it imports,
README names every kind of memo entry the package stores, no nested
function names itself, the rules for stored errors and world keys are
each written in one module only, and only product and submodel build a
model without normalising its input.

No linter ships with the test dependencies, so this reads each module's
syntax tree with `ast`.  An imported name counts as used when any `Name`
node loads it, annotations included (a string annotation is parsed too).
`from __future__` imports are exempt, and so is `__init__.py`, whose
imports are the package's public surface.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oughtcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(name bound by an import, line) for every import but __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _used(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "from typing import Dict, Optional, Sequence\n"
        "def f(x: Dict) -> 'Sequence':\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("j", 2), ("Optional", 3)]


def memo_kinds(source: str):
    """The first element of each key passed to `.memo(`: a tuple literal, or
    a name a tuple literal is assigned to in the same function."""
    kinds = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {
            target.id: node.value
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for call in ast.walk(func):
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "memo":
                key = call.args[0]
                key = bound.get(key.id, key) if isinstance(key, ast.Name) else key
                assert isinstance(key, ast.Tuple), ast.unparse(call)
                kinds.add(key.elts[0].value)
    return kinds


def test_readme_lists_every_memo_kind():
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("**One memo per model.**", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(r'`\("(\w+)"', paragraph))
    stored = set().union(*(memo_kinds(p.read_text(encoding="utf-8")) for p in MODULES))
    assert listed == stored


def test_the_memo_guard_reads_names_bound_to_keys():
    source = (
        "def f(m, a):\n"
        "    key = ('kind', a)\n"
        "    return m.memo(key, g) + m.memo(('other',), g)\n"
    )
    assert memo_kinds(source) == {"kind", "other"}


def self_naming_closures(source: str):
    """(name, line) of each function defined inside another function that
    names itself.  Its name lives in a closure cell that refers back to the
    function, so every call of the outer function leaves a reference cycle,
    and whatever the closure holds (a model, say) stays alive until the
    cyclic collector runs.  Make such a recursion a module-level function
    or a method instead, passing in what it closed over."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(node, ast.Name) and node.id == inner.name
                for stmt in inner.body
                for node in ast.walk(stmt)
            ):
                found.add((inner.name, inner.lineno))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_function_names_itself(path):
    assert self_naming_closures(path.read_text(encoding="utf-8")) == []


def test_the_closure_guard_sees_self_naming():
    source = (
        "def f(model):\n"
        "    def rec(d):\n"
        "        return model if d == 0 else rec(d - 1)\n"
        "    def leaf():\n"
        "        return model\n"
        "    return rec(3), leaf()\n"
        "def g(n):\n"
        "    return g(n - 1) if n else 0\n"
    )
    assert self_naming_closures(source) == [("rec", 2)]


def args_reads(source: str):
    """Lines that read an `.args` attribute: where an error is taken apart to
    be stored by hand.  errors.Stored is the one place that does it."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "args"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_errors_stores_an_error(path):
    found = args_reads(path.read_text(encoding="utf-8"))
    assert bool(found) == (path.name == "errors.py"), found


def test_the_stored_error_guard_sees_a_hand_built_one():
    source = (
        "def f(model):\n"
        "    try:\n"
        "        return build(model)\n"
        "    except CheckerError as exc:\n"
        "        return (type(exc), exc.args)\n"
        "def g(ns):\n"
        "    return ns.arg\n"
    )
    assert args_reads(source) == [5]


def key_shape_tests(source: str):
    """Lines that test whether item 1 of something is a tuple, the test that
    tells an updated world's key from a base world's: isinstance(x[1], tuple),
    or x[1].__class__ / type(x[1]) compared with tuple.  kripke.trace_of
    states that rule, and extend_world repeats its test inline."""
    def item_one(node):
        return isinstance(node, ast.Subscript) and getattr(node.slice, "value", None) == 1

    def is_tuple(node):
        return isinstance(node, ast.Name) and node.id == "tuple"

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            if len(node.args) == 2 and item_one(node.args[0]) and is_tuple(node.args[1]):
                lines.add(node.lineno)
        elif isinstance(node, ast.Compare) and any(map(is_tuple, node.comparators)):
            left = node.left
            if isinstance(left, ast.Attribute) and left.attr == "__class__":
                left = left.value
            elif isinstance(left, ast.Call) and getattr(left.func, "id", None) == "type":
                left = left.args[0] if left.args else left
            if item_one(left):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_kripke_tests_a_world_key_shape(path):
    found = key_shape_tests(path.read_text(encoding="utf-8"))
    assert bool(found) == (path.name == "kripke.py"), found


def test_the_key_shape_guard_sees_each_spelling():
    source = (
        "def f(w, steps):\n"
        "    if isinstance(w, tuple) and len(w) == 2 and isinstance(w[1], tuple):\n"
        "        return w[1]\n"
        "    if w[1].__class__ is tuple:\n"
        "        return ()\n"
        "    if type(w[1]) is not tuple:\n"
        "        return ()\n"
        "    return isinstance(w[0], tuple) or isinstance(steps, tuple)\n"
    )
    assert key_shape_tests(source) == [2, 4, 6]


def derived_builds(source: str):
    """Lines of calls that pass `_derived`, the keyword that makes
    GradedKripkeModel bind its mappings without normalising them.  Only
    product and submodel pass it, as they build from a model already
    normalised; a module that reads outside input must not."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and any(k.arg == "_derived" for k in node.keywords)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_product_and_submodel_skip_normalising(path):
    found = derived_builds(path.read_text(encoding="utf-8"))
    assert bool(found) == (path.name in ("product.py", "submodel.py")), found


def test_the_derived_guard_sees_a_derived_build():
    source = (
        "def f(doc):\n"
        "    a = GradedKripkeModel(**doc, _derived=True)\n"
        "    b = kripke.GradedKripkeModel(\n"
        "        doc['agents'], _derived=flag)\n"
        "    return g(derived=True), a, b\n"
    )
    assert derived_builds(source) == [2, 3]
