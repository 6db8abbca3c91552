"""Source hygiene: every module of the package uses each name it imports,
README names every kind of memo entry the package stores and lists only
public names as its other entry points, only kripke
touches the dict behind model.memo, no nested function names itself, the
env rule of the outcome store is applied at one call site and its memo
key is named in semantics alone, the rule of which worlds share a slot of
the store is stated once and its slot index touched in semantics alone,
the rules for stored errors and world keys are each written in one module
only, only product and submodel build a model without normalising its
input, only the public entries that apply the nesting limit catch a
RecursionError, the node classes a valuation decides are stated once
and read by the decision point alone, only an expectation carrier asks
the product build to relate fewer agents than its model has, and no
formula node is built or changed around its interning constructor.

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


def test_readme_names_the_outcome_store_memo_kind():
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("**One memo per model.**", 1)[1].split("\n\n", 1)[0]
    assert '`("outcomes",)`' in paragraph


def test_the_memo_guard_reads_names_bound_to_keys():
    source = (
        "def f(m, a):\n"
        "    key = ('kind', a)\n"
        "    return m.memo(key, g) + m.memo(('other',), g)\n"
    )
    assert memo_kinds(source) == {"kind", "other"}


def env_rule_calls(source: str):
    """Lines of each call of `_made_for`, the env rule of the outcome store.
    The store keeps every outcome and step the walker decides on a model,
    so one call, where the store is fetched, serves them all."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_made_for"
    )


def test_the_env_rule_has_one_call_site():
    found = {p.name: env_rule_calls(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: len(lines) for name, lines in found.items() if lines} == {"semantics.py": 1}


def store_key_names(source: str):
    """Lines of each string constant "outcomes", the kind of the outcome
    store's memo key: only semantics, which owns the store, may name it."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value == "outcomes"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_semantics_names_the_store_key(path):
    found = store_key_names(path.read_text(encoding="utf-8"))
    assert bool(found) == (path.name == "semantics.py"), found


def test_the_store_guards_see_each_spelling():
    source = (
        "def f(model, env, store):\n"
        "    hit = model.memo(('outcomes',), g)\n"
        "    return _made_for(env, store.snapshot) or semantics._made_for(env, {})\n"
        "def g():\n"
        "    \"\"\"outcomes\"\"\"\n"
        "    return _made_for, 'outcome'\n"
    )
    assert env_rule_calls(source) == [3, 3]
    assert store_key_names(source) == [2, 5]


def slot_rule_sites(source: str):
    """("def" or "call", line) of each definition and each call of
    alike_worlds, the rule of which worlds share a slot of the outcome
    store.  It is stated in one function and applied in one place, where a
    store starts, so the slots are never a second world order."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "alike_worlds":
            sites.append(("def", node.lineno))
        elif isinstance(node, ast.Call) and (
            getattr(node.func, "id", getattr(node.func, "attr", None)) == "alike_worlds"
        ):
            sites.append(("call", node.lineno))
    return sorted(sites, key=lambda site: site[1])


def test_the_slot_rule_is_stated_and_applied_once():
    found = {p.name: slot_rule_sites(p.read_text(encoding="utf-8")) for p in MODULES}
    found = {name: [kind for kind, _ in sites] for name, sites in found.items() if sites}
    assert found == {"semantics.py": ["call", "def"]}


def index_reads(source: str):
    """Lines that read or write an `.index` attribute, other than to call a
    method of that name: the outcome store's slot index, which only
    semantics, which owns the store, may touch."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "index" and id(node) not in called
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_semantics_reads_the_slot_index(path):
    found = index_reads(path.read_text(encoding="utf-8"))
    assert bool(found) == (path.name == "semantics.py"), found


def test_the_slot_guards_see_each_spelling():
    source = (
        "def alike_worlds(model):\n"
        "    return {}, 0\n"
        "def f(store, words):\n"
        "    store.index, size = semantics.alike_worlds(m)\n"
        "    slot = store.index.get(w), words.index('p')\n"
        "    return alike_worlds(m), getattr(store, 'index')\n"
    )
    assert slot_rule_sites(source) == [("def", 1), ("call", 4), ("call", 6)]
    assert index_reads(source) == [4, 5]


def cache_reads(source: str):
    """Lines that read or write a `._cache` attribute.  Every derived result
    goes through model.memo, so only kripke.py, which defines it, touches
    the dict behind it."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_cache"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_kripke_touches_the_memo_dict(path):
    found = cache_reads(path.read_text(encoding="utf-8"))
    assert bool(found) == (path.name == "kripke.py"), found


def test_the_memo_dict_guard_sees_reads_and_writes():
    source = (
        "def f(model, key):\n"
        "    hit = model._cache.get(key)\n"
        "    model._cache[key] = hit\n"
        "    object.__setattr__(model, '_cache', {})\n"
        "    return model.memo(key, g), getattr(model, 'cache')\n"
    )
    assert cache_reads(source) == [2, 3]


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


def recursion_catchers(source: str):
    """(function, line) of each handler that catches RecursionError.  The
    nesting limit's rule, that a RecursionError past the limit is bad input
    and any other a bug, is applied at the public entries only:
    evaluate_plain and evaluate (holds_globally evaluates through
    evaluate_plain) and translate."""
    def names(node):
        if node is None:
            return []
        parts = node.elts if isinstance(node, ast.Tuple) else [node]
        return [getattr(p, "id", getattr(p, "attr", None)) for p in parts]

    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler) and "RecursionError" in names(node.type):
                    found.append((func.name, node.lineno))
    return sorted(found)


_CATCHERS = {"semantics.py": ["evaluate", "evaluate_plain"], "reduce.py": ["translate"]}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_public_entries_catch_a_recursion_error(path):
    found = recursion_catchers(path.read_text(encoding="utf-8"))
    assert [name for name, _ in found] == _CATCHERS.get(path.name, []), found


def test_the_recursion_guard_sees_each_spelling():
    source = (
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except RecursionError:\n"
        "        raise\n"
        "def h(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except (ValueError, builtins.RecursionError):\n"
        "        return None\n"
        "    except Exception:\n"
        "        return None\n"
    )
    assert recursion_catchers(source) == [("f", 4), ("h", 9)]


# the node classes a world's valuation decides, by name
_VALUATION_DECIDES = {"Truth", "Falsity", "Atom", "Not", "And"}


def valuation_class_statements(source: str):
    """Lines of tuple, list or set displays that state the node classes a
    valuation decides: every item a name among them, Atom, Not and And
    included.  formula._VALUATION_NODES states them, next to _NODE_CLASSES."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            names = [getattr(item, "id", None) for item in node.elts]
            if {"Atom", "Not", "And"} <= set(names) <= _VALUATION_DECIDES:
                lines.append(node.lineno)
    return sorted(lines)


def valuation_class_readers(source: str):
    """(qualified function name, line) of each read of _VALUATION_NODES.  Only
    DecisionPoint's constructor reads it, in the walk that records whether a
    point is propositional, so that product can trust that one flag."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Name) and node.id == "_VALUATION_NODES":
            if isinstance(node.ctx, ast.Load):
                found.append((where, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "_VALUATION_NODES":
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_classes_a_valuation_decides_are_stated_once(path):
    source = path.read_text(encoding="utf-8")
    found = valuation_class_statements(source)
    if path.name != "formula.py":
        assert found == []
        return
    body = ast.parse(source).body
    at = next(
        k for k, stmt in enumerate(body)
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "_NODE_CLASSES"
    )
    stated = body[at + 1]
    assert isinstance(stated, ast.Assign) and stated.targets[0].id == "_VALUATION_NODES"
    assert found == [stated.value.lineno]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_decision_point_constructor_reads_them(path):
    found = valuation_class_readers(path.read_text(encoding="utf-8"))
    want = ["DecisionPoint.__init__"] if path.name == "actions.py" else []
    assert [where for where, _ in found] == want, found


def test_the_valuation_guards_see_each_spelling():
    source = (
        "from .formula import _VALUATION_NODES\n"
        "LEAVES = (Truth, Falsity, Atom)\n"
        "DECIDED = {Atom, Not, And}\n"
        "MIXED = [Atom, Not, And, Know]\n"
        "class P:\n"
        "    def __init__(self, f):\n"
        "        self.flag = isinstance(f, _VALUATION_NODES)\n"
        "    def check(self, g):\n"
        "        return isinstance(g, (Truth, Atom, Not, And)) or formula._VALUATION_NODES\n"
        "_VALUATION_NODES = None\n"
    )
    assert valuation_class_statements(source) == [3, 9]
    assert valuation_class_readers(source) == [("P.__init__", 7), ("P.check", 9)]


def narrow_updates(source: str):
    """(function, line) of each use of the product build `_update` that may
    relate fewer agents than its model has: a call whose agents argument is
    not `<model>.agents`, with <model> the name passed as the model, and
    any use that is not a call, whose arguments cannot be read.  Only an
    expectation carrier relates fewer, as an expectation reads its agent's
    relation alone; an update elsewhere that did would lose a relation."""
    found = []

    def own_agents(call):
        slots = dict(zip(("model", "action", "agents"), call.args))
        slots.update((k.arg, k.value) for k in call.keywords)
        model, agents = slots.get("model"), slots.get("agents")
        return (
            isinstance(model, ast.Name)
            and isinstance(agents, ast.Attribute)
            and agents.attr == "agents"
            and isinstance(agents.value, ast.Name)
            and agents.value.id == model.id
        )

    def visit(node, where, called):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "_update":
                called = func
                if not own_agents(node):
                    found.append((where, node.lineno))
        elif node is not called and getattr(node, "id", getattr(node, "attr", None)) == "_update":
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where, called)

    visit(ast.parse(source), "<module>", None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_carrier_relates_fewer_agents(path):
    found = narrow_updates(path.read_text(encoding="utf-8"))
    want = ["_carrier"] if path.name == "semantics.py" else []
    assert [where for where, _ in found] == want, found


def test_the_agents_guard_sees_each_spelling():
    source = (
        "def ambient(model, action):\n"
        "    return _update(model, action, model.agents)\n"
        "def _carrier(model, action, agent):\n"
        "    return _update(sub(model), action, (agent,))\n"
        "def other(m, n, action):\n"
        "    a = product._update(m, action, n.agents)\n"
        "    b = _update(model=m, action=action, agents=m.agents)\n"
        "    c = _update(m, action, agents=m.agents[:1])\n"
        "    return m.memo(key, _update, m, action, m.agents), a, b, c\n"
    )
    assert narrow_updates(source) == [
        ("_carrier", 4), ("other", 6), ("other", 8), ("other", 9)
    ]


def constructor_bypasses(source: str):
    """(what, line) of each way to build or change an object around its
    class's constructor: object.__new__, dataclasses.replace (or replace
    imported from dataclasses), and object.__setattr__ outside an __init__,
    where a model or a decision point binds its own attributes.  A formula
    node's constructor returns the one live node with its fields, so a node
    built or changed around it would be a second node equal to the first
    but not it.  Only formula.py, whose constructors intern, uses them."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            spelled = f"{node.value.id}.{node.attr}"
            if spelled in ("object.__new__", "dataclasses.replace"):
                found.append((spelled, node.lineno))
            elif spelled == "object.__setattr__" and where != "__init__":
                found.append((spelled, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.extend(("dataclasses.replace", node.lineno) for a in node.names if a.name == "replace")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found, key=lambda item: item[1])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_node_is_built_around_its_constructor(path):
    found = constructor_bypasses(path.read_text(encoding="utf-8"))
    assert bool(found) == (path.name == "formula.py"), found


def test_the_constructor_guard_sees_each_spelling():
    source = (
        "import dataclasses\n"
        "from dataclasses import fields, replace as swap\n"
        "class M:\n"
        "    def __init__(self, a):\n"
        "        bind = object.__setattr__\n"
        "        bind(self, 'a', a)\n"
        "def rebuild(f, g):\n"
        "    node = object.__new__(type(f))\n"
        "    object.__setattr__(node, 'sub', g)\n"
        "    return dataclasses.replace(f, sub=g), fields(f)\n"
    )
    assert constructor_bypasses(source) == [
        ("dataclasses.replace", 2), ("object.__new__", 8), ("object.__setattr__", 9),
        ("dataclasses.replace", 10),
    ]


def test_know_keeps_no_table():
    """A Know node's outcomes live in the model's outcome store, not on the
    node."""
    from oughtcheck.formula import Know

    assert Know.__slots__ == ("agent", "sub")
    assert not any("_outcomes" in getattr(cls, "__slots__", ()) for cls in Know.__mro__)


def test_readme_entry_points_are_exported():
    """Every name README's "Other entry points:" sentence lists is public,
    so the list cannot keep a name the package no longer has."""
    import oughtcheck

    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.split(r"\.\s", text.split("Other entry points:", 1)[1], maxsplit=1)[0]
    listed = re.findall(r"`(\w+)`", sentence)
    assert len(listed) >= 10
    assert [name for name in listed if name not in oughtcheck.__all__] == []
