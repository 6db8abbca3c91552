"""Explanation trails render on demand.

`evaluate` records, per node, the formula node, the world key, the note's
parts and, for an expectation node, (carrier, instance, agent); `text`,
`where`, `note` and `values` render on first read.  These tests pin that
nothing renders before a read, that a read renders once, and that a trail
rendered after the walk equals one rendered while it ran (the eager
rendering `evaluate` did before, kept below as a reference).
"""

import gc
import random
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

import pytest

import oughtcheck.semantics as semantics
from oughtcheck.cli import _verdict_dict
from oughtcheck.errors import CheckerError, InternalError, Unsatisfiable
from oughtcheck.expect import atom_holds, atom_report
from oughtcheck.formula import Know, Ought, subformulas, to_text
from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model
from oughtcheck.kripke import world_id
from oughtcheck.product import product
from oughtcheck.semantics import evaluate


def _contexts(seed, frame, count):
    """count (model, env, decision point a formula may not start with):
    seeded base models and their products by U."""
    rng = random.Random(seed)
    params = GenParams(max_worlds=5, frame=frame)
    out = []
    while len(out) < count:
        m = gen_model(rng, params)
        try:
            env = {}
            env["U"] = gen_decision_point(rng, m, "U", params, env=env)
            env["V"] = gen_decision_point(rng, m, "V", params, env=env)
        except Unsatisfiable:
            continue
        out += [(m, env, None), (product(m, env["U"]), env, "U")]
    return out, rng


def _draws(seed, frame, count=200):
    """count seeded (model, env, world, depth-3 formula) draws."""
    contexts, rng = _contexts(seed, frame, 10)
    draws = []
    for _ in range(count):
        m, env, banned = rng.choice(contexts)
        draws.append((m, env, rng.choice(m.worlds), gen_formula(rng, m, env, 3, banned_dp=banned)))
    return draws


def _outcome(call):
    """The call's value, or the (class name, message) of the CheckerError raised."""
    try:
        return call()
    except InternalError:
        raise
    except CheckerError as exc:
        return type(exc).__name__, str(exc)


# --- nothing renders before a read ------------------------------------------------


@pytest.fixture
def renders(monkeypatch):
    """Counts of the calls the trail makes to each renderer."""
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(semantics, name, call)

    counted("to_text", to_text)
    counted("world_id", world_id)
    counted("atom_report", atom_report)
    return calls


def _seeded_trail():
    """The first seeded S5 draw with K and an obligation whose trail holds
    an expectation node with rivals and a note that names a world."""
    for m, env, w, f in _draws(141, "S5", 400):
        kinds = {type(g) for g in subformulas(f)}
        if not {Know, Ought} <= kinds:
            continue
        try:
            v = evaluate(m, w, f, env)
        except CheckerError:
            continue
        nodes = list(v.walk())
        exp = [n for n in nodes if n.expectation is not None and n.values["rivals"]]
        named = [n for n in nodes if not isinstance(n.remark, str)]
        if exp and named:
            return m, env, w, f
    raise AssertionError("no draw fits")


def test_evaluate_renders_nothing_until_a_field_is_read(renders):
    m, env, w, f = _seeded_trail()
    renders.clear()
    v = evaluate(m, w, f, env)
    nodes = list(v.walk())
    assert len(nodes) > 5 and v.holds in (True, False)
    assert [n.clause for n in nodes] and not renders  # verdicts and clauses are not rendered

    assert v.text == v.text == to_text(f)
    assert renders == {"to_text": 1}
    assert v.where == v.where == world_id(w)
    assert renders == {"to_text": 1, "world_id": 1}

    renders.clear()
    exp = next(n for n in nodes if n.expectation is not None)
    carrier, instance, agent = exp.expectation
    values = exp.values
    assert exp.values is values and renders["atom_report"] == 1
    assert exp.expectation is None  # the carrier is released once read
    holds, own, rivals = atom_report(carrier, instance, agent)
    assert (exp.holds, values["own"]) == (holds, own)
    assert values["rivals"] == {world_id(r): x for r, x in rivals.items()}

    renders.clear()
    named = next(n for n in nodes if not isinstance(n.remark, str))
    assert named.note == named.note
    assert renders == {"world_id": 1}
    assert world_id(named.remark[1]) in named.note


def test_an_expectation_node_keeps_its_carrier_until_read():
    m, env, w, f = _seeded_trail()
    v = evaluate(m, w, f, env)
    exp = next(n for n in v.walk() if n.expectation is not None)
    carrier = weakref.ref(exp.expectation[0])
    del m, env, f
    gc.collect()
    assert carrier() is not None  # the node alone keeps it
    values = exp.values
    gc.collect()
    assert carrier() is None and exp.values is values


# --- the eager rendering, kept as a reference -------------------------------------


@dataclass
class EagerVerdict:
    """A trail node as evaluate built it before: every field rendered while
    the walk ran."""

    holds: bool
    text: str
    where: str
    clause: str
    note: str = ""
    values: Optional[dict] = None
    children: List["EagerVerdict"] = field(default_factory=list)


def _eager_note(note):
    if isinstance(note, str):
        return note
    before, world, after = note
    return before + world_id(world) + after


def _record(rec, holds, f, world, clause, kids=None, note=""):
    children = kids if kids is not None else []
    rec.append(EagerVerdict(holds, to_text(f), world_id(world), clause, _eager_note(note), None, children))
    return holds


def _record_expectation(rec, f, world, carrier, instance, agent, note=""):
    if rec is None:
        return atom_holds(carrier, instance, agent)
    holds, own, rivals = atom_report(carrier, instance, agent)
    values = {
        "own": own,
        "instance": world_id(instance),
        "rivals": {world_id(k): v for k, v in rivals.items()},
    }
    rec.append(EagerVerdict(holds, to_text(f), world_id(world), "expectation", note, values))
    return holds


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_a_trail_rendered_on_read_equals_one_rendered_while_walking(frame, monkeypatch):
    seed = {"S5": 151, "KD45": 152, "K": 153}[frame]
    lazy = [_outcome(lambda: evaluate(m, w, f, env)) for m, env, w, f in _draws(seed, frame)]
    # a second, identical set of models, so the two share no cache
    with monkeypatch.context() as patch:
        patch.setattr(semantics, "_node", _record)
        patch.setattr(semantics, "_expectation", _record_expectation)
        patch.setattr(semantics, "Verdict", None)  # the eager walk builds none
        eager = [
            _outcome(lambda: _verdict_dict(evaluate(m, w, f, env)))
            for m, env, w, f in _draws(seed, frame)
        ]
    # the lazy trails render only now, after every walk has run
    lazy = [x if isinstance(x, tuple) else _verdict_dict(x) for x in lazy]
    assert lazy == eager
    raised = sum(isinstance(x, tuple) for x in eager)
    valued = sum(n.get("clause") == "expectation" for x in eager if isinstance(x, dict) for n in _nodes(x))
    print(f"[lazy trail] {frame}: {raised} raised, {valued} expectation nodes")
    assert raised > 5 and valued > 20


def _nodes(tree):
    yield tree
    for c in tree.get("children", ()):
        yield from _nodes(c)
