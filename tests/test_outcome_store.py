"""The outcome store (semantics._store).

Each model keeps, for one env, the outcome of every after-run, obligation
and expectation node, and of every knowledge body, at each world walked.
These tests pin that a warm store never changes an answer: on S5, KD45 and
K models, formulas with obligations walked twice in shuffled world order
give the verdicts, error classes and messages of a cold walk on a freshly
built twin; a second pass runs no clause of a kept node; an equal env,
even a fresh dict, reads the store; and the store dies with its model
without the cyclic collector.
"""

import gc
import random
import weakref
from collections import Counter
from functools import partial

import pytest

import oughtcheck.semantics as semantics
from oughtcheck.actions import DecisionPoint
from oughtcheck.formula import TRUE, And, Atom, Diamond, ExpAtom, Know, Not, Ought
from oughtcheck.generate import gen_formula
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.product import product
from oughtcheck.semantics import evaluate, evaluate_plain
from test_know_table import _instances, _outcome, twin

KEPT = (Diamond, ExpAtom, Ought)


def _counting_clauses(monkeypatch):
    """Count, by node class, the runs of the clauses whose outcomes the
    store keeps, and of the knowledge loop (_decide)."""
    runs = Counter()

    def counting(cls, clause):
        def counted(*args):
            runs[cls.__name__] += 1
            return clause(*args)
        return counted

    for cls in KEPT:
        kept = semantics._CLAUSES[cls]
        assert kept.func is semantics._kept
        monkeypatch.setitem(
            semantics._CLAUSES, cls, partial(semantics._kept, counting(cls, kept.args[0]))
        )
    monkeypatch.setattr(semantics, "_decide", counting(Know, semantics._decide))
    return runs


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_a_warm_store_answers_as_a_cold_walk(frame, monkeypatch):
    rng = random.Random(2700)
    errors = checked = 0
    for m, env, banned in _instances(rng, frame, 16):
        formulas = [gen_formula(rng, m, env, depth=3, banned_dp=banned) for _ in range(4)]
        cold = {
            (f, w): _outcome(lambda: evaluate_plain(twin(m), w, f, env))
            for f in formulas
            for w in m.worlds
        }
        runs = _counting_clauses(monkeypatch)
        for walk in range(2):
            order = list(m.worlds)
            rng.shuffle(order)
            for f in formulas:
                for w in order:
                    got = _outcome(lambda: evaluate_plain(m, w, f, env))
                    assert got == cold[f, w], f"{f} at {w}, pass {walk}"
                    assert _outcome(lambda: evaluate(m, w, f, env).holds) == got
                    checked += 1
                    errors += not isinstance(got, bool)
            if walk == 0:
                runs.clear()
        # the second plain pass read every kept outcome; only the explained
        # walks ran clauses, and never the knowledge loop
        assert runs["Know"] == 0
        monkeypatch.undo()
        runs = _counting_clauses(monkeypatch)
        for f in formulas:
            for w in m.worlds:
                _outcome(lambda: evaluate_plain(m, w, f, env))
        assert sum(runs.values()) == 0, runs
        monkeypatch.undo()
    assert errors > 20 and checked > 500  # raising nodes were kept and raised again


def _cell(n):
    """n worlds in one S5 cell of i; p holds at w0 and w1 only, and U.go is
    available where p holds.  Its precondition, p & true, is a node that no
    formula here contains: a walk of it is a run's."""
    worlds = [f"w{k}" for k in range(n)]
    m = GradedKripkeModel(
        ["i"], ["p"], worlds, {"i": {w: set(worlds) for w in worlds}},
        {w: {"p"} if w in ("w0", "w1") else set() for w in worlds}, {w: k for k, w in enumerate(worlds)},
        frame="S5",
    )
    point = DecisionPoint("U", "i", ("go", "stay"), {"go": And(Atom("p"), TRUE), "stay": TRUE})
    return m, {"U": point}


def test_a_second_pass_runs_no_clause_of_a_kept_node(monkeypatch):
    m, env = _cell(8)
    go = (("U", "go"),)
    formulas = [
        Ought("i", go, Atom("p")),
        Know("i", Diamond(go, TRUE)),
        And(Atom("p"), ExpAtom("i", go)),
        Not(Know("i", Ought("i", go, TRUE))),
    ]
    runs = _counting_clauses(monkeypatch)
    first = [_outcome(lambda: evaluate_plain(m, w, f, env)) for f in formulas for w in m.worlds]
    assert runs["Ought"] and runs["Diamond"] and runs["ExpAtom"] and runs["Know"]
    runs.clear()
    again = [_outcome(lambda: evaluate_plain(m, w, f, env)) for f in formulas for w in m.worlds]
    assert again == first and runs == Counter()


def test_an_equal_fresh_env_decides_once(monkeypatch):
    """evaluate_plain(m, w, f, {**env}) in a loop: each call's env is a new
    dict with the same items, so every call reads what the first decided.
    The cell's worlds fall in two slots of alike worlds, {w0, w1} where p
    holds and {w2, ..., w5}, so the run is decided at the first of each."""
    m, env = _cell(6)
    f = And(Know("i", Diamond((("U", "go"),), TRUE)), Not(Ought("i", (("U", "go"),), Atom("p"))))
    pre = env["U"].pre["go"]
    pre_walks = []
    walk = semantics._walk

    def counted(model, world, g, e, rec):
        if g is pre and model is m:
            pre_walks.append(world)
        return walk(model, world, g, e, rec)

    product(m, env["U"])  # built up front, so only the runs' walks are counted
    monkeypatch.setattr(semantics, "_walk", counted)
    runs = _counting_clauses(monkeypatch)
    verdicts = [evaluate_plain(m, w, f, {**env}) for w in m.worlds]
    assert runs["Know"] == 1  # one cell, one loop
    assert pre_walks == ["w0", "w2"]  # each step decided once per slot
    decided = dict(runs)
    for _ in range(3):
        assert [evaluate_plain(m, w, f, {**env}) for w in m.worlds] == verdicts
    assert dict(runs) == decided and pre_walks == ["w0", "w2"]
    same = {"U": DecisionPoint("U", "i", ("go", "stay"), env["U"].pre)}
    assert [evaluate_plain(m, w, f, same) for w in m.worlds] == verdicts
    assert runs["Know"] == 2  # another point, equal or not: the store started empty


def test_the_store_dies_with_its_model_without_the_collector():
    m, env = _cell(4)
    go = (("U", "go"),)
    formulas = [Ought("i", go, Atom("p")), Know("i", ExpAtom("i", go)), Know("i", Diamond(go, TRUE))]
    for f in formulas:
        for w in m.worlds:
            try:
                evaluate_plain(m, w, f, env)
            except semantics.CheckerError:
                pass
    store = semantics._store(m, env)
    assert store.nodes and store.raised and store.witnesses
    # the runs' product is a model only the memo holds
    held, kept = weakref.ref(m), weakref.ref(product(m, env["U"]))
    del store
    enabled = gc.isenabled()
    gc.disable()
    try:
        del m
        assert held() is None and kept() is None
    finally:
        if enabled:
            gc.enable()
