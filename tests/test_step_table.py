"""The steps of a run (semantics._run).

A step is available where its precondition node's outcome, kept in the
model's outcome store per slot of alike worlds, holds, and an available
step descends into the model's product by the point, kept in the model's
memo.  These tests pin that warm entries never change an answer: a second
pass over the same formulas, and the explained walk, agree with the first
pass and with the brute-force oracle on S5, KD45 and K models; a raising
step is raised again; entries kept for an env with other items, or for env
before a change, are not read; and a precondition node shared by many
formulas, events or points is decided once per slot.
"""

from importlib import import_module

import pytest
from hypothesis import given, settings, strategies as st

from oracles import OracleError, o_eval, omodel
from oughtcheck.actions import DecisionPoint
from oughtcheck.errors import (
    CheckerError, EmptyProduct, InternalError, UnknownEvent, UnknownWorld,
)
from oughtcheck.formula import (
    FALSE, TRUE, And, Atom, Diamond, ExpAtom, Know, Not, Ought, subformulas, to_text,
)
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.parser import parse
from oughtcheck.semantics import evaluate, evaluate_plain
from test_successor_sets import _relation

P = Atom("p")


def _outcome(call):
    """A verdict, or "error" for a checked evaluation error."""
    try:
        return call()
    except InternalError:
        raise
    except (CheckerError, OracleError):
        return "error"


def _pres(agents, earlier=None):
    """Preconditions that the valuation decides, and ones that read more:
    knowledge and, about an earlier point, an after-run or expectation atom."""
    pool = [TRUE, P, Not(P)]
    for j in agents:
        pool += [Know(j, P), Not(Know(j, Not(P)))]
    if earlier is not None:
        for ev in earlier.events:
            step = ((earlier.id, ev),)
            pool += [Diamond(step, P), ExpAtom(earlier.owner, step)]
    return st.sampled_from(pool)


@st.composite
def _instance(draw):
    """(model, env, runs): a model over p, possibly with an evaluation-only
    world, a point V and a point U whose preconditions may name V, and
    runs of one or two steps over them."""
    frame = draw(st.sampled_from(["S5", "KD45", "K"]))
    agents = ["a", "b"][: draw(st.integers(1, 2))]
    domain = [f"w{k}" for k in range(draw(st.integers(2, 4)))]
    relations = {a: draw(_relation(frame, domain)) for a in agents}
    worlds = list(domain)
    eval_only = set()
    if draw(st.booleans()):
        worlds.append("e")
        eval_only.add("e")
        for a in agents:
            mask = draw(st.integers(1, 2 ** len(domain) - 1))
            relations[a]["e"] = {u for k, u in enumerate(domain) if mask >> k & 1}
    model = GradedKripkeModel(
        agents=agents,
        atoms=["p"],
        worlds=worlds,
        relations=relations,
        valuation={w: {"p"} if draw(st.booleans()) else set() for w in worlds},
        desirability={w: draw(st.integers(0, 3)) for w in worlds},
        frame=frame,
        eval_only=eval_only,
    )
    v = DecisionPoint(
        "V", agents[-1], ["x", "y"],
        {ev: draw(_pres(agents)) for ev in "xy"}, agents=agents,
    )
    u = DecisionPoint(
        "U", agents[0], ["x", "y"],
        {ev: draw(_pres(agents, v)) for ev in "xy"}, agents=agents, env={"V": v},
    )
    step = lambda dp_id: (dp_id, draw(st.sampled_from("xy")))  # noqa: E731
    runs = [(step("U"),), (step("V"),), (step("V"), step("U")), (step("U"), step("V"))]
    return model, {"V": v, "U": u}, runs


def _formulas(model, env, runs):
    other = model.agents[-1]
    out = []
    for run in runs:
        owner = env[run[-1][0]].owner
        out += [
            Diamond(run, P),
            Know(other, Diamond(run, Not(P))),
            Ought(owner, run, P),
            And(Diamond(run, TRUE), ExpAtom(owner, run)),
        ]
    return out


@settings(max_examples=40, deadline=None)
@given(_instance())
def test_a_warm_step_table_agrees_with_the_oracle(instance):
    model, env, runs = instance
    om = omodel(model)
    formulas = _formulas(model, env, runs)
    first = {
        (k, w): _outcome(lambda: evaluate_plain(model, w, f, env))
        for k, f in enumerate(formulas)
        for w in model.worlds
    }
    for k, f in enumerate(formulas):
        for w in model.worlds:
            want = _outcome(lambda: o_eval(om, w, f, env))
            assert first[k, w] == want, f"{f} at {w}"
            assert _outcome(lambda: evaluate_plain(model, w, f, env)) == want, f"{f} at {w}"
            assert _outcome(lambda: evaluate(model, w, f, env).holds) == want, f"{f} at {w}"


def _two_worlds(eval_only=frozenset()):
    """w1 without p, w2 with p; i sees w1 from both."""
    return GradedKripkeModel(
        ["i"], ["p"], ["w1", "w2"], {"i": {"w1": {"w1"}, "w2": {"w1"}}},
        {"w1": set(), "w2": {"p"}}, {"w1": 0, "w2": 1}, frame="K", eval_only=eval_only,
    )


def test_a_world_outside_the_model_raises_on_every_visit():
    m = _two_worlds()
    env = {"U": DecisionPoint("U", "i", ["a", "b"], {"a": Know("i", Not(P)), "b": P})}
    f = Diamond((("U", "a"),), TRUE)
    assert evaluate_plain(m, "w1", f, env)
    for _ in range(2):
        with pytest.raises(UnknownWorld):
            evaluate_plain(m, "nowhere", f, env)
        with pytest.raises(UnknownWorld):
            evaluate(m, "nowhere", f, env)
    assert evaluate_plain(m, "w2", f, env)


@pytest.mark.parametrize("step, message", [
    (("U", "zz"), "decision point 'U' has no event 'zz'"),
    (("W", "a"), "unknown decision point 'W'"),
])
def test_an_unknown_step_raises_on_every_visit(step, message):
    m = _two_worlds()
    env = {"U": DecisionPoint("U", "i", ["a", "b"], {"a": P, "b": TRUE})}
    formulas = [Diamond((step,), TRUE), Ought("i", (step,), TRUE), ExpAtom("i", (step,))]
    for _ in range(2):
        for f in formulas:
            for w in m.worlds:
                with pytest.raises(UnknownEvent, match=message):
                    evaluate_plain(m, w, f, env)
            with pytest.raises(UnknownEvent, match=message):
                evaluate(m, "w2", f, env)
        assert evaluate_plain(m, "w2", Diamond((("U", "a"),), TRUE), env)


def test_an_unavailable_step_reads_false_where_the_product_is_empty():
    # only the evaluation-only world w2 keeps an event, so the product is empty
    m = _two_worlds(eval_only={"w2"})
    env = {"U": DecisionPoint("U", "i", ["a", "b"], {"a": P, "b": FALSE})}
    f = Diamond((("U", "a"),), TRUE)
    for _ in range(2):
        assert not evaluate_plain(m, "w1", f, env)
        assert not evaluate(m, "w1", f, env).holds
        with pytest.raises(EmptyProduct):
            evaluate_plain(m, "w2", f, env)
        with pytest.raises(EmptyProduct):
            evaluate(m, "w2", f, env)


def test_another_env_gets_fresh_verdicts():
    """U's precondition names V, so U's steps depend on which V env holds:
    another env object, or the same env after a change, must not read the
    table filled for the first; nor may a different U under the same id."""
    m = _two_worlds()
    v_open = DecisionPoint("V", "i", ["x", "y"], {"x": TRUE, "y": TRUE})
    v_shut = DecisionPoint("V", "i", ["x", "y"], {"x": FALSE, "y": TRUE})
    u = DecisionPoint(
        "U", "i", ["a", "b"], {"a": Diamond((("V", "x"),), TRUE), "b": TRUE},
        env={"V": v_open},
    )
    f = Diamond((("U", "a"),), TRUE)
    env = {"U": u, "V": v_open}
    assert evaluate_plain(m, "w1", f, env)
    other = {"U": u, "V": v_shut}
    assert not evaluate_plain(m, "w1", f, other)
    assert not evaluate(m, "w1", f, other).holds
    assert evaluate_plain(m, "w1", f, env)
    env["V"] = v_shut
    assert not evaluate_plain(m, "w1", f, env)
    renamed = {"U": DecisionPoint("U", "i", ["a", "b"], {"a": FALSE, "b": TRUE}), "V": v_open}
    assert not evaluate_plain(m, "w1", f, renamed)
    assert evaluate_plain(m, "w1", f, {"U": u, "V": v_open})


def _thirty_worlds():
    """30 worlds over p and q for agent i: wk lies in cell k % 3 with
    valuation k % 4, so there are 12 slots of alike worlds, and w0, ...,
    w11 are the first worlds of each."""
    worlds = [f"w{k}" for k in range(30)]
    cells = [worlds[k::3] for k in range(3)]
    return GradedKripkeModel(
        agents=["i"], atoms=["p", "q"], worlds=worlds,
        relations={"i": {w: cell for cell in cells for w in cell}},
        valuation={w: [("p", "q"), ("p",), ("q",), ()][k % 4] for k, w in enumerate(worlds)},
        desirability={w: k % 5 for k, w in enumerate(worlds)},
        frame="S5",
    )


def _count_runs(monkeypatch, pre, env):
    """(walks, builds): the worlds where a run walks pre under env, and one
    entry per product build.  A product build walks preconditions under its
    point's own env, so its walks are not a run's."""
    semantics = import_module("oughtcheck.semantics")
    products = import_module("oughtcheck.product")
    walks, builds = [], []
    walk, update = semantics._walk, products._update

    def counted_walk(m, w, f, e, rec):
        if f is pre and e is env:
            walks.append(w)
        return walk(m, w, f, e, rec)

    monkeypatch.setattr(semantics, "_walk", counted_walk)
    monkeypatch.setattr(products, "_update", lambda *args: builds.append(1) or update(*args))
    return walks, builds


def test_a_shared_step_is_decided_once_per_slot(monkeypatch):
    """A work gate, counted rather than timed: 10 formulas that all run U.a,
    evaluated at every world of a 30-world model, walk U.a's precondition
    once per slot of alike worlds and build the product once.  Equal
    formulas are one node, so the precondition, p & true, is one that no
    formula contains: a walk of it is a run's."""
    model = _thirty_worlds()
    point = DecisionPoint("U", "i", ["a", "b"], {"a": And(P, TRUE), "b": TRUE})
    env = {"U": point}
    texts = [
        "<U.a> p", "<U.a> !p", "<U.a> q", "<U.a> (p & q)", "!<U.a> q",
        "<U.a> K{i} p", "K{i} <U.a> p", "<U.a> true", "<U.a> !K{i} q", "p & <U.a> q",
    ]
    formulas = [parse(text, env) for text in texts]
    pre = point.pre["a"]
    assert not any(pre is g for f in formulas for g in subformulas(f))
    walks, builds = _count_runs(monkeypatch, pre, env)
    for f in formulas:
        for w in model.worlds:
            evaluate_plain(model, w, f, env)
    assert walks == list(model.worlds[:12])
    assert len(builds) == 1


def test_a_shared_precondition_is_decided_once_per_slot_in_total(monkeypatch):
    """Two events of U and one of V have one precondition node, p & true:
    runs of all three, at every world of the 30-world model, walk it once
    per slot in total, and each point's product is built once."""
    model = _thirty_worlds()
    shared = And(P, TRUE)
    u = DecisionPoint("U", "i", ["a", "b"], {"a": shared, "b": And(Atom("p"), TRUE)})
    v = DecisionPoint("V", "i", ["x", "y"], {"x": And(P, TRUE), "y": Not(P)})
    env = {"U": u, "V": v}
    assert u.pre["b"] is shared and v.pre["x"] is shared
    texts = ["<U.a> q", "<U.b> !q", "<V.x> q", "K{i} <V.x> p", "<U.b> K{i} q"]
    formulas = [parse(text, env) for text in texts]
    assert not any(shared is g for f in formulas for g in subformulas(f))
    walks, builds = _count_runs(monkeypatch, shared, env)
    verdicts = [[evaluate_plain(model, w, f, env) for w in model.worlds] for f in formulas]
    assert walks == list(model.worlds[:12])
    assert len(builds) == 2
    om = omodel(model)
    for f, row in zip(formulas, verdicts):
        assert row == [o_eval(om, w, f, env) for w in model.worlds], to_text(f)
