"""What a knowledge node keeps (semantics._know).

evaluate_plain and evaluate keep, in each model's outcome store (the memo
entry ("outcomes",)), the outcome of a `Know` node's body at each
successor world they walked, in the body's entry, and the node's witness
per successor set, for one env; evaluate walks the body with a trail
again only at the first failing successor.  These tests pin that a warm
store never changes an answer: verdicts and errors equal a cold walk of
the same node on a freshly built twin of the model, the explained walk,
warm and cold, and the brute-force oracle; a store is dropped with its
model and not read under an env with other items; and a text parsed
again on a warm model finds its entries.
"""

import copy
import dataclasses
import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

import oughtcheck.semantics as semantics
from oracles import OracleError, o_eval, omodel
from oughtcheck.actions import DecisionPoint
from oughtcheck.errors import CheckerError, InternalError, Unsatisfiable
from oughtcheck.formula import FALSE, TRUE, And, Atom, Diamond, ExpAtom, Know, Not, subformulas
from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.parser import parse
from oughtcheck.product import product
from oughtcheck.semantics import evaluate, evaluate_plain


def twin(m):
    """A freshly built model equal to m: its memo, and so its outcome store,
    starts empty."""
    return GradedKripkeModel(
        m.agents, m.atoms, m.worlds, m.relations, m.valuation, m.desirability,
        frame=m.frame, root=m.root, agent_filter=m.agent_filter, eval_only=m.eval_only,
        name=m.name,
    )


def kept(m, env, node):
    """{world: outcome} that m's outcome store for env keeps in node's entry,
    read at the world's slot: True, False, or the class of the error stored
    for the world (CheckerError where only an alike world's error is)."""
    store = semantics._store(m, env)
    codes = store.nodes.get(node, bytes(store.size))
    errors = store.raised.get(node, {})
    out = {}
    for w, i in store.index.items():
        if codes[i] == semantics._RAISED:
            out[w] = errors[w].cls if w in errors else CheckerError
        elif codes[i]:
            out[w] = codes[i] == semantics._TRUE
    return out


def _outcome(call):
    """A verdict, or the (class name, message) of the CheckerError raised."""
    try:
        return call()
    except InternalError:
        raise
    except CheckerError as exc:
        return type(exc).__name__, str(exc)


def _oracle(om, w, f, env):
    try:
        return o_eval(om, w, f, env)
    except OracleError:
        return "error"


def _instances(rng, frame, count):
    """count (model, env, decision point a formula may not start with):
    base models, and their products by U."""
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
        out.append((m, env, None))
        out.append((product(m, env["U"]), env, "U"))
    return out


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_a_warm_table_answers_as_a_cold_walk(frame, monkeypatch):
    visits = Counter()
    walk = semantics._walk

    def counted(model, world, g, env, rec):
        visits[id(g)] += 1
        return walk(model, world, g, env, rec)

    def own_visits(f, call):
        """call's outcome, and its visits to f's own nodes (the walks of
        preconditions, which build products, are left out)."""
        visits.clear()
        out = _outcome(call)
        return out, sum(visits[i] for i in {id(g) for g in subformulas(f)})

    monkeypatch.setattr(semantics, "_walk", counted)
    errors = warm_visits = cold_visits = 0
    rng = random.Random(1300)
    for m, env, banned in _instances(rng, frame, 24):
        om = omodel(m)
        agents = list(m.agents)
        for _ in range(4):
            body = gen_formula(rng, m, env, depth=2, banned_dp=banned)
            f = Know(rng.choice(agents), Know(rng.choice(agents), body))
            if rng.random() < 0.5:
                f = And(Not(f), Know(rng.choice(agents), f))
            for w in m.worlds:  # one model at every world: later ones hit its tables
                warm, n = own_visits(f, lambda: evaluate_plain(m, w, f, env))
                warm_visits += n
                fresh = twin(m)
                cold, n = own_visits(f, lambda: evaluate_plain(fresh, w, f, env))
                cold_visits += n
                told = _outcome(lambda: evaluate(twin(m), w, f, env).holds)
                warm_told = _outcome(lambda: evaluate(m, w, f, env).holds)
                where = f"{f} at {w}"
                assert warm == cold == told == warm_told, where
                assert _oracle(om, w, f, env) == (warm if isinstance(warm, bool) else "error"), where
                errors += not isinstance(warm, bool)
    assert errors > 20  # bodies that raise were stored and raised again
    assert warm_visits < cold_visits


def _k_frame():
    """Four worlds on a K frame; each world has two a- and two b-successors,
    so a body's (node, world) pair is asked for from several worlds."""
    succ_a = {"w0": {"w1", "w2"}, "w1": {"w2", "w3"}, "w2": {"w3", "w0"}, "w3": {"w0", "w1"}}
    succ_b = {"w0": {"w0", "w2"}, "w1": {"w1", "w3"}, "w2": {"w0", "w1"}, "w3": {"w2", "w3"}}
    return GradedKripkeModel(
        ["a", "b"], ["p"], ["w0", "w1", "w2", "w3"], {"a": succ_a, "b": succ_b},
        {"w0": {"p"}, "w1": {"p"}, "w2": set(), "w3": {"p"}},
        {w: 0 for w in ("w0", "w1", "w2", "w3")}, frame="K",
    )


def test_each_knowledge_body_is_walked_once_per_world(monkeypatch):
    m = _k_frame()
    f = Know("a", Know("b", Atom("p")))
    walked = Counter()
    walk = semantics._walk

    def counted(model, world, g, env, rec):
        walked[id(g), world] += 1
        return walk(model, world, g, env, rec)

    monkeypatch.setattr(semantics, "_walk", counted)
    env = {}
    verdicts = [evaluate_plain(m, w, f, env) for w in m.worlds]
    monkeypatch.undo()
    assert verdicts == [o_eval(omodel(m), w, f, env) for w in m.worlds]
    for node in (f.sub, f.sub.sub):
        counts = [walked[id(node), w] for w in m.worlds]
        assert counts == [1, 1, 1, 1], node
    asked = sum(len(m.successors("a", w)) for w in m.worlds)
    assert asked > len(m.worlds)  # without the table a body would be walked again


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_trail_is_walked_only_at_the_witness(warm, monkeypatch):
    """K{a} K{b} p fails at w1: K{b} p holds at its a-successor w2 and fails
    at w3, the witness.  It holds at w0.  Only the witness's body gets a
    trail."""
    m = _k_frame()
    f = Know("a", Know("b", Atom("p")))
    if warm:
        for w in m.worlds:
            evaluate_plain(m, w, f, {})
    trailed = Counter()
    walk = semantics._walk

    def counted(model, world, g, env, rec):
        if rec is not None:
            trailed[id(g), world] += 1
        return walk(model, world, g, env, rec)

    monkeypatch.setattr(semantics, "_walk", counted)
    fails = evaluate(m, "w1", f, {})
    assert not fails.holds and fails.note == "fails at successor w3"
    assert [c.where for c in fails.children] == ["w3"]
    assert {w: n for (i, w), n in trailed.items() if i == id(f.sub)} == {"w3": 1}
    trailed.clear()
    holds = evaluate(m, "w0", f, {})
    assert holds.holds and holds.children == []
    assert [key for key in trailed if key[0] == id(f.sub)] == []


def _two_worlds():
    both = {"w1": {"w1", "w2"}, "w2": {"w1", "w2"}}
    return GradedKripkeModel(
        ["i"], ["p"], ["w1", "w2"], {"i": both},
        {"w1": {"p"}, "w2": set()}, {"w1": 1, "w2": 0}, frame="S5",
    )


def _point(go):
    return DecisionPoint("U", "i", ("go", "stay"), {"go": go, "stay": TRUE})


def test_a_changed_env_gets_the_fresh_verdict():
    m = _two_worlds()
    f = Know("i", Diamond((("U", "go"),), TRUE))
    env = {"U": _point(TRUE)}
    assert evaluate_plain(m, "w1", f, env)
    env["U"] = _point(FALSE)  # the same dict, changed
    assert not evaluate_plain(m, "w1", f, env)
    assert evaluate_plain(m, "w1", f, {"U": _point(TRUE)})  # another dict
    assert not evaluate_plain(m, "w1", f, env)


def test_a_changed_env_raises_the_fresh_error():
    m = _two_worlds()
    f = Know("i", ExpAtom("i", (("U", "go"),)))
    env = {"U": _point(TRUE)}
    assert evaluate_plain(m, "w1", f, env)
    env["U"] = DecisionPoint("U", "j", ("go", "stay"), {"go": TRUE, "stay": TRUE})
    with pytest.raises(CheckerError, match="does not own U.go"):
        evaluate_plain(m, "w1", f, env)


def test_the_table_lets_its_model_die():
    f, env = Know("i", Atom("p")), {}
    m = _two_worlds()
    assert not evaluate_plain(m, "w1", f, env)
    held = weakref.ref(m)
    del m
    gc.collect()
    assert held() is None
    other = GradedKripkeModel(
        ["i"], ["p"], ["w1", "w2"], {"i": {"w1": {"w2"}, "w2": {"w1"}}},
        {"w1": set(), "w2": {"p"}}, {"w1": 1, "w2": 0}, frame="K",
    )
    assert evaluate_plain(other, "w1", f, env)  # p holds at w2 in this model


def test_only_checker_errors_are_stored():
    m = _two_worlds()
    f, env = Know("i", "not a formula"), {}
    for _ in range(2):
        with pytest.raises(TypeError, match="not a formula"):
            evaluate_plain(m, "w1", f, env)
    assert kept(m, env, f.sub) == {} and semantics._store(m, env).witnesses[f] == {}


def test_copies_carry_no_table():
    """A copy or a pickle of a node is the node itself, so it reads the
    tables keyed by the node; nothing rides on the node."""
    m = _two_worlds()
    inner = Know("i", Atom("p"))
    f, env = And(Atom("p"), Know("i", inner)), {}
    evaluate_plain(m, "w1", f, env)
    assert kept(m, env, inner.sub) == {"w1": True, "w2": False}
    assert semantics._store(m, env).witnesses[inner] != {}
    assert [fld.name for fld in dataclasses.fields(Know)] == ["agent", "sub"]
    for copied in (copy.deepcopy(f), pickle.loads(pickle.dumps(f)), copy.copy(f)):
        assert copied is f
    atom = ExpAtom("i", (("U", "go"),))
    assert pickle.loads(pickle.dumps(atom)) is atom is ExpAtom("i", [("U", "go")])


def _cell(n):
    """n worlds in one S5 cell of i: every world has the same successor set.
    p holds at w0 and w1 only, and U.go is available where p holds."""
    worlds = [f"w{k}" for k in range(n)]
    m = GradedKripkeModel(
        ["i"], ["p"], worlds, {"i": {w: set(worlds) for w in worlds}},
        {w: {"p"} if w in ("w0", "w1") else set() for w in worlds}, {w: 0 for w in worlds},
        frame="S5",
    )
    return m, {"U": DecisionPoint("U", "i", ("go", "stay"), {"go": Atom("p"), "stay": TRUE})}


def _counting_ordered(monkeypatch):
    calls = []
    ordered = GradedKripkeModel.ordered_successors

    def counted(self, agent, world):
        calls.append(world)
        return ordered(self, agent, world)

    monkeypatch.setattr(GradedKripkeModel, "ordered_successors", counted)
    return calls


@pytest.mark.parametrize("body", [Atom("p"), Not(Atom("p"))], ids=["fails", "holds"])
def test_a_cell_runs_the_knowledge_loop_once(body, monkeypatch):
    m, env = _cell(12)
    f = Know("i", body)
    calls = _counting_ordered(monkeypatch)
    verdicts = [evaluate_plain(m, w, f, env) for w in m.worlds]
    assert calls == ["w0"]  # the other 11 worlds read the set's outcome
    assert verdicts == [o_eval(omodel(m), w, f, env) for w in m.worlds]
    calls.clear()
    told = [evaluate(m, w, f, env) for w in m.worlds]
    assert calls == []  # the explained walk reads the same entry
    assert [v.holds for v in told] == verdicts


def test_an_error_read_per_set_is_the_cold_walks_error(monkeypatch):
    # e{i; U.go} is undefined at w2, the first successor where go is not
    # available: every world of the cell raises that error
    m, env = _cell(5)
    f = Know("i", ExpAtom("i", (("U", "go"),)))
    calls = _counting_ordered(monkeypatch)
    for w in m.worlds:
        warm = _outcome(lambda: evaluate_plain(m, w, f, env))
        assert warm == _outcome(lambda: evaluate_plain(twin(m), w, f, env))
        assert warm == ("UnknownProductWorld", "w2 does not survive U.go")
        assert _outcome(lambda: evaluate(twin(m), w, f, env)) == warm
        assert _outcome(lambda: evaluate(m, w, f, env)) == warm
    # each twin ran the loop once, cold, at its world; the warm model ran
    # it once, at w0, and raised from its per-set entry everywhere else
    assert calls == ["w0"] + [w for w in m.worlds for _ in range(2)]


def test_a_warm_witness_trail_is_the_cold_one():
    m, env = _cell(6)
    f = Know("i", Know("i", Atom("p")))
    warm = [evaluate(m, w, f, env) for w in m.worlds]
    for w, told in zip(m.worlds, warm):
        cold = evaluate(twin(m), w, f, env)
        assert told.pretty() == cold.pretty()
        assert not told.holds and told.note == "fails at successor w0"


def _counting_decide(monkeypatch):
    calls = []
    decide = semantics._decide

    def counted(model, world, *rest):
        calls.append(world)
        return decide(model, world, *rest)

    monkeypatch.setattr(semantics, "_decide", counted)
    return calls


def test_a_text_parsed_again_on_a_warm_model_decides_nothing(monkeypatch):
    """The model's memo keeps each Know node it has a table for, so parsing
    the text again builds that very node, and every world reads its table."""
    m, env = _k_frame(), {}
    text = "(K{a} K{b} p & !K{b} !p)"
    calls = _counting_decide(monkeypatch)
    first = [evaluate_plain(m, w, parse(text, env), env) for w in m.worlds]
    assert calls  # the first pass decided each successor set
    held = weakref.ref(parse(text, env).left)
    gc.collect()
    assert held() is parse(text, env).left
    calls.clear()
    again = [evaluate_plain(m, w, parse(text, env), env) for w in m.worlds]
    told = [evaluate(m, w, parse(text, env), env).holds for w in m.worlds]
    assert again == told == first and calls == []
    assert first == [o_eval(omodel(m), w, parse(text, env), env) for w in m.worlds]


def test_a_table_made_for_one_env_is_not_read_under_another(monkeypatch):
    """One S5 cell decides K{i} <U.go> true once per env, an env being its
    items: an equal env, even a fresh dict, reads what was decided, and a
    changed env, or an env with another point, decides it again, and its
    verdict is the fresh one."""
    m, env = _cell(6)
    f = Know("i", Diamond((("U", "go"),), TRUE))
    calls = _counting_decide(monkeypatch)
    assert [evaluate_plain(m, w, f, env) for w in m.worlds] == [False] * 6
    assert calls == ["w0"]
    assert [evaluate_plain(m, w, f, {**env}) for w in m.worlds] == [False] * 6
    assert calls == ["w0"]  # an equal env read the store
    env["U"] = _point(TRUE)  # the same dict, changed
    assert [evaluate_plain(m, w, f, env) for w in m.worlds] == [True] * 6
    assert calls == ["w0", "w0"]
    other = {"U": DecisionPoint("U", "i", ("go", "stay"), {"go": FALSE, "stay": TRUE})}
    assert [evaluate_plain(m, w, f, other) for w in m.worlds] == [False] * 6
    assert calls == ["w0", "w0", "w0"]
    assert [evaluate(m, w, f, other).holds for w in m.worlds] == [False] * 6
    assert calls == ["w0", "w0", "w0"]  # the explained walk read the same table
