"""Decision points."""

import pytest

from oughtcheck.actions import DecisionPoint, env_of, validate_decision_point
from oughtcheck.errors import (
    CyclicPrecondition,
    OughtInPrecondition,
    UnknownAgent,
    UnknownEvent,
    ValidationError,
)
from oughtcheck.formula import And, Atom, Diamond, ExpAtom, Know, Not, Ought, TRUE
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.product import product


def _dp(dp_id="U", owner="i", events=("a", "b"), **kw):
    pre = kw.pop("pre", {e: TRUE for e in events})
    return DecisionPoint(dp_id, owner, events, pre, **kw)


def test_basic_shape():
    d = _dp(pre={"a": Atom("p"), "b": TRUE})
    assert d.id == "U" and d.owner == "i"
    assert d.events == ("a", "b")
    assert d.agents == ("i",)
    assert d.event_keys == ((("U", "a"),), (("U", "b"),))
    assert d.pre_formula(((("U", "a")),)) == Atom("p")
    assert not d.extra_edges
    assert validate_decision_point(d) == []


def test_event_keys_are_bound_once():
    d = _dp(events=("a", "b", "c"))
    assert d.event_keys is d.event_keys
    assert d.event_keys == tuple(((d.id, ev),) for ev in d.events)
    with pytest.raises(AttributeError):
        d.event_keys = ()


def test_needs_two_events():
    with pytest.raises(ValidationError):
        _dp(events=("only",), pre={"only": TRUE})
    with pytest.raises(ValidationError):
        _dp(events=("a", "a"), pre={"a": TRUE})


def test_every_event_needs_a_precondition():
    with pytest.raises(ValidationError):
        DecisionPoint("U", "i", ("a", "b"), {"a": TRUE})


def test_preconditions_must_be_obligation_free():
    bad = Know("i", Ought("i", (("V", "x"),), TRUE))
    with pytest.raises(OughtInPrecondition):
        _dp(pre={"a": bad, "b": TRUE})
    # diamonds and negations are fine
    _dp(pre={"a": Not(Diamond((("V", "x"),), Atom("p"))), "b": TRUE})


def test_owner_always_among_agents():
    d = _dp(agents=["x", "y"])
    assert d.agents == ("x", "y", "i")
    assert d.q_related("i", (("U", "a"),), (("U", "a"),))
    assert not d.q_related("i", (("U", "a"),), (("U", "b"),))


def test_unmentioned_agents_tell_events_apart():
    d = _dp()
    # "z" is nowhere near this point: identity relation
    assert d.q_related("z", (("U", "a"),), (("U", "a"),))
    assert not d.q_related("z", (("U", "a"),), (("U", "b"),))


def test_extra_edges_flagged_not_rejected():
    d = _dp(relations={"i": {("a", "b")}})
    assert d.extra_edges
    assert d.q_related("i", (("U", "a"),), (("U", "b"),))
    assert not d.q_related("i", (("U", "b"),), (("U", "a"),))
    notes = validate_decision_point(d)
    assert len(notes) == 1 and "beyond the" in notes[0]


def test_relation_over_unknown_event():
    with pytest.raises(UnknownEvent):
        _dp(relations={"i": {("a", "zz")}})


def test_relation_of_an_agent_outside_the_point():
    with pytest.raises(UnknownAgent, match="relation of 'U' for undeclared agent 'z'"):
        _dp(relations={"z": {("a", "b"), ("b", "a")}})
    with pytest.raises(UnknownAgent, match="'z'"):
        _dp(agents=["x"], relations={"x": set(), "z": set()})
    d = _dp(agents=["x"], relations={"x": {("a", "b")}, "i": set()})
    assert d.q_related("x", (("U", "a"),), (("U", "b"),))


def test_pre_formula_rejects_foreign_keys():
    d = _dp()
    with pytest.raises(UnknownEvent):
        d.pre_formula((("V", "a"),))
    with pytest.raises(UnknownEvent):
        d.pre_formula((("U", "zz"),))


def test_env_of_rejects_duplicates():
    u, v = _dp("U"), _dp("V")
    assert env_of([u, v]) == {"U": u, "V": v}
    with pytest.raises(ValidationError):
        env_of([u, _dp("U", owner="j")])


def test_env_threading_through_declarations():
    u = _dp("U")
    v = DecisionPoint(
        "V", "j", ("x", "y"),
        {"x": Diamond((("U", "a"),), TRUE), "y": TRUE},
        env={"U": u},
    )
    assert v.env["U"] is u
    assert "V" not in v.env  # a point does not hold itself: no reference cycle


def test_decision_point_attributes_cannot_be_rebound():
    v = _dp("V", env=env_of([_dp()]))
    for name in ("id", "owner", "events", "agents", "env", "pre", "relations", "extra_edges"):
        before = getattr(v, name)
        with pytest.raises(AttributeError):
            setattr(v, name, before)
        with pytest.raises(AttributeError):
            delattr(v, name)
        assert getattr(v, name) is before


def test_decision_point_mappings_are_read_only():
    d = _dp(agents=("i", "j"))
    with pytest.raises(TypeError):
        d.pre["a"] = Atom("p")
    with pytest.raises(TypeError):
        del d.pre["b"]
    with pytest.raises(TypeError):
        d.relations["i"] = frozenset()
    with pytest.raises(TypeError):
        d.env["V"] = d
    assert d.pre["a"] == TRUE and d.q_related("i", (("U", "a"),), (("U", "a"),))


def test_a_composition_cannot_change_under_its_products():
    """A point run after another (its precondition names U) keeps its env,
    pre and relations as they were built, so its memoised product stays
    sound."""
    both = {"w1": {"w1", "w2"}, "w2": {"w1", "w2"}}
    m = GradedKripkeModel(
        ["i"], ["p", "q"], ["w1", "w2"], {"i": both},
        {"w1": {"p"}, "w2": {"q"}}, {"w1": 1, "w2": 0}, frame="S5",
    )
    u = _dp("U", "i", ("a", "b", "c"))
    v = _dp("V", "i", ("x", "y"), pre={"x": Diamond((("U", "a"),), Atom("p")), "y": Atom("q")},
            env={"U": u})
    updated = product(m, v)
    assert len(updated.worlds) == 2
    with pytest.raises(TypeError):
        v.env["U"] = _dp("U", "i", ("a", "b"))
    with pytest.raises(TypeError):
        v.pre["y"] = TRUE
    with pytest.raises(TypeError):
        v.relations["i"] = frozenset()
    with pytest.raises(AttributeError):
        v.id = "W"
    for name in ("owner", "env", "pre", "relations", "agents", "event_keys", "extra_edges"):
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v.env["U"] is u and v.id == "V" and v.pre["y"] == Atom("q")
    assert product(m, v) is updated


_SELF_NAMING = {
    "diamond": Diamond((("U", "y"),), Atom("p")),
    "expectation": ExpAtom("a", (("U", "y"),)),
    "later-step": Diamond((("V", "x"), ("U", "y")), Atom("p")),
}
_CONTEXTS = {
    "bare": lambda f: f,
    "not": Not,
    "and": lambda f: And(TRUE, f),
    "know": lambda f: Know("a", f),
}


@pytest.mark.parametrize("context", _CONTEXTS, ids=str)
@pytest.mark.parametrize("pre", _SELF_NAMING, ids=str)
def test_a_precondition_naming_its_own_point_is_cyclic(pre, context):
    v = DecisionPoint("V", "a", ["x", "y"], {"x": TRUE, "y": TRUE})
    with pytest.raises(CyclicPrecondition, match=r"^precondition of U\.x "):
        DecisionPoint(
            "U", "a", ["x", "y"],
            {"x": _CONTEXTS[context](_SELF_NAMING[pre]), "y": TRUE},
            env={"V": v},
        )


def test_a_precondition_naming_an_earlier_point_builds():
    v = DecisionPoint("V", "a", ["x", "y"], {"x": TRUE, "y": Atom("p")})
    u = DecisionPoint(
        "U", "a", ["x", "y"],
        {"x": Know("a", Diamond((("V", "x"),), Atom("p"))), "y": Not(ExpAtom("a", (("V", "y"),)))},
        env={"V": v},
    )
    assert u.env["V"] is v
