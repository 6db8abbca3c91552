"""Formula AST: construction, canonical text, complexity measure."""

import pytest

from oughtcheck.errors import ValidationError
from oughtcheck.formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExpAtom,
    FALSE,
    Falsity,
    Implies,
    Know,
    Not,
    Or,
    Ought,
    TRUE,
    Truth,
    big_and,
    complexity,
    contains_diamond,
    contains_ought,
    make_trace,
    pre_formula,
    to_text,
    trace_text,
)


def test_nodes_are_hashable_values():
    assert Atom("p") == Atom("p")
    assert Atom("p") != Atom("q")
    assert len({Atom("p"), Atom("p"), TRUE, Truth()}) == 2
    assert And(Atom("p"), Atom("q")) == And(Atom("p"), Atom("q"))


def test_nodes_are_frozen():
    with pytest.raises(Exception):
        Atom("p").name = "q"


def test_make_trace_rejects_empty_and_adjacent_repeats():
    with pytest.raises(ValidationError):
        make_trace([])
    with pytest.raises(ValidationError):
        make_trace([("U", "a"), ("U", "b")])
    # the same point twice is fine when not adjacent
    t = make_trace([("U", "a"), ("V", "b"), ("U", "c")])
    assert t == (("U", "a"), ("V", "b"), ("U", "c"))


def test_make_trace_keeps_a_normal_trace_and_still_validates_it():
    normal = (("U", "a"), ("V", "b"))
    assert make_trace(normal) is normal
    assert Diamond(normal, TRUE).steps is normal
    for raw in ([["U", "a"], ["V", "b"]], [("U", "a"), ("V", "b")], (["U", "a"], ("V", "b"))):
        t = make_trace(raw)
        assert t == normal and all(type(step) is tuple for step in t)

    class Name(str):
        pass

    t = make_trace(((Name("U"), 1),))
    assert t == (("U", "1"),) and type(t[0][0]) is str
    for bad in ((("U", "a"), ("U", "b")), ()):
        with pytest.raises(ValidationError):
            make_trace(bad)
        with pytest.raises(ValidationError):
            Ought("i", bad, TRUE)


def test_trace_validation_applies_to_every_trace_carrier():
    for build in (
        lambda s: Diamond(s, TRUE),
        lambda s: Ought("i", s, TRUE),
        lambda s: ExpAtom("i", s),
    ):
        with pytest.raises(ValidationError):
            build((("U", "a"), ("U", "b")))


def test_canonical_text():
    assert to_text(TRUE) == "true"
    assert to_text(FALSE) == "false"
    assert to_text(Atom("rain")) == "rain"
    assert to_text(Not(Atom("p"))) == "!p"
    assert to_text(And(Atom("p"), Atom("q"))) == "(p & q)"
    assert to_text(Know("a", Atom("p"))) == "K{a} p"
    assert to_text(Diamond((("U", "go"),), Atom("p"))) == "<U.go> p"
    assert (
        to_text(Ought("b", (("U", "delta"),), Know("a", Atom("A"))))
        == "O{b}(U.delta | K{a} A)"
    )
    assert to_text(ExpAtom("a", (("U2", "beta"),))) == "e{a; U2.beta}"
    assert trace_text((("U", "delta"), ("U2", "beta"))) == "U.delta;U2.beta"


def test_derived_forms_lower_to_core():
    p, q = Atom("p"), Atom("q")
    assert Or(p, q) == Not(And(Not(p), Not(q)))
    assert Implies(p, q) == Not(And(p, Not(q)))
    assert Box((("U", "a"),), p) == Not(Diamond((("U", "a"),), Not(p)))
    assert big_and([]) == TRUE
    assert big_and([p]) == p
    assert big_and([p, q, TRUE]) == And(And(p, q), TRUE)


def test_str_matches_to_text():
    f = And(Not(Atom("p")), Know("a", TRUE))
    assert str(f) == to_text(f)


def test_contains_ought_and_diamond():
    inner = Ought("i", (("U", "a"),), TRUE)
    assert contains_ought(Not(And(TRUE, Know("i", inner))))
    assert not contains_ought(Diamond((("U", "a"),), TRUE).sub)
    assert contains_diamond(Know("i", Diamond((("U", "a"),), TRUE)))
    # an obligation hides an update, so it counts as a diamond
    assert contains_diamond(inner)
    assert not contains_diamond(And(Atom("p"), ExpAtom("i", (("U", "a"),))))


class _FakePoint:
    def __init__(self, pre):
        self.pre = pre


def _env(**pres):
    return {dp: _FakePoint(p) for dp, p in pres.items()}


def test_complexity_base_cases():
    env = {}
    assert complexity(TRUE, env) == 1
    assert complexity(Atom("p"), env) == 1
    assert complexity(ExpAtom("i", (("U", "a"),)), env) == 1
    assert complexity(Not(Atom("p")), env) == 2
    assert complexity(And(Not(Atom("p")), Atom("q")), env) == 3
    assert complexity(Know("i", And(Atom("p"), Atom("q"))), env) == 3


def test_complexity_update_operators_multiply():
    env = _env(U={"a": Atom("p"), "b": Not(Atom("p"))})
    # <U.a> q: (4 + c(p)) * c(q) = 5
    assert complexity(Diamond((("U", "a"),), Atom("q")), env) == 5
    # O over the same trace weighs one more on the trace factor
    assert complexity(Ought("i", (("U", "a"),), Atom("q")), env) == 6
    # heavier precondition, heavier diamond
    assert complexity(Diamond((("U", "b"),), Atom("q")), env) == 6


def test_trace_pre_complexity_folds_left():
    env = _env(
        U={"a": Atom("p")},
        V={"c": And(Atom("p"), Atom("q"))},
    )
    # single step: the declared precondition's own complexity
    assert complexity(pre_formula((("U", "a"),), env), env) == 1
    assert complexity(pre_formula((("V", "c"),), env), env) == 2
    # two steps: (4 + first) * second
    assert complexity(pre_formula((("U", "a"), ("V", "c")), env), env) == (4 + 1) * 2


def test_complexity_strictly_dominates_operands():
    env = _env(U={"a": Atom("p"), "b": TRUE}, V={"c": Not(Atom("q"))})
    p, q = Atom("p"), Atom("q")
    samples = [
        Not(p),
        And(p, Not(q)),
        Know("i", And(p, q)),
        Diamond((("U", "a"),), And(p, q)),
        Ought("i", (("V", "c"),), Diamond((("U", "b"),), p)),
    ]
    for f in samples:
        c = complexity(f, env)
        for sub in _children(f):
            assert complexity(sub, env) < c


def _children(f):
    if isinstance(f, Not):
        return [f.sub]
    if isinstance(f, And):
        return [f.left, f.right]
    if isinstance(f, Know):
        return [f.sub]
    if isinstance(f, Diamond):
        return [f.sub]
    if isinstance(f, Ought):
        return [f.body]
    return []
