"""The trace rules of formula.py, through every entry point that applies them.

Each rule is stated once (make_trace, point_of / pre_of, check_owner);
these tests pin that the parser, the loaders, the evaluator and the
rewriter all reach it and raise the same error class.
"""

import pytest

from oughtcheck.actions import DecisionPoint, env_of
from oughtcheck.docio import actions_from_doc, actions_to_doc
from oughtcheck.errors import ParseError, UnknownEvent, ValidationError
from oughtcheck.formula import (
    TRUE,
    Atom,
    Diamond,
    ExpAtom,
    Not,
    Ought,
    contains_diamond,
    contains_ought,
    pre_formula,
    subformulas,
)
from oughtcheck.kripke import trace_of
from oughtcheck.parser import parse
from oughtcheck.product import product
from oughtcheck.reduce import q_event_alternatives, translate
from oughtcheck.scenarios import allergy_model
from oughtcheck.semantics import evaluate, evaluate_plain


@pytest.fixture(scope="module")
def allergy():
    # U (events delta, gamma) is owned by b; U2 (alpha, beta) by a
    model, points = allergy_model()
    return model, points, env_of(points)


def _after_delta(model, env):
    """The product of the allergy model by U, and a world reached by U.delta."""
    updated = product(model, env["U"])
    world = next(w for w in updated.worlds if trace_of(w) == (("U", "delta"),))
    return updated, world


def _doc_with_pre(points, pre):
    """The allergy actions document plus a point whose precondition is pre."""
    doc = actions_to_doc(points)
    events = [{"name": "x", "pre": pre}, {"name": "y", "pre": "true"}]
    doc["actions"].append({"id": "Z", "owner": "a", "events": events})
    return doc


UU = (("U", "delta"), ("U", "gamma"))
D, G = (("U", "delta"),), (("U", "gamma"),)

# -- adjacency: a decision point never follows itself --------------------------

ADJACENCY = {
    "parse": lambda m, pts, env: parse("<U.delta;U.gamma> A", env),
    "Diamond": lambda m, pts, env: Diamond(UU, TRUE),
    "ExpAtom": lambda m, pts, env: ExpAtom("b", UU),
    "Ought": lambda m, pts, env: Ought("b", UU, TRUE),
    "translate D-e": lambda m, pts, env: translate(Diamond(D, ExpAtom("b", G)), env),
    "translate D-chain": lambda m, pts, env: translate(Diamond(D, Diamond(G, Atom("A"))), env),
    "translate R5": lambda m, pts, env: translate(Ought("b", D, Diamond(G, Atom("A"))), env),
    "translate R6": lambda m, pts, env: translate(Ought("b", D, Ought("b", G, Atom("A"))), env),
    "relative e, evaluate_plain": lambda m, pts, env: evaluate_plain(
        *_after_delta(m, env), ExpAtom("b", G), env
    ),
    "relative e, evaluate": lambda m, pts, env: evaluate(
        *_after_delta(m, env), ExpAtom("b", G), env
    ),
    "actions_from_doc": lambda m, pts, env: actions_from_doc(
        _doc_with_pre(pts, "<U.delta;U.gamma> A")
    ),
}


@pytest.mark.parametrize("via", sorted(ADJACENCY))
def test_adjacency_rule(allergy, via):
    error = ParseError if via in ("parse", "actions_from_doc") else ValidationError
    with pytest.raises(error, match="repeats decision point 'U'"):
        ADJACENCY[via](*allergy)


# -- ownership: the agent of an obligation or expectation atom owns its final
# decision point

NOT_OWNED = Ought("a", D, Atom("A"))  # U belongs to b
NOT_OWNED_ATOM = ExpAtom("a", D)
NOT_OWNED_UNKNOWN_FIRST = Ought("a", (("X", "x"), ("U", "delta")), Atom("A"))

OWNERSHIP = {
    "parse obligation": lambda m, pts, env: parse("O{a}(U.delta | A)", env),
    "parse e-atom": lambda m, pts, env: parse("e{a; U.delta}", env),
    "actions_from_doc obligation": lambda m, pts, env: actions_from_doc(
        _doc_with_pre(pts, "O{a}(U.delta | A)")
    ),
    "actions_from_doc e-atom": lambda m, pts, env: actions_from_doc(
        _doc_with_pre(pts, "e{a; U.delta}")
    ),
    "evaluate_plain": lambda m, pts, env: evaluate_plain(m, "w2", NOT_OWNED, env),
    "evaluate": lambda m, pts, env: evaluate(m, "w2", NOT_OWNED, env),
    "translate": lambda m, pts, env: translate(NOT_OWNED, env),
    "evaluate_plain e-atom": lambda m, pts, env: evaluate_plain(m, "w2", NOT_OWNED_ATOM, env),
    "evaluate e-atom": lambda m, pts, env: evaluate(m, "w2", NOT_OWNED_ATOM, env),
    "translate e-atom": lambda m, pts, env: translate(Not(NOT_OWNED_ATOM), env),
    "evaluate_plain, unknown first step": lambda m, pts, env: evaluate_plain(
        m, "w2", NOT_OWNED_UNKNOWN_FIRST, env
    ),
    "translate, unknown first step": lambda m, pts, env: translate(
        NOT_OWNED_UNKNOWN_FIRST, env
    ),
}


@pytest.mark.parametrize("via", sorted(OWNERSHIP))
def test_ownership_rule(allergy, via):
    with pytest.raises(ValidationError, match="does not own U.delta") as raised:
        OWNERSHIP[via](*allergy)
    if via.startswith("actions_from_doc"):
        assert str(raised.value).startswith("precondition of Z.x: ")


# -- step lookup: every step names a declared event ----------------------------

UNKNOWN_STEP = {
    "parse point": lambda m, pts, env: parse("<X.a> A", env),
    "parse event": lambda m, pts, env: parse("<U.zz> A", env),
    "actions_from_doc point": lambda m, pts, env: actions_from_doc(
        _doc_with_pre(pts, "<X.a> A")
    ),
    "actions_from_doc event": lambda m, pts, env: actions_from_doc(
        _doc_with_pre(pts, "<U.zz> A")
    ),
    "expectation atom": lambda m, pts, env: evaluate_plain(
        m, "w2", ExpAtom("b", (("U", "zz"),)), env
    ),
    "q_event_alternatives": lambda m, pts, env: q_event_alternatives((("U", "zz"),), "a", env),
    "pre_formula": lambda m, pts, env: pre_formula((("U", "delta"), ("U2", "zz")), env),
}


@pytest.mark.parametrize("via", sorted(UNKNOWN_STEP))
def test_step_lookup_rule(allergy, via):
    with pytest.raises(UnknownEvent) as raised:
        UNKNOWN_STEP[via](*allergy)
    if via.startswith("actions_from_doc"):
        assert str(raised.value).startswith("precondition of Z.x: ")


# -- depth: the structural walk keeps its own stack ----------------------------

def _not_chain(depth, leaf):
    f = leaf
    for _ in range(depth):
        f = Not(f)
    return f


def test_structural_walk_takes_any_depth():
    deep = _not_chain(10_000, Atom("p"))
    assert not contains_ought(deep) and not contains_diamond(deep)
    assert contains_ought(_not_chain(10_000, Ought("i", D, TRUE)))
    assert sum(1 for _ in subformulas(deep)) == 10_001
    # a point measures its preconditions on its own stack too, and refuses
    # one past the nesting limit as bad input
    with pytest.raises(ValidationError, match="nests past the nesting limit"):
        DecisionPoint("V", "i", ("a", "b"), {"a": deep, "b": TRUE})
