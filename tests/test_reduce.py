"""Translation into the update-free fragment, with decrease certificates."""

import random

import pytest

from oughtcheck.actions import DecisionPoint, env_of
from oughtcheck.errors import (
    CheckerError,
    NonTermination,
    UnknownEvent,
    ValidationError,
)
from oughtcheck.formula import (
    Atom,
    Diamond,
    ExpAtom,
    Know,
    Not,
    Ought,
    TRUE,
    complexity,
    contains_diamond,
    contains_ought,
    to_text,
)
from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model
from oughtcheck.errors import Unsatisfiable
from oughtcheck.parser import parse
from oughtcheck.reduce import pre_formula, q_event_alternatives, translate
from oughtcheck.scenarios import allergy_model
from oughtcheck.semantics import evaluate_plain


@pytest.fixture(scope="module")
def allergy():
    model, points = allergy_model()
    return model, env_of(points)


def _tr(text, env, mode="standard"):
    return translate(parse(text, env), env, mode=mode)


def test_plain_formulas_pass_through(allergy):
    _, env = allergy
    for text in ("p", "true", "!A", "(A & d)", "K{a} A", "e{a; U2.beta}"):
        tr = _tr(text, env)
        assert tr.result == parse(text, env)
        assert tr.steps == []
        assert tr.certified


def test_r1_obligation_over_plain_body(allergy):
    _, env = allergy
    tr = _tr("O{a}(U2.beta | p)", env)
    assert to_text(tr.result) == "((d' & p) & e{a; U2.beta})"
    (step,) = tr.steps
    assert step.rule == "R1" and step.obligation_step and step.decreasing
    assert tr.certified


def test_standard_output_is_update_free(allergy):
    _, env = allergy
    texts = [
        "O{b}(U.delta | O{a}(U2.beta | K{a} A))",
        "O{b}(U.delta | !A)",
        "<U.delta> K{a} A",
        "O{b}(U.gamma | <U2.alpha> d)",
        "K{b} <U.delta> O{a}(U2.beta | K{a} A)",
    ]
    for text in texts:
        tr = _tr(text, env)
        assert not contains_ought(tr.result), text
        assert not contains_diamond(tr.result), text
        assert tr.certified, text


def test_translation_is_a_fixed_point(allergy):
    _, env = allergy
    tr = _tr("O{b}(U.delta | O{a}(U2.beta | K{a} A))", env)
    again = translate(tr.result, env)
    assert again.result == tr.result
    assert again.steps == []


def test_diamond_atom_clause(allergy):
    _, env = allergy
    tr = _tr("<U.delta> p", env)
    assert to_text(tr.result) == "(A & p)"
    assert [s.rule for s in tr.steps] == ["D-atom"]
    assert not tr.steps[0].obligation_step


def test_diamond_expectation_clause_joins_traces(allergy):
    _, env = allergy
    tr = _tr("<U.delta> e{a; U2.beta}", env)
    assert to_text(tr.result) == "(A & e{a; U.delta;U2.beta})"
    assert [s.rule for s in tr.steps] == ["D-e"]


def test_diamond_knowledge_unfolds_alternatives(allergy):
    _, env = allergy
    tr = _tr("<U.delta> K{a} A", env)
    assert to_text(tr.result) == "(A & K{a} !(A & !(A & A)))"
    assert tr.steps[0].rule == "D-K"


def test_diamond_knowledge_drop_in_literal_mode(allergy):
    _, env = allergy
    # U belongs to b: the literal clause set lets the owner's knowledge
    # commute out of the owner's own update
    lit = _tr("<U.delta> K{b} A", env, mode="literal")
    assert to_text(lit.result) == "(A & K{b} A)"
    assert lit.steps[0].rule == "D-K-drop"
    std = _tr("<U.delta> K{b} A", env)
    assert std.steps[0].rule == "D-K"
    assert to_text(std.result) == "(A & K{b} !(A & !(A & A)))"


def test_diamond_chain_clause(allergy):
    _, env = allergy
    tr = _tr("<U.delta> <U2.alpha> p", env)
    assert any(s.rule == "D-chain" for s in tr.steps)
    assert not contains_diamond(tr.result)
    # the chained precondition folds the first run in front of the second
    assert pre_formula((("U", "delta"), ("U2", "alpha")), env) == Diamond(
        (("U", "delta"),), Atom("d")
    )


def test_negation_clause_keeps_expectation_in_standard_mode(allergy):
    _, env = allergy
    std = _tr("O{b}(U.delta | !A)", env)
    lit = _tr("O{b}(U.delta | !A)", env, mode="literal")
    assert to_text(std.result) == "((A & !((A & A) & e{b; U.delta})) & e{b; U.delta})"
    assert to_text(lit.result) == "(A & !((A & A) & e{b; U.delta}))"
    assert [s.rule for s in std.steps if s.obligation_step][0] == "R3+e"
    assert [s.rule for s in lit.steps if s.obligation_step][0] == "R3"
    assert std.certified and lit.certified


def test_negation_clauses_diverge_semantically(allergy):
    """The literal negation clause drops the expectation conjunct, and that
    loses information: at an A-world where informing is not expectation-best
    the two readings disagree, which is exactly what the axiom suite reports
    for the plain rule."""
    model, env = allergy
    f = parse("O{b}(U.delta | !d)", env)
    std = translate(f, env).result
    lit = translate(f, env, mode="literal").result
    diverged = False
    for w in model.worlds:
        direct = evaluate_plain(model, w, f, env)
        assert evaluate_plain(model, w, std, env) == direct
        if evaluate_plain(model, w, lit, env) != direct:
            diverged = True
    assert diverged


def test_same_agent_knowledge_modes(allergy):
    _, env = allergy
    text = "O{a}(U2.beta | K{a} A)"
    std = _tr(text, env)
    lit = _tr(text, env, mode="literal")
    assert [s.rule for s in std.steps if s.obligation_step] == ["O-K"]
    assert [s.rule for s in lit.steps if s.obligation_step] == ["R4", "R1"]
    assert to_text(lit.result) == "K{a} ((d' & A) & e{a; U2.beta})"
    assert std.certified and lit.certified


def test_diamond_body_clause(allergy):
    _, env = allergy
    tr = _tr("O{b}(U.gamma | <U2.alpha> d)", env)
    assert [s.rule for s in tr.steps if s.obligation_step] == ["R5"]
    assert tr.certified
    assert not contains_diamond(tr.result)


def test_same_agent_nested_obligation_joins():
    g = DecisionPoint("G", "i", ("x", "y"), {"x": Atom("p"), "y": TRUE})
    h = DecisionPoint("H", "i", ("x", "y"), {"x": TRUE, "y": Atom("q")})
    env = env_of([g, h])
    f = Ought("i", (("G", "x"),), Ought("i", (("H", "y"),), Atom("p")))
    tr = translate(f, env)
    rules = [s.rule for s in tr.steps if s.obligation_step]
    assert rules[0] == "R6"
    assert tr.certified
    assert not contains_ought(tr.result)
    # the joined trace shows up in an expectation atom over G.x;H.y
    assert "e{i; G.x;H.y}" in to_text(tr.result)


def test_cross_agent_bodies_route_through_the_run(allergy):
    _, env = allergy
    tr = _tr("O{b}(U.delta | O{a}(U2.beta | K{a} A))", env)
    obligation_rules = [s.rule for s in tr.steps if s.obligation_step]
    assert obligation_rules[0] == "O-X"
    assert "O-K" in obligation_rules
    assert tr.certified
    for step in tr.obligation_steps:
        assert step.c_after < step.c_before


def test_every_obligation_step_is_logged_with_complexities(allergy):
    _, env = allergy
    tr = _tr("O{b}(U.delta | (A & !A))", env)
    for step in tr.steps:
        assert step.c_before > 0 and step.c_after > 0
        assert step.before and step.after
    assert any(s.rule == "R2" for s in tr.steps)


def test_q_event_alternatives(allergy):
    _, env = allergy
    # identity relations: the only alternative is the trace itself
    assert q_event_alternatives((("U", "delta"),), "a", env) == [(("U", "delta"),)]
    blur = DecisionPoint(
        "B", "i", ("x", "y"),
        {"x": TRUE, "y": TRUE},
        relations={"j": {("x", "y")}},
        agents=["i", "j"],
    )
    env2 = env_of([blur])
    assert q_event_alternatives((("B", "x"),), "j", env2) == [
        (("B", "x"),),
        (("B", "y"),),
    ]
    # unmentioned agents default to identity
    assert q_event_alternatives((("B", "x"),), "z", env2) == [(("B", "x"),)]


def test_inexpressible_corner_raises(allergy):
    model, env = allergy
    f = parse("<U.delta> e{b; U.delta}", env)
    # direct evaluation is perfectly defined ...
    assert isinstance(evaluate_plain(model, "w2", f, env), bool)
    # ... but the rewrite would need the trace U.delta;U.delta
    with pytest.raises(ValidationError):
        translate(f, env)


def test_junction_in_obligation_body_raises(allergy):
    _, env = allergy
    f = Ought("b", (("U", "delta"),), ExpAtom("b", (("U", "gamma"),)))
    with pytest.raises(ValidationError):
        translate(f, env)


def test_unknown_event_is_an_input_error(allergy):
    _, env = allergy
    with pytest.raises(UnknownEvent):
        translate(Diamond((("W", "x"),), TRUE), env)


@pytest.mark.parametrize("via", ["translate", "complexity", "evaluate_plain"])
@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("unknown", ["point", "event"])
@pytest.mark.parametrize("form", ["diamond", "obligation"])
def test_unknown_step_of_a_run_raises_unknown_event(allergy, via, position, unknown, form):
    model, env = allergy
    steps = [("U", "delta"), ("U2", "alpha")]
    dp_id = steps[position][0]
    steps[position] = ("X", "a") if unknown == "point" else (dp_id, "zz")
    steps = tuple(steps)
    f = Diamond(steps, Atom("A")) if form == "diamond" else Ought("a", steps, Atom("A"))
    with pytest.raises(UnknownEvent):
        if via == "translate":
            translate(f, env)
        elif via == "complexity":
            complexity(f, env)
        else:
            evaluate_plain(model, "w1", f, env)


def test_unknown_mode(allergy):
    _, env = allergy
    with pytest.raises(ValidationError):
        translate(TRUE, env, mode="fancy")


def test_budget_exhaustion(allergy):
    _, env = allergy
    f = parse("O{b}(U.delta | O{a}(U2.beta | K{a} A))", env)
    with pytest.raises(NonTermination):
        translate(f, env, budget=3)


def test_fidelity_on_random_instances():
    """Thirty model/formula pairs: the translation evaluates exactly like
    the original at every world where either is defined."""
    rng = random.Random(606)
    params = GenParams(max_worlds=5)
    done = 0
    while done < 30:
        m = gen_model(rng, params)
        try:
            env = {}
            env["U"] = gen_decision_point(rng, m, "U", params, env=env)
            env["V"] = gen_decision_point(rng, m, "V", params, env=env)
        except Unsatisfiable:
            continue
        f = gen_formula(rng, m, env, depth=3)
        try:
            out = translate(f, env)
        except ValidationError:
            continue
        assert out.certified
        for w in m.worlds:
            try:
                a = evaluate_plain(m, w, f, env)
            except CheckerError:
                a = "error"
            try:
                b = evaluate_plain(m, w, out.result, env)
            except CheckerError:
                b = "error"
            if a == "error" and b == "error":
                continue
            assert a == b, f"{to_text(f)} at {w}"
        done += 1
