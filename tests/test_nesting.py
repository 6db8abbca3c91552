"""The nesting limit: formula.MAX_DEPTH, checked where formulas come in.

The parser counts nesting while it reads and refuses a text past the limit
with ParseError; evaluate_plain, evaluate, holds_globally and translate
refuse an AST built in code past it with ValidationError, measured only
after a RecursionError; DecisionPoint refuses such a precondition.  A
formula exactly at the limit goes through every walk.  translate counts a
run's steps against the limit too, as it unfolds a run one step per level;
evaluation runs the steps one after another and takes a run of any length.
"""

import copy
import json
import pickle
import re
from pathlib import Path

import pytest

import oughtcheck.semantics as semantics
from oughtcheck.actions import DecisionPoint, env_of
from oughtcheck.errors import CheckerError, ParseError, ValidationError
from oughtcheck.formula import (
    MAX_DEPTH, TRUE, And, Atom, Box, Diamond, ExpAtom, Implies, Know, Not, Or, Ought, depth, to_text,
)
from oughtcheck.kripke import GradedKripkeModel
import oughtcheck.parser as parser
from oughtcheck.parser import _TOKEN, _Nested, _Parser, _Pulled, parse
from oughtcheck.reduce import translate
from oughtcheck.scenarios import allergy_model
from oughtcheck.semantics import evaluate, evaluate_plain, holds_globally

A = Atom("A")
BENCH = Path(__file__).resolve().parents[1] / "bench" / "expected" / "formula-batch.json"


@pytest.fixture(scope="module")
def allergy():
    model, points = allergy_model()
    return model, env_of(points)


def chain(n, wrap=Not, leaf=A):
    f = leaf
    for _ in range(n):
        f = wrap(f)
    return f


def test_depth_counts_operators_on_the_longest_branch():
    assert depth(A) == depth(TRUE) == depth(ExpAtom("b", (("U", "delta"),))) == 0
    assert depth(Not(A)) == depth(Know("a", A)) == depth(Diamond((("U", "x"),), A)) == 1
    assert depth(Ought("b", (("U", "x"),), Not(A))) == 2
    assert depth(And(Not(Not(A)), A)) == 3
    assert depth(Or(A, A)) == depth(Box((("U", "x"),), A)) == 3
    assert depth(Implies(A, Not(A))) == 4


def test_depth_keeps_its_own_stack_and_measures_shared_nodes_once():
    assert depth(chain(50_000)) == 50_000
    shared = A
    for _ in range(200):  # 2**200 branches, 201 distinct nodes
        shared = And(shared, shared)
    assert depth(shared) == 200


_TEXTS = {
    "not": lambda n: "!" * n + "A",
    "know": lambda n: "K{a} " * n + "A",
    "diamond": lambda n: "<U.gamma> " * (n % 2) + "<U.gamma> <U2.beta> " * (n // 2) + "A",
    "and-left": lambda n: " & ".join(["A"] * (n + 1)),
    "and-right": lambda n: "(A & " * n + "A" + ")" * n,
    "or": lambda n: "!" * (n % 3) + " | ".join(["A"] * (n // 3 + 1)),
    "implies": lambda n: "A -> " * (n // 3) + "!" * (n % 3) + "A",
    "box": lambda n: "[U.gamma] [U2.beta] " * (n // 6) + "[U.gamma] " * (n % 6 // 3) + "!" * (n % 3) + "A",
    "ought": lambda n: "O{b}(U.gamma | " + "!" * (n - 1) + "A)",
}


@pytest.mark.parametrize("kind", sorted(_TEXTS))
def test_parse_takes_the_limit_and_refuses_one_more(kind, allergy):
    _, env = allergy
    make = _TEXTS[kind]
    f = parse(make(MAX_DEPTH), env)
    assert depth(f) == MAX_DEPTH
    assert parse(to_text(f), env) == f
    with pytest.raises(ParseError, match=f"more than {MAX_DEPTH} levels deep, the nesting limit"):
        parse(make(MAX_DEPTH + 1), env)


def test_parentheses_count_up_to_the_limit():
    assert parse("(" * MAX_DEPTH + "A" + ")" * MAX_DEPTH) == A
    with pytest.raises(ParseError, match="parentheses nest more than"):
        parse("(" * (MAX_DEPTH + 1) + "A" + ")" * (MAX_DEPTH + 1))


@pytest.mark.parametrize("n", [1000, 3000, 100_000])
def test_a_deep_text_is_refused_without_recursing(n):
    for text in ("!" * n + "A", "(" * n, " & ".join(["A"] * n), "A -> " * n + "A"):
        with pytest.raises(ParseError, match="nesting limit"):
            parse(text)


class _CountingTokens:
    """Stands in for the parser's token pattern and counts what it reads."""

    def __init__(self):
        self.read = 0

    def finditer(self, text):
        for m in _TOKEN.finditer(text):
            self.read += 1
            yield m

    def findall(self, text):
        raise AssertionError("a long text was tokenised all at once")


@pytest.mark.parametrize("kind", sorted(_TEXTS))
def test_a_long_deep_text_is_refused_after_reading_up_to_the_limit(kind, allergy, monkeypatch):
    """A work gate, counted: a text of a million characters or more that
    nests too deeply is refused after reading at most 6 tokens per level
    of the limit, whatever its length."""
    _, env = allergy
    text = _TEXTS[kind](10**6)
    assert len(text) >= 10**6
    tokens = _CountingTokens()
    monkeypatch.setattr(parser, "_TOKEN", tokens)
    with pytest.raises(ParseError, match=f"more than {MAX_DEPTH} levels deep, the nesting limit"):
        parse(text, env)
    assert 0 < tokens.read <= 6 * MAX_DEPTH


def test_the_counting_parser_reads_every_pool_text_as_the_plain_one():
    """Both parsers give the same AST, and so does the counting parser
    reading tokens as it goes; the pool's texts are all short, so the
    counting parser and the lazy tokens are forced here."""
    pool = json.loads(BENCH.read_text(encoding="utf-8"))
    texts = [t for entry in pool["models"] for t in entry["formulas"]]
    assert len(texts) == 800
    for text in texts:
        toks = _TOKEN.findall(text) + [None]
        plain = _Parser(text, toks, None).parse()
        assert _Nested(text, toks, None).parse() == plain
        assert _Nested(text, _Pulled(text), None).parse() == plain


def test_an_ast_past_the_limit_is_refused_at_every_entry(allergy):
    model, env = allergy
    deep = chain(2000)
    message = f"formula nests 2000 levels deep, past the nesting limit of {MAX_DEPTH}"
    for call in (
        lambda: evaluate_plain(model, "w1", deep, env),
        lambda: evaluate(model, "w1", deep, env),
        lambda: holds_globally(model, deep, env),
        lambda: translate(deep, env),
    ):
        with pytest.raises(ValidationError, match=message):
            call()


def test_a_recursion_error_within_the_limit_is_a_bug(allergy, monkeypatch):
    model, env = allergy

    def overflow(*args):
        raise RecursionError("a walk that never ends")

    monkeypatch.setattr(semantics, "_walk", overflow)
    with pytest.raises(RecursionError):
        evaluate_plain(model, "w1", A, env)
    with pytest.raises(RecursionError):
        evaluate(model, "w1", A, env)


def test_a_precondition_past_the_limit_is_refused():
    ok = DecisionPoint("U", "a", ["x", "y"], {"x": chain(MAX_DEPTH), "y": TRUE})
    assert depth(ok.pre["x"]) == MAX_DEPTH
    with pytest.raises(ValidationError, match=f"precondition of U.x nests past the nesting limit"):
        DecisionPoint("U", "a", ["x", "y"], {"x": chain(MAX_DEPTH + 1), "y": TRUE})


_AT_LIMIT = [
    "!" * MAX_DEPTH + "A",
    "K{a} " * MAX_DEPTH + "A",
    "(A & " * MAX_DEPTH + "A" + ")" * MAX_DEPTH,
    "<U.gamma> " + "K{a} " * (MAX_DEPTH - 1) + "A",
    "O{b}(U.gamma | " + "K{a} " * (MAX_DEPTH - 1) + "A)",
    "O{b}(U.gamma | " + "!" * (MAX_DEPTH - 1) + "A)",
]


@pytest.mark.parametrize("text", _AT_LIMIT, ids=range(len(_AT_LIMIT)))
def test_a_formula_at_the_limit_goes_through_every_walk(text):
    """From a test's stack, which is deeper than the CLI's: evaluation,
    plain and explained, translation, and every walk over both the formula
    and the translation's output."""
    model, points = allergy_model()
    env = env_of(points)
    f = parse(text, env)
    assert depth(f) == MAX_DEPTH
    assert f == parse(text, env) and hash(f) == hash(parse(text, env))
    assert copy.deepcopy(f) == f == pickle.loads(pickle.dumps(f))
    assert to_text(f) == text
    verdict = evaluate(model, "w2", f, env)
    assert verdict.holds == evaluate_plain(model, "w2", f, env)
    assert verdict.pretty()
    try:
        holds_globally(model, f, env)
    except CheckerError:
        pass  # a verdict or a checked error, but no RecursionError
    out = translate(f, env).result
    assert depth(out) < 5 * MAX_DEPTH
    assert to_text(out)
    assert evaluate(model, "w2", out, env).holds == verdict.holds
    assert evaluate_plain(model, "w2", out, env) == verdict.holds


def _deeper(frames, call):
    """call(), run `frames` frames deeper than the caller."""
    return call() if frames == 0 else _deeper(frames - 1, call)


def test_the_deepest_output_compares_hashes_and_copies():
    """translate's output for <U.gamma> K{a}^63 A nests 316 deep, five times
    its input.  ==, hash and copies of it read no field, as equal nodes are
    one object, so they finish even 600 frames deeper than a test's stack
    (a walk over the fields took about 950 frames)."""
    model, points = allergy_model()
    env = env_of(points)
    text = "<U.gamma> " + "K{a} " * (MAX_DEPTH - 1) + "A"
    out = translate(parse(text, env), env).result
    assert depth(out) > 4 * MAX_DEPTH
    again = translate(parse(text, env), env).result
    assert out is again
    assert _deeper(600, lambda: out == again and hash(out) == hash(again))
    assert _deeper(600, lambda: copy.deepcopy(out) is out and copy.copy(out) is out)
    assert _deeper(600, lambda: {out: 1}[again] == 1)
    assert pickle.loads(pickle.dumps(out)) is out


def test_readme_states_the_limit():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"nest at most \*\*(\d+)\*\* levels", readme)
    assert stated == [str(MAX_DEPTH)]


def _long_run(n):
    """n steps alternating between U (owned by a) and V (owned by b)."""
    return tuple(("U" if k % 2 == 0 else "V", "x") for k in range(n))


@pytest.fixture(scope="module")
def two_points():
    """U and V, whose event x is always available and y never, so a run of
    x steps keeps every world and grows no model; and a two-world model."""
    points = [
        DecisionPoint(dp, owner, ["x", "y"], {"x": TRUE, "y": Not(TRUE)}, agents=["a", "b"])
        for dp, owner in (("U", "a"), ("V", "b"))
    ]
    model = GradedKripkeModel(
        agents=["a", "b"], atoms=["A"], worlds=["w1", "w2"],
        relations={a: {"w1": {"w1", "w2"}, "w2": {"w1", "w2"}} for a in ("a", "b")},
        valuation={"w1": {"A"}, "w2": set()}, desirability={"w1": 1, "w2": 0}, frame="S5",
    )
    return model, env_of(points)


def test_translate_takes_a_run_at_the_limit(two_points):
    _, env = two_points
    out = translate(Diamond(_long_run(MAX_DEPTH), A), env).result
    assert depth(out) == MAX_DEPTH
    with pytest.raises(ValidationError, match=f"past the nesting limit of {MAX_DEPTH}"):
        translate(Diamond(_long_run(MAX_DEPTH + 1), A), env)


@pytest.mark.parametrize("n", [800, 1500])
def test_translate_refuses_a_long_run_that_evaluation_takes(two_points, n):
    """translate unfolds a run one step per level, so a run past the limit
    is bad input there (at 800 steps it used to overflow the stack), while
    evaluation runs the steps one after another and takes it."""
    model, env = two_points
    run = _long_run(n)
    owner = "b" if n % 2 == 0 else "a"
    message = f"a run of {n} steps unfolds {n} levels deep, past the nesting limit of {MAX_DEPTH}"
    for f in (Diamond(run, A), Ought(owner, run, A), Not(And(A, Diamond(run, Not(A))))):
        with pytest.raises(ValidationError, match=message):
            translate(f, env)
    f = Diamond(run, A)
    assert evaluate_plain(model, "w1", f, env) is True
    assert evaluate_plain(model, "w2", f, env) is False
    assert evaluate(model, "w1", f, env).holds is True
