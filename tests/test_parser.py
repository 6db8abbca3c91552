"""Parser: golden forms, sugar lowering, validation against declarations,
and the print/parse round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from oughtcheck.actions import DecisionPoint, env_of
from oughtcheck.errors import CheckerError, ParseError, UnknownEvent, ValidationError
from oughtcheck.formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExpAtom,
    FALSE,
    Implies,
    Know,
    Not,
    Or,
    Ought,
    TRUE,
    to_text,
)
from oughtcheck.parser import parse
from oughtcheck.scenarios import allergy_model


@pytest.fixture(scope="module")
def allergy_env():
    _, points = allergy_model()
    return env_of(points)


def test_constants_and_atoms():
    assert parse("true") == TRUE
    assert parse("false") == FALSE
    assert parse("rain") == Atom("rain")
    assert parse("d'") == Atom("d'")
    # K and e are plain atoms unless a brace follows
    assert parse("K") == Atom("K")
    assert parse("e & O") == And(Atom("e"), Atom("O"))


def test_connective_precedence():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse("!p & q") == And(Not(p), q)
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p | q -> r") == Implies(Or(p, q), r)
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p & q & r") == And(And(p, q), r)
    assert parse("(p | q) & r") == And(Or(p, q), r)
    # one table: -> groups to the right, & and | to the left
    s, t = Atom("s"), Atom("t")
    assert parse("p | q | r") == Or(Or(p, q), r)
    assert parse("p -> q | r & s") == Implies(p, Or(q, And(r, s)))
    assert parse("p & q -> r | s -> t") == Implies(And(p, q), Implies(Or(r, s), t))
    assert parse("!p & K{i} q | r") == Or(And(Not(p), Know("i", q)), r)
    assert parse("O{i}(U.go | p -> q | r)") == Ought("i", (("U", "go"),), Implies(p, Or(q, r)))


def test_modalities():
    p = Atom("p")
    assert parse("K{a} p") == Know("a", p)
    assert parse("K{a} K{b} !p") == Know("a", Know("b", Not(p)))
    assert parse("<U.go> p") == Diamond((("U", "go"),), p)
    assert parse("[U.go] p") == Box((("U", "go"),), p)
    assert parse("<U.go;V.stay> p") == Diamond((("U", "go"), ("V", "stay")), p)
    assert parse("e{i; U.go}") == ExpAtom("i", (("U", "go"),))
    assert parse("O{i}(U.go | p & q)") == Ought("i", (("U", "go"),), And(p, Atom("q")))


def test_prefixes_bind_tighter_than_binaries():
    p, q = Atom("p"), Atom("q")
    assert parse("K{a} p & q") == And(Know("a", p), q)
    assert parse("<U.go> p | q") == Or(Diamond((("U", "go"),), p), q)
    assert parse("!<U.go> p") == Not(Diamond((("U", "go"),), p))


def test_headline_two_agent_formula(allergy_env):
    f = parse("O{b}(U.delta | O{a}(U2.beta | K{a} A))", allergy_env)
    assert f == Ought(
        "b",
        (("U", "delta"),),
        Ought("a", (("U2", "beta"),), Know("a", Atom("A"))),
    )
    assert to_text(f) == "O{b}(U.delta | O{a}(U2.beta | K{a} A))"


def test_syntax_errors():
    for bad in ("", "(p", "p q", "p &", "<U> p", "O{i}(U.a & p)", "e{i U.a}"):
        with pytest.raises(ParseError):
            parse(bad)


def test_trace_junction_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("<U.a;U.b> p")


def test_env_validates_steps(allergy_env):
    with pytest.raises(UnknownEvent):
        parse("<W.x> p", allergy_env)
    with pytest.raises(UnknownEvent):
        parse("<U.launch> p", allergy_env)
    # without an environment the same text goes through
    assert parse("<W.x> p") == Diamond((("W", "x"),), Atom("p"))


def test_env_validates_ownership(allergy_env):
    # U belongs to b, U2 to a
    with pytest.raises(ValidationError):
        parse("O{a}(U.delta | true)", allergy_env)
    with pytest.raises(ValidationError):
        parse("e{b; U2.beta}", allergy_env)
    parse("O{b}(U.delta | true)", allergy_env)
    parse("e{a; U2.beta}", allergy_env)


# --- round trip ----------------------------------------------------------------

_ATOMS = st.sampled_from(["p", "q", "rain", "s10", "d'"])
_AGENTS = st.sampled_from(["i", "j", "a", "b2"])
_EVENTS = st.sampled_from(["go", "stay", "x1"])
_DPS = ["U", "V", "W2"]


@st.composite
def _traces(draw):
    n = draw(st.integers(1, 3))
    steps = []
    prev = None
    for _ in range(n):
        dp = draw(st.sampled_from([d for d in _DPS if d != prev]))
        steps.append((dp, draw(_EVENTS)))
        prev = dp
    return tuple(steps)


_LEAVES = st.one_of(
    st.just(TRUE),
    st.just(FALSE),
    _ATOMS.map(Atom),
    st.builds(ExpAtom, _AGENTS, _traces()),
)


def _compound(kids):
    return st.one_of(
        kids.map(Not),
        st.builds(And, kids, kids),
        st.builds(Know, _AGENTS, kids),
        st.builds(Diamond, _traces(), kids),
        st.builds(Ought, _AGENTS, _traces(), kids),
    )


_FORMULAS = st.recursive(_LEAVES, _compound, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS)
def test_parse_inverts_print(f):
    text = to_text(f)
    again = parse(text)
    assert again == f
    assert to_text(again) == text


# --- fuzzing: any text parses or raises a CheckerError ---------------------------

_SOUP_ENV = {"U": DecisionPoint("U", "i", ["a", "b"], {"a": Atom("p"), "b": TRUE})}
_SOUP_TOKENS = (
    "true", "false", "p", "q", "i", "j", "U", "V", "a", "b", "c", "K", "e", "O",
    "!", "&", "|", "->", "(", ")", "{", "}", "<", ">", "[", "]", ";", ".", "-", "'",
)
_SOUP = st.builds(
    lambda sep, toks: sep.join(toks),
    st.sampled_from(["", " "]),
    st.lists(st.sampled_from(_SOUP_TOKENS), max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), _SOUP), st.booleans())
def test_parse_fuzz_raises_only_checker_errors(text, with_env):
    try:
        parse(text, _SOUP_ENV if with_env else None)
    except CheckerError:
        pass


@pytest.mark.parametrize(
    "text, message",
    [
        ("p q", "trailing input 'q' in 'p q'"),
        ("(p & q", "unexpected end of input in '(p & q'"),
        ("K{1} p", "expected an agent name but found '1' in 'K{1} p'"),
        ("p & & q", "unexpected '&' in 'p & & q'"),
        ("<U.a p", "expected '>' but found 'p' in '<U.a p'"),
        ("(p & q" + " " * 250, f"unexpected end of input in {'(p & q' + ' ' * 250!r}"),
        ("p " + "x" * 60, f"trailing input {'x' * 60!r} in {'p ' + 'x' * 60!r}"),
    ],
)
def test_a_short_text_is_quoted_whole(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "p " * 500000,
            f"trailing input 'p' in {'p ' * 21!r}... (at character 2 of 1000000)",
        ),
        (
            "p" + " " * 200 + "q" + " " * 200,
            f"trailing input 'q' in ...{' ' * 40 + 'q' + ' ' * 39!r}... (at character 201 of 402)",
        ),
        (
            "p " + "x" * 10**6,
            f"trailing input {'x' * 40!r}... in {'p ' + 'x' * 40!r}... (at character 2 of 1000002)",
        ),
        (
            "(p & " + " " * 300,
            f"unexpected end of input in ...{' ' * 40!r} (at character 305 of 305)",
        ),
    ],
)
def test_a_long_text_is_quoted_around_the_failing_token(text, message):
    """A ParseError quotes at most 40 characters on either side of where the
    failing token starts, and of the token, and says where it starts: the
    message of a text of 10^6 characters stays short."""
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message and len(message) < 160
