"""The world-key rule: a key is an updated world's exactly when it is a pair
whose second item is a non-empty tuple, and any other key is a base world's.
trace_of states it; base_of, extend_world and the product follow it."""

from collections import namedtuple

from hypothesis import given, settings, strategies as st

from oughtcheck.actions import DecisionPoint
from oughtcheck.formula import Atom, Ought, TRUE
from oughtcheck.kripke import GradedKripkeModel, base_of, extend_world, trace_of, world_id
from oughtcheck.product import product
from oughtcheck.semantics import evaluate, evaluate_plain

Pair = namedtuple("Pair", "base trace")

_BASES = st.text(alphabet="uvw", min_size=1, max_size=3)
_STEPS = st.lists(
    st.tuples(st.sampled_from("UV"), st.sampled_from("ab")), min_size=1, max_size=3
).map(tuple)
_KEYS = st.one_of(
    _BASES,
    _BASES.map(lambda b: (b, ())),
    st.tuples(_BASES, _STEPS),
    st.tuples(_BASES.map(lambda b: (b, ())), _STEPS),
    st.tuples(_BASES, _BASES, _BASES),
    st.tuples(_BASES, st.just("x")),
    st.builds(Pair, _BASES, _STEPS | st.just(())),
)


@settings(max_examples=300, deadline=None)
@given(_KEYS, _STEPS)
def test_extend_world_follows_the_rule_of_trace_of(key, steps):
    out = extend_world(key, steps)
    assert trace_of(out) == trace_of(key) + steps
    assert base_of(out) == base_of(key)


def test_a_pair_with_an_empty_trace_is_a_base_key():
    assert trace_of(("w", ())) == ()
    assert base_of(("w", ())) == ("w", ())
    assert extend_world(("w", ()), (("U", "x"),)) == (("w", ()), (("U", "x"),))


def _empty_trace_model():
    worlds = [("w", ()), "v"]
    return GradedKripkeModel(
        agents=["i"],
        atoms=["p"],
        worlds=worlds,
        relations={"i": {w: set(worlds) for w in worlds}},
        valuation={("w", ()): set(), "v": {"p"}},
        desirability={("w", ()): 1, "v": 2},
        frame="S5",
    )


U = DecisionPoint("U", "i", ["x", "y"], {"x": TRUE, "y": Atom("p")})
ENV = {"U": U}


def test_updating_a_base_world_keyed_with_an_empty_trace():
    m = _empty_trace_model()
    w = ("w", ())
    pm = product(m, U)
    assert pm.worlds == (
        (w, (("U", "x"),)),
        ("v", (("U", "x"),)),
        ("v", (("U", "y"),)),
    )
    assert all(m.has_world(base_of(pw)) for pw in pm.worlds)
    assert world_id(pm.worlds[0]) == "('w', ())@U.x"
    assert world_id(w) == "('w', ())"


def test_an_obligation_at_a_base_world_keyed_with_an_empty_trace():
    m = _empty_trace_model()
    w = ("w", ())
    # U.x's component at w is worth (1 + 2) / 2; its rival v@U.y is worth 2
    assert not evaluate_plain(m, w, Ought("i", (("U", "x"),), TRUE), ENV)
    assert evaluate_plain(m, "v", Ought("i", (("U", "y"),), TRUE), ENV)
    v = evaluate(m, w, Ought("i", (("U", "x"),), TRUE), ENV)
    assert not v.holds and v.where == "('w', ())"
    values = v.children[-1].values
    assert values["instance"] == "('w', ())@U.x"
    assert values["rivals"] == {"v@U.y": 2}
