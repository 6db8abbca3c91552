"""The rewrite certificate's measure: one visit per node, no depth limit.

`translate` logs c(before) and c(after) at every step.  The package measures
each node once per translation, on its own stack; `oracles.o_complexity`
is the recursive, unmemoised statement of the same measure, and every
logged step must agree with it exactly.
"""

import random

import pytest

from oracles import o_complexity
from oughtcheck import reduce
from oughtcheck.actions import DecisionPoint, env_of
from oughtcheck.errors import Unsatisfiable, ValidationError
from oughtcheck.formula import (
    And,
    Atom,
    Know,
    Not,
    Ought,
    TRUE,
    _Measure,
    big_and,
    complexity,
)
from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model
from oughtcheck.parser import parse
from oughtcheck.scenarios import allergy_model

HEADLINE = "O{b}(U.delta | O{a}(U2.beta | K{a} A))"

# the formulas tests/test_reduce.py translates in the allergy scenario
ALLERGY_TEXTS = (
    "p", "true", "!A", "(A & d)", "K{a} A", "e{a; U2.beta}",
    "O{a}(U2.beta | p)",
    HEADLINE,
    "O{b}(U.delta | !A)",
    "<U.delta> K{a} A",
    "O{b}(U.gamma | <U2.alpha> d)",
    "K{b} <U.delta> O{a}(U2.beta | K{a} A)",
    "<U.delta> p",
    "<U.delta> e{a; U2.beta}",
    "<U.delta> K{b} A",
    "<U.delta> <U2.alpha> p",
    "O{b}(U.delta | !d)",
    "O{a}(U2.beta | K{a} A)",
    "O{b}(U.delta | (A & !A))",
)


@pytest.fixture(scope="module")
def allergy_env():
    return env_of(allergy_model()[1])


def reference_steps(f, env, mode):
    """Each step `translate` logs, with both sides measured by the oracle.
    `log` makes each distinct step, and a node met again appends its steps
    again without calling it, so each step is measured where `log` makes
    it and read off the rewriter's full list of steps."""
    seen = {}

    class Recording(reduce._Rewriter):
        def log(self, rule, before, after):
            super().log(rule, before, after)
            c_before, c_after = o_complexity(before, env), o_complexity(after, env)
            seen[id(self.steps[-1])] = (rule, c_before, c_after, isinstance(before, Ought))

    rw = Recording(env, mode, 100_000)
    rw.rec(f)
    return [seen[id(s)] for s in rw.steps]


def logged_steps(f, env, mode):
    tr = reduce.translate(f, env, mode)
    return [(s.rule, s.c_before, s.c_after, s.obligation_step) for s in tr.steps]


@pytest.mark.parametrize("mode", reduce.MODES)
def test_logged_steps_match_the_recursive_measure(allergy_env, mode):
    g = DecisionPoint("G", "i", ("x", "y"), {"x": Atom("p"), "y": TRUE})
    h = DecisionPoint("H", "i", ("x", "y"), {"x": TRUE, "y": Atom("q")})
    cases = [(parse(text, allergy_env), allergy_env) for text in ALLERGY_TEXTS]
    joined = Ought("i", (("G", "x"),), Ought("i", (("H", "y"),), Atom("p")))
    cases.append((joined, env_of([g, h])))
    logged = 0
    for f, env in cases:
        want = reference_steps(f, env, mode)
        assert logged_steps(f, env, mode) == want
        logged += len(want)
    assert logged > 40


@pytest.mark.parametrize("mode", reduce.MODES)
def test_random_instances_log_the_recursive_measure(mode):
    """The fidelity test's random instances (same seed and generator)."""
    rng = random.Random(606)
    params = GenParams(max_worlds=5)
    done = logged = 0
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
            want = reference_steps(f, env, mode)
        except ValidationError:
            with pytest.raises(ValidationError):
                reduce.translate(f, env, mode)
            continue
        assert logged_steps(f, env, mode) == want
        assert complexity(f, env) == o_complexity(f, env)
        logged += len(want)
        done += 1
    assert logged > 100


def test_deep_chains_measure_exactly():
    p = Atom("p")
    chain = p
    for _ in range(20_000):
        chain = And(p, chain)
    assert complexity(chain, {}) == 20_001
    assert complexity(big_and([Atom(f"p{k}") for k in range(3_000)]), {}) == 3_000
    chain = p
    for _ in range(10_000):
        chain = Know("a", Not(chain))
    assert complexity(chain, {}) == 20_001


class _Marked(Atom):
    __slots__ = ()


class _Doubled(Not):
    __slots__ = ()


def test_a_node_subclass_measures_as_its_node_class():
    assert complexity(_Doubled(And(_Marked("p"), Not(Atom("q")))), {}) == 4
    with pytest.raises(TypeError):
        complexity(Not("p"), {})


def test_translation_measures_each_node_once(allergy_env, monkeypatch):
    """A work gate, counted rather than timed: over the whole headline
    translation no node object has its value stored twice."""
    stores = {}

    class Counting(dict):
        def __setitem__(self, key, c):
            stores[key] = stores.get(key, 0) + 1
            super().__setitem__(key, c)

    class CountingMeasure(_Measure):
        __slots__ = ()

        def __init__(self, env):
            super().__init__(env)
            self._value = Counting()

    monkeypatch.setattr(reduce, "_Measure", CountingMeasure)
    tr = reduce.translate(parse(HEADLINE, allergy_env), allergy_env)
    assert len(tr.steps) == 19
    for s in tr.steps:
        s.c_before, s.c_after
    assert stores and max(stores.values()) == 1


def test_the_certificate_is_measured_when_first_read(allergy_env, monkeypatch):
    """A work gate, counted: translating stores no weight and builds no
    measure; the first read builds one and measures every step with it;
    `obligation_clause` never builds one."""
    built = []

    class CountingMeasure(_Measure):
        __slots__ = ()

        def __init__(self, env):
            super().__init__(env)
            built.append(self)

    monkeypatch.setattr(reduce, "_Measure", CountingMeasure)
    f = parse(HEADLINE, allergy_env)
    tr = reduce.translate(f, allergy_env)
    assert reduce.obligation_clause(f, allergy_env)[0] == "O-X"
    assert len(tr.steps) == 19 and built == []
    assert tr.steps[-1].c_after > 0
    (measure,) = built
    stored = len(measure._value)
    assert stored > 0
    assert [s.c_before for s in tr.steps][:3] == [72, 12, 10]
    assert tr.certified and len(built) == 1 and len(measure._value) == stored
    # the nodes, the env snapshot and the measure are let go once read
    certificate = tr.steps[0]._certificate
    assert certificate.sides is None and certificate.env is None
    # one weight per distinct step: a replayed step is the same object
    assert len(certificate.weights) == len({id(s) for s in tr.steps}) == 17
