"""One translation rewrites each distinct node once.

`reduce._Rewriter.rec` keeps each node's rewrite for the rest of the
translation and, when the node comes again, appends the steps it logged the
first time.  `Unmemoised` below forgets every rewrite, so it does what the
rewriter did before the memo: every check here compares the two.
"""

import random

import pytest

from oughtcheck import reduce
from oughtcheck.actions import DecisionPoint, env_of
from oughtcheck.errors import NonTermination, Unsatisfiable, ValidationError
from oughtcheck.formula import And, Atom, Diamond, Know, Not, Ought, TRUE, distinct_nodes
from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model
from oughtcheck.parser import parse
from oughtcheck.scenarios import allergy_model
from test_measure import ALLERGY_TEXTS, HEADLINE
from test_reduce import NESTING, _nested


class _Forgetful(dict):
    def __setitem__(self, node, rewrite):
        pass


class Unmemoised(reduce._Rewriter):
    def __init__(self, env, mode, budget):
        super().__init__(env, mode, budget)
        self.done = _Forgetful()


def outcome(rewriter, f, env, mode="standard", budget=100_000):
    """result, each step's (rule, c_before, c_after, obligation_step), and
    `certified`; or the class and text of the error raised."""
    rw = rewriter(env, mode, budget)
    try:
        tr = reduce.Translation(rw.rec(f), rw.steps)
    except (ValidationError, NonTermination) as exc:
        return type(exc), str(exc)
    log = [(s.rule, s.c_before, s.c_after, s.obligation_step) for s in tr.steps]
    return tr.result, log, tr.certified


def family_env():
    """U owned by a and V owned by b, each with events x (precondition
    true) and y (precondition p); the agent that does not own a point
    cannot tell its events apart."""
    return env_of([
        DecisionPoint(
            dp, owner, ["x", "y"], {"x": TRUE, "y": Atom("p")},
            relations={blind: {("x", "y"), ("y", "x")}}, agents=["a", "b"],
        )
        for dp, owner, blind in (("U", "a", "b"), ("V", "b", "a"))
    ])


def family(n):
    """f_0 = p, f_{k+1} = <X.x> K{j} (f_k & p): X alternates between U and
    V, and j cannot tell X's events apart, so D-K copies each level's body
    once per alternative."""
    f = p = Atom("p")
    for k in range(n):
        dp, j = ("U", "b") if k % 2 == 0 else ("V", "a")
        f = Diamond(((dp, "x"),), Know(j, And(f, p)))
    return f


@pytest.fixture(scope="module")
def allergy_env():
    return env_of(allergy_model()[1])


def _allergy_instances(env):
    """tests/test_reduce.py's instances: its texts, the inexpressible
    corner and a step nested under each rule that rewrites a body first."""
    for text in ALLERGY_TEXTS + ("<U.delta> e{b; U.delta}",):
        yield parse(text, env), env
    for context in NESTING:
        yield _nested(context, Diamond((("U", "delta"), ("U2", "alpha")), Atom("A"))), env
    g = DecisionPoint("G", "i", ("x", "y"), {"x": Atom("p"), "y": TRUE})
    h = DecisionPoint("H", "i", ("x", "y"), {"x": TRUE, "y": Atom("q")})
    yield Ought("i", (("G", "x"),), Ought("i", (("H", "y"),), Atom("p"))), env_of([g, h])


@pytest.mark.parametrize("mode", reduce.MODES)
def test_allergy_instances_match_the_unmemoised_rewriter(allergy_env, mode):
    replayed = 0
    for f, env in _allergy_instances(allergy_env):
        want = outcome(Unmemoised, f, env, mode)
        assert outcome(reduce._Rewriter, f, env, mode) == want, f
        if isinstance(want[0], type):
            continue
        steps = reduce.translate(f, env, mode).steps
        replayed += len(steps) - len({id(s) for s in steps})
    assert replayed > 0


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
@pytest.mark.parametrize("mode", reduce.MODES)
def test_random_instances_match_the_unmemoised_rewriter(frame, mode):
    """The fidelity test's generator and seed, in each frame."""
    rng = random.Random(606)
    params = GenParams(max_worlds=5, frame=frame)
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
        assert outcome(reduce._Rewriter, f, env, mode) == outcome(Unmemoised, f, env, mode)
        done += 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_alternating_family_matches_the_unmemoised_rewriter(n):
    env = family_env()
    want = outcome(Unmemoised, family(n), env)
    assert outcome(reduce._Rewriter, family(n), env) == want
    assert want[2] is True


def test_the_alternating_family_still_exceeds_the_budget_at_7():
    env = family_env()
    tr = reduce.translate(family(6), env)
    assert len(tr.steps) == 88_241
    assert distinct_nodes(tr.result) == 988
    with pytest.raises(NonTermination):
        reduce.translate(family(7), env)


def test_the_budget_counts_replayed_steps(allergy_env):
    """Every budget raises NonTermination exactly when the rewriter without
    the memo does, also where the memo replays a node's steps."""
    g = parse(HEADLINE, allergy_env)
    # in g & g the second g is all replay, and its last step ends the log
    for f, n in ((g, 19), (And(g, g), 38)):
        tr = reduce.translate(f, allergy_env)
        assert len({id(s) for s in tr.steps}) < len(tr.steps) == n
        for budget in range(n + 2):
            got = outcome(reduce._Rewriter, f, allergy_env, budget=budget)
            assert got == outcome(Unmemoised, f, allergy_env, budget=budget), budget
            assert (got[0] is NonTermination) == (budget < n)


class _Marked(And):
    __slots__ = ()


class _Doubled(Not):
    __slots__ = ()


def test_a_node_subclass_translates_to_its_node_class(allergy_env):
    p, q = Atom("p"), Atom("q")
    f = _Doubled(_Marked(p, Know("a", q)))
    assert reduce.translate(f, allergy_env).result is Not(And(p, Know("a", q)))
    assert reduce.translate(Not(_Marked(p, q)), allergy_env).result is Not(And(p, q))


def _counting_clauses(monkeypatch):
    """Patch every clause `rec` dispatches to; return node -> clause runs."""
    runs = {}

    def counted(clause):
        def run(self, f):
            runs[f] = runs.get(f, 0) + 1
            return clause(self, f)
        return run

    for cls, (rewrites, clause) in list(reduce._REC.items()):
        if clause is not None:  # a leaf has none
            monkeypatch.setitem(reduce._REC, cls, (rewrites, counted(clause)))
    return runs


def test_each_distinct_node_is_rewritten_once_per_call(allergy_env, monkeypatch):
    """A work gate, counted: within one `translate` call each node's clause
    runs once however often the node comes; a second call starts afresh.
    The unmemoised rewriter runs some clauses many times over."""
    runs = _counting_clauses(monkeypatch)
    for f, env in ((family(5), family_env()), (parse(HEADLINE, allergy_env), allergy_env)):
        for _ in range(2):
            runs.clear()
            reduce.translate(f, env)
            assert runs and max(runs.values()) == 1
        runs.clear()
        Unmemoised(env, "standard", 100_000).rec(f)
        assert max(runs.values()) > 1
