"""Expected values, components, rivals, and expectation atoms."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import oughtcheck.expect
from oracles import o_atom, omodel
from oughtcheck.actions import DecisionPoint
from oughtcheck.errors import (
    CheckerError,
    IsolatedRoot,
    NoDecisionContext,
    NoSuccessors,
    Unsatisfiable,
)
from oughtcheck.expect import (
    atom_holds,
    atom_report,
    component_value,
    expected_value,
    rival_instances,
)
from oughtcheck.formula import TRUE
from oughtcheck.generate import GenParams, gen_decision_point, gen_model
from oughtcheck.kripke import GradedKripkeModel, trace_of
from oughtcheck.product import product
from oughtcheck.submodel import agent_submodel, generated_submodel


def _chain():
    return GradedKripkeModel(
        agents=["x", "y"],
        atoms=["p"],
        worlds=["u", "v", "w"],
        relations={
            "x": {"u": {"v"}, "v": {"w"}, "w": set()},
            "y": {"u": set(), "v": {"v", "w"}, "w": {"v", "w"}},
        },
        valuation={"u": {"p"}, "v": set(), "w": {"p"}},
        desirability={"u": 4, "v": 5, "w": 6},
        frame="K",
    )


def test_expected_value_sums_domain_over_root_successors():
    sub = agent_submodel(_chain(), "u", "x")
    # domain {v, w} carries 5 + 6; the retained root u contributes nothing
    # to the sum yet anchors the divisor |succ(u)| = 1
    assert expected_value(sub, "x") == Fraction(11, 1)
    assert isinstance(expected_value(sub, "x"), Fraction)


def test_expected_value_defaults_to_the_submodel_agent():
    sub = agent_submodel(_chain(), "u", "x")
    assert expected_value(sub) == Fraction(11)


def test_a_memoized_value_cannot_go_stale():
    # rebinding what a memoized value derives from raises instead
    sub = agent_submodel(_chain(), "u", "x")
    assert expected_value(sub) == Fraction(11)
    with pytest.raises(AttributeError):
        sub.eval_only = frozenset()
    with pytest.raises(AttributeError):
        sub.root = "v"
    assert sub.eval_only == frozenset({"u"}) and expected_value(sub) == Fraction(11)


def test_expected_value_needs_an_agent_and_a_root():
    m = _chain()
    with pytest.raises(NoDecisionContext):
        expected_value(generated_submodel(m, "u"))  # no filter, no agent
    with pytest.raises(NoDecisionContext):
        expected_value(m, "x")  # not a rooted submodel


def test_no_successors():
    sub = generated_submodel(_chain(), "u")
    # y has no edge out of u
    with pytest.raises(NoSuccessors):
        expected_value(sub, "y")


def test_components(line_model, pick):
    pm = product(line_model, pick)
    w0hi = ("w0", (("P", "hi"),))
    w0lo = ("w0", (("P", "lo"),))
    assert component_value(pm, w0hi, "x") == Fraction(0)
    assert component_value(pm, w0lo, "x") == Fraction(1, 2)
    assert component_value(pm, ("w2", (("P", "lo"),)), "x") == Fraction(5, 2)
    assert component_value(pm, w0hi, "y") == Fraction(1)
    assert component_value(pm, w0lo, "y") == Fraction(3, 2)
    c = agent_submodel(pm, w0lo, "x")
    assert set(c.worlds) == {w0lo, ("w1", (("P", "lo"),))}
    for w in pm.worlds:
        for agent in pm.agents:
            assert component_value(pm, w, agent) == expected_value(
                agent_submodel(pm, w, agent), agent
            )


def test_rivals(line_model, pick):
    pm = product(line_model, pick)
    w0hi = ("w0", (("P", "hi"),))
    assert sorted(rival_instances(pm, w0hi)) == sorted(
        (w, (("P", "lo"),)) for w in ["w0", "w1", "w2", "w3"]
    )
    with pytest.raises(NoDecisionContext):
        rival_instances(line_model, "w0")


def test_rivals_need_matching_prefixes(line_model, pick):
    second = DecisionPoint(
        "R", "y", ["go", "stop"], {"go": TRUE, "stop": TRUE}, agents=["x", "y"]
    )
    pm2 = product(product(line_model, pick), second)
    inst = ("w0", (("P", "hi"), ("R", "go")))
    rivals = rival_instances(pm2, inst)
    # only same-prefix runs compete: every rival continues (_, P.hi)
    assert rivals
    for r in rivals:
        assert r[1][0] == ("P", "hi")
        assert r[1][1] == ("R", "stop")


def test_eval_only_worlds_are_not_rivals():
    m = GradedKripkeModel(
        agents=["x"], atoms=["p"], worlds=["u", "v"],
        relations={"x": {"u": {"v"}, "v": {"v"}}},
        valuation={"u": {"p"}, "v": {"p"}},
        desirability={"u": 7, "v": 1},
        frame="K",
    )
    sub = agent_submodel(m, "u", "x")
    dp = DecisionPoint("R", "x", ["go", "stop"], {"go": TRUE, "stop": TRUE})
    pm = product(sub, dp)
    rivals = rival_instances(pm, ("v", (("R", "go"),)))
    assert rivals == [("v", (("R", "stop"),))]


def test_atom_holds(line_model, pick):
    pm = product(line_model, pick)
    assert not atom_holds(pm, ("w0", (("P", "hi"),)), "x")
    assert not atom_holds(pm, ("w2", (("P", "hi"),)), "x")
    assert atom_holds(pm, ("w3", (("P", "lo"),)), "x")
    assert atom_holds(pm, ("w0", (("P", "lo"),)), "y")
    assert not atom_holds(pm, ("w0", (("P", "hi"),)), "y")


def test_ties_count_in_favour():
    m = GradedKripkeModel(
        agents=["i"], atoms=[], worlds=["s", "t"],
        relations={"i": {"s": {"s", "t"}, "t": {"s", "t"}}},
        valuation={"s": set(), "t": set()},
        desirability={"s": 3, "t": 3},
        frame="S5",
    )
    dp = DecisionPoint("T", "i", ["l", "r"], {"l": TRUE, "r": TRUE})
    pm = product(m, dp)
    for w in pm.worlds:
        assert atom_holds(pm, w, "i")


def test_atom_report_matches_atom_holds(line_model, pick):
    pm = product(line_model, pick)
    for w in pm.worlds:
        verdict, own, rivals = atom_report(pm, w, "x")
        assert verdict == atom_holds(pm, w, "x")
        assert own == component_value(pm, w, "x")
        assert set(rivals) == set(rival_instances(pm, w))
        assert verdict == all(own >= v for v in rivals.values())


def test_against_oracle():
    rng = random.Random(99)
    params = GenParams(max_worlds=5)
    done = 0
    while done < 40:
        m = gen_model(rng, params)
        try:
            dp = gen_decision_point(rng, m, "U", params)
        except Unsatisfiable:
            continue
        pm = product(m, dp)
        opm = omodel(pm)
        for w in pm.domain_worlds():
            for agent in pm.agents:
                try:
                    mine = atom_holds(pm, w, agent)
                except NoSuccessors:
                    continue
                assert mine == o_atom(opm, w, agent)
        done += 1


# --- the per-rival walk that atom_holds replaced, kept as a reference ---------


def _scanned_rivals(carrier, instance):
    """Reference: rivals by a scan of every carrier world."""
    trace = trace_of(instance)
    out = []
    for w in carrier.worlds:
        t = trace_of(w)
        if w in carrier.eval_only or len(t) != len(trace) or t[:-1] != trace[:-1]:
            continue
        if t[-1][0] == trace[-1][0] and t[-1][1] != trace[-1][1]:
            out.append(w)
    return out


def _walked_atom(carrier, instance, agent):
    """Reference: walk the rivals in world order, stop at the first better
    one (False) or the first undefined one (its error)."""
    mine = component_value(carrier, instance, agent)
    for rival in _scanned_rivals(carrier, instance):
        if mine < component_value(carrier, rival, agent):
            return False
    return True


def _outcome(call):
    try:
        return call()
    except CheckerError as exc:
        return type(exc).__name__


def _two_event_carrier(values, successors):
    """K model on worlds a, b, c updated by T with events l and r (both
    always available), so the rivals of (x, T.l) are (a|b|c, T.r) in world
    order.  A world without successors gives undefined component values."""
    worlds = ["a", "b", "c"]
    m = GradedKripkeModel(
        agents=["i"], atoms=[], worlds=worlds,
        relations={"i": successors},
        valuation={w: () for w in worlds},
        desirability=dict(zip(worlds, values)),
    )
    return product(m, DecisionPoint("T", "i", ["l", "r"], {"l": TRUE, "r": TRUE}))


def test_undefined_rival_after_a_better_one_is_never_reached():
    # (b, T.r) is worth 5 > 0 and comes before the undefined (c, T.r)
    pm = _two_event_carrier([0, 5, 0], {"a": {"a"}, "b": {"b"}})
    inst = ("a", (("T", "l"),))
    assert _outcome(lambda: _walked_atom(pm, inst, "i")) is False
    assert atom_holds(pm, inst, "i") is False


def test_undefined_rival_before_a_better_one_raises():
    # (b, T.r) is undefined and comes before the better (c, T.r)
    pm = _two_event_carrier([0, 0, 5], {"a": {"a"}, "c": {"c"}})
    for base in ("a", "c"):
        inst = (base, (("T", "l"),))
        assert _outcome(lambda: _walked_atom(pm, inst, "i")) == "IsolatedRoot"
        with pytest.raises(IsolatedRoot):
            atom_holds(pm, inst, "i")
    # an instance whose own value is undefined raises before any rival
    with pytest.raises(IsolatedRoot):
        atom_holds(pm, ("b", (("T", "l"),)), "i")


def test_an_undefined_atom_is_not_memoized(monkeypatch):
    pm = _two_event_carrier([0, 0, 5], {"a": {"a"}, "c": {"c"}})
    verdicts = []
    verdict = oughtcheck.expect._atom_verdict

    def counting_verdict(carrier, instance, agent):
        verdicts.append(instance)
        return verdict(carrier, instance, agent)

    monkeypatch.setattr(oughtcheck.expect, "_atom_verdict", counting_verdict)
    inst = ("a", (("T", "l"),))
    for _ in range(2):
        with pytest.raises(IsolatedRoot):
            atom_holds(pm, inst, "i")
    assert verdicts == [inst, inst]


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_atoms_match_the_per_rival_walk(frame):
    rng = random.Random(f"walk:{frame}")
    params = GenParams(max_worlds=6, frame=frame)
    outcomes = Counter()
    done = 0
    while done < 60:
        m = gen_model(rng, params)
        try:
            dp = gen_decision_point(rng, m, "U", params)
        except Unsatisfiable:
            continue
        # agent submodels add eval-only roots, which are never rivals
        carriers = [product(m, dp)]
        for w in m.worlds:
            try:
                carriers.append(product(agent_submodel(m, w, dp.owner), dp))
            except CheckerError:
                pass
        for pm in carriers:
            for w in pm.worlds:
                assert rival_instances(pm, w) == _scanned_rivals(pm, w)
                for agent in pm.agents:
                    want = _outcome(lambda: _walked_atom(pm, w, agent))
                    assert _outcome(lambda: atom_holds(pm, w, agent)) == want
                    outcomes[want] += 1
        done += 1
    assert outcomes[True] and outcomes[False]
    if frame == "K":
        assert outcomes["IsolatedRoot"]


def _per_rival_report(carrier, instance, agent):
    """Reference: atom_report by valuing every rival afresh, in world order,
    up to the first undefined one; raises that rival's error when no rival
    before it beats the instance."""

    def value(w):
        return expected_value(agent_submodel(carrier, w, agent), agent)

    mine = value(instance)
    compared, error = {}, None
    for rival in _scanned_rivals(carrier, instance):
        try:
            compared[rival] = value(rival)
        except CheckerError as exc:
            error = exc
            break
    if any(mine < v for v in compared.values()):
        return False, mine, compared
    if error is not None:
        raise error
    return True, mine, compared


def _described(call):
    try:
        return call()
    except CheckerError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "values, c_successors, verdicts",
    [
        ([0, 6, 1, 2, 9], set(), {IsolatedRoot}),
        ([4, 6, 0, 0, 1], set(), {False, IsolatedRoot}),
        ([4, 6, 0, 0, 1], {"c"}, {False, True}),
    ],
)
def test_rivals_compared_once_per_successor_set(values, c_successors, verdicts):
    # the rivals (a..e, T.r) of an instance repeat one successor set at a, b
    # and d, with c's empty set (an undefined value) between them, unless
    # c sees itself
    successors = {"a": {"a", "b"}, "b": {"a", "b"}, "c": c_successors, "d": {"a", "b"}, "e": {"e"}}
    worlds = ["a", "b", "c", "d", "e"]
    m = GradedKripkeModel(
        agents=["i"], atoms=[], worlds=worlds, relations={"i": successors},
        valuation={w: () for w in worlds}, desirability=dict(zip(worlds, values)),
    )
    pm = product(m, DecisionPoint("T", "i", ["l", "r"], {"l": TRUE, "r": TRUE}))
    outcomes = set()
    for inst in pm.worlds:
        want = _described(lambda: _per_rival_report(pm, inst, "i"))
        assert _described(lambda: atom_report(pm, inst, "i")) == want
        assert _described(lambda: atom_holds(pm, inst, "i")) == (
            want[0] if isinstance(want[0], bool) else want
        )
        outcomes.add(want[0])
    assert outcomes == verdicts
    stored = {key for key in pm._cache if key[0] == "value"}
    sets = {pm.successors("i", w) for w in pm.worlds}
    assert stored == {("value", "i", s) for s in sets if s}
    assert len(stored) < len([w for w in pm.worlds if pm.successors("i", w)])
