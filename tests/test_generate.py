"""Random instance generation and the seeded validity suite."""

import gc
import json
import random
import weakref
from pathlib import Path

import pytest

from oughtcheck.errors import Unsatisfiable, ValidationError
from oughtcheck.formula import And, Diamond, ExpAtom, Know, Not, Ought, to_text
from oughtcheck.generate import (
    AMBIGUOUS,
    EXPECTED_CLEAN,
    INFORMATIONAL,
    REPORTED_RED,
    GenParams,
    gen_decision_point,
    gen_formula,
    gen_model,
    run_axiom_suite,
)
from oughtcheck.kripke import GradedKripkeModel, frame_violations
from oughtcheck.reduce import _Rewriter, obligation_clause
from oughtcheck.semantics import evaluate_plain


def test_generated_models_respect_the_frame():
    for frame in ("S5", "KD45", "K"):
        rng = random.Random(7)
        params = GenParams(frame=frame)
        for _ in range(40):
            m = gen_model(rng, params)
            assert m.frame == frame
            assert frame_violations(m) == []
            assert len(m.worlds) <= params.max_worlds
            assert len(m.agents) <= params.max_agents


def test_generated_models_have_values_in_range():
    rng = random.Random(9)
    params = GenParams(value_lo=2, value_hi=4)
    for _ in range(20):
        m = gen_model(rng, params)
        for w in m.worlds:
            assert 2 <= m.desirability[w] <= 4


def test_generated_decision_points_are_satisfiable():
    rng = random.Random(21)
    params = GenParams()
    for _ in range(40):
        m = gen_model(rng, params)
        try:
            dp = gen_decision_point(rng, m, "U", params)
        except Unsatisfiable:
            continue
        assert len(dp.events) >= 2
        assert dp.owner in dp.agents
        for ev in dp.events:
            pre = dp.pre[ev]
            assert not _mentions_ought(pre)
            assert any(evaluate_plain(m, w, pre, {"U": dp}) for w in m.domain_worlds())


def _mentions_ought(f):
    if isinstance(f, Ought):
        return True
    if isinstance(f, Not):
        return _mentions_ought(f.sub)
    if isinstance(f, And):
        return _mentions_ought(f.left) or _mentions_ought(f.right)
    if isinstance(f, (Know, Diamond)):
        return _mentions_ought(f.sub)
    return False


def _assert_no_junction(f, banned):
    """No run may start with the decision point the ambient context ended on.
    Stepping into a run moves the context, so the ban is re-threaded to that
    run's final decision point."""
    if isinstance(f, (Diamond, Ought)):
        assert f.steps[0][0] != banned, to_text(f)
        body = f.sub if isinstance(f, Diamond) else f.body
        _assert_no_junction(body, f.steps[-1][0])
    elif isinstance(f, ExpAtom):
        assert f.steps[0][0] != banned, to_text(f)
    elif isinstance(f, Not):
        _assert_no_junction(f.sub, banned)
    elif isinstance(f, And):
        _assert_no_junction(f.left, banned)
        _assert_no_junction(f.right, banned)
    elif isinstance(f, Know):
        _assert_no_junction(f.sub, banned)


def test_generated_formulas_respect_the_junction_ban():
    rng = random.Random(33)
    params = GenParams()
    for _ in range(60):
        m = gen_model(rng, params)
        try:
            env = {}
            env["U"] = gen_decision_point(rng, m, "U", params, env=env)
            env["V"] = gen_decision_point(rng, m, "V", params, env=env)
        except Unsatisfiable:
            continue
        f = gen_formula(rng, m, env, depth=4, banned_dp="U")
        _assert_no_junction(f, "U")


def test_suite_buckets_are_disjoint_and_complete():
    ids = EXPECTED_CLEAN + REPORTED_RED + INFORMATIONAL + AMBIGUOUS
    assert len(ids) == len(set(ids))
    assert set(REPORTED_RED) == {"R3"}
    for want in ("E1", "E2", "R1", "R2", "R5", "R6", "K-E", "K-O"):
        assert want in EXPECTED_CLEAN
    assert "R3+e" in INFORMATIONAL


@pytest.mark.parametrize("frame", ["S5", "KD45"])
def test_small_suite_run_is_clean_where_it_should_be(frame):
    report = run_axiom_suite(trials=20, seed=11, frame=frame)
    assert report.clean()
    for aid in EXPECTED_CLEAN:
        res = report.axioms[aid]
        assert res.checked > 0, aid
        assert res.counterexamples == 0, aid
    # the plain negation clause genuinely fails; its repaired form does not
    assert report.axioms["R3"].counterexamples > 0
    assert report.informational["R3+e"].counterexamples == 0


def test_suite_input_errors_are_validation_errors():
    with pytest.raises(ValidationError, match="unknown frame 'S4'"):
        gen_model(random.Random(0), GenParams(frame="S4"))
    with pytest.raises(ValidationError, match="unknown frame 'S4'"):
        run_axiom_suite(1, seed=0, frame="S4")
    for trials in (0, -3):
        with pytest.raises(ValidationError, match="at least one trial"):
            run_axiom_suite(trials, seed=0)


def test_suite_report_shape():
    report = run_axiom_suite(trials=5, seed=3)
    d = report.as_dict()
    assert d["trials"] == 5
    assert d["frame"] == "S5"
    for aid in EXPECTED_CLEAN + REPORTED_RED:
        assert aid in d["axioms"]
    for aid in INFORMATIONAL:
        assert aid in d["informational"]
    for aid in AMBIGUOUS:
        assert aid in d["ambiguities"]
    leaf = d["axioms"]["R1"]
    assert set(leaf) == {"checked", "counterexamples", "errors", "first_counterexample"}
    assert isinstance(report.clean(), bool)


def test_suite_is_deterministic_per_seed():
    a = run_axiom_suite(trials=10, seed=42).as_dict()
    b = run_axiom_suite(trials=10, seed=42).as_dict()
    assert a == b


def test_suite_names_its_models_at_construction(monkeypatch):
    import oughtcheck.generate as generate

    made = []

    def recording_gen_model(rng, params=None, name=None):
        m = gen_model(rng, params, name=name)
        made.append((name, m))
        return m

    monkeypatch.setattr(generate, "gen_model", recording_gen_model)
    run_axiom_suite(3, 5)
    assert made and all(name is not None and m.name == name for name, m in made)
    # a model is named once, by its trial number; redrawn trials reuse it
    assert made[-1][0] == "t2"
    assert gen_model(random.Random(1), name="mine").name == "mine"


_PINS = json.loads((Path(__file__).parent / "axiom_suite_pins.json").read_text())


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_suite_numbers_are_pinned(frame):
    """The suite's draws and schema statements, pinned: any change to its
    RNG order or to a schema shows here, not only in the benchmark."""
    assert run_axiom_suite(40, 2026, frame=frame).as_dict() == _PINS[frame]


def test_the_suite_checks_the_rewriters_own_clauses(monkeypatch):
    import oughtcheck.generate as generate

    seen = {}
    compare_all = generate._compare_all

    def recording(report, model, world, schemas, env, where):
        for name, lhs, rhs in schemas:
            seen.setdefault(name, []).append((lhs, rhs, env))
        compare_all(report, model, world, schemas, env, where)

    monkeypatch.setattr(generate, "_compare_all", recording)
    run_axiom_suite(5, 2026)
    for name in ("R1", "R2", "R3", "R3+e", "R4", "R5", "R6"):
        assert seen[name], name
        mode = "literal" if name in ("R3", "R4") else "standard"
        for lhs, rhs, env in seen[name]:
            assert obligation_clause(lhs, env, mode) == (name, rhs)


def test_a_broken_clause_shows_in_the_suite(monkeypatch):
    assert run_axiom_suite(30, 2026).axioms["R5"].counterexamples == 0
    ought = _Rewriter.ought

    def without_expectation(self, f):
        rule, after = ought(self, f)
        return (rule, after.left) if rule == "R5" else (rule, after)

    monkeypatch.setattr(_Rewriter, "ought", without_expectation)
    assert run_axiom_suite(30, 2026).axioms["R5"].counterexamples > 0


def test_a_trial_frees_its_models_without_the_cyclic_collector(monkeypatch):
    """Reference counting alone frees every model a trial builds, and with
    it every product memoised on the model."""
    built = []
    init = GradedKripkeModel.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(GradedKripkeModel, "__init__", recording)
    gc.collect()
    gc.disable()
    try:
        run_axiom_suite(1, 11)
        alive = sum(ref() is not None for ref in built)
    finally:
        gc.enable()
    assert len(built) > 1 and alive == 0


def test_trials_leave_no_garbage_for_the_cyclic_collector():
    """Reference counting alone frees everything twenty trials make: their
    decision points too, which do not hold themselves in their env."""
    gc.collect()
    gc.disable()
    try:
        run_axiom_suite(20, 2026)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
