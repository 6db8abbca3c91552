"""Models that product and submodel build skip the constructor's normalising
step (`_derived=True`).  Each must be the model the checked constructor
builds from the same mappings, and keep one object per distinct successor
set and per distinct valuation."""

import random

import pytest

from oughtcheck.errors import CheckerError, Unsatisfiable
from oughtcheck.generate import (
    GenParams,
    gen_decision_point,
    gen_formula,
    gen_model,
    run_axiom_suite,
)
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.semantics import evaluate_plain
from oughtcheck.submodel import agent_submodel, generated_submodel

FRAMES = ("S5", "KD45", "K")


@pytest.fixture
def derived(monkeypatch):
    """Every model built with _derived=True while the test runs."""
    built = []
    init = GradedKripkeModel.__init__

    def recording(self, *args, _derived=False, **kwargs):
        init(self, *args, _derived=_derived, **kwargs)
        if _derived:
            built.append(self)

    monkeypatch.setattr(GradedKripkeModel, "__init__", recording)
    return built


def _with_eval_only_root(rng, frame):
    """A generated model plus an evaluation-only root "r" with edges into it."""
    m = gen_model(rng, GenParams(frame=frame))
    relations = {
        a: {"r": rng.sample(m.worlds, rng.randint(1, len(m.worlds))), **m.relations[a]}
        for a in m.agents
    }
    return GradedKripkeModel(
        agents=m.agents,
        atoms=m.atoms,
        worlds=m.worlds + ("r",),
        relations=relations,
        valuation={**m.valuation, "r": frozenset(m.atoms[:1])},
        desirability={**m.desirability, "r": 5},
        frame=frame,
        eval_only=frozenset(["r"]),
    )


def _evaluate_everywhere(rng, m):
    """Build products, submodels and carriers of m by evaluating random
    formulas at every world, and every submodel of m directly."""
    env = {}
    try:
        env["U"] = u = gen_decision_point(rng, m, "U", env=env)
        env["V"] = gen_decision_point(rng, m, "V", owner=u.owner, env=env)
    except Unsatisfiable:
        return
    for w in m.worlds:
        calls = [(agent_submodel, (m, w, a)) for a in m.agents] + [(generated_submodel, (m, w))]
        for build, args in calls:
            try:
                build(*args)
            except CheckerError:
                pass
        for _ in range(3):
            try:
                evaluate_plain(m, w, gen_formula(rng, m, env, 2), env)
            except CheckerError:
                pass


def _assert_as_checked(m):
    again = GradedKripkeModel(
        m.agents, m.atoms, m.worlds, m.relations, m.valuation, m.desirability,
        frame=m.frame, root=m.root, agent_filter=m.agent_filter,
        eval_only=m.eval_only, name=m.name,
    )
    assert again.worlds == m.worlds and set(m.relations) == set(m.agents)
    for a in m.agents:
        assert dict(m.relations[a]) == dict(again.relations[a])
    assert dict(m.valuation) == dict(again.valuation)
    assert dict(m.desirability) == dict(again.desirability)
    assert (m.eval_only, m.root) == (again.eval_only, again.root)

    sets = [s for a in m.agents for s in m.relations[a].values()]
    valuations = list(m.valuation.values())
    assert {type(x) for x in sets + valuations} == {frozenset}
    assert {type(x) for x in m.desirability.values()} == {int}
    assert len(set(map(id, sets))) == len(set(sets))
    assert len(set(map(id, valuations))) == len(set(valuations))


@pytest.mark.parametrize("frame", FRAMES)
def test_derived_models_equal_checked_ones(frame, derived):
    rng = random.Random(f"derived-{frame}")
    for _ in range(4):
        _evaluate_everywhere(rng, _with_eval_only_root(rng, frame))
    run_axiom_suite(3, 2026, frame)
    kinds = {("*" in m.name, "|" in m.name) for m in derived}
    assert kinds == {(True, False), (False, True), (True, True)}
    assert any(m.eval_only for m in derived)
    for m in derived:
        _assert_as_checked(m)
