"""Reachability submodels and retained evaluation roots."""

import random
import tracemalloc

import pytest

import oughtcheck.submodel
from oracles import o_reach, o_submodel, omodel
from oughtcheck.errors import EmptyProduct, IsolatedRoot, UnknownAgent, UnknownWorld, Unsatisfiable
from oughtcheck.generate import GenParams, gen_decision_point, gen_model
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.product import product
from oughtcheck.submodel import agent_submodel, generated_submodel, horizon


def _chain():
    """u -> v -> w for x; y sees {v, w} as a block and nothing from u."""
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


def test_reachability_is_strict():
    m = _chain()
    sub = agent_submodel(m, "u", "x")
    # u reaches v and w but never itself
    assert set(sub.worlds) == {"u", "v", "w"}
    assert sub.eval_only == frozenset({"u"})
    assert sub.root == "u"
    assert sub.domain_worlds() == ("v", "w")


def test_root_reaching_itself_is_ordinary():
    m = GradedKripkeModel(
        agents=["x"], atoms=[], worlds=["u", "v"],
        relations={"x": {"u": {"v"}, "v": {"u"}}},
        valuation={"u": set(), "v": set()},
        desirability={"u": 0, "v": 0},
    )
    sub = agent_submodel(m, "u", "x")
    assert sub.eval_only == frozenset()
    assert set(sub.worlds) == {"u", "v"}


def test_retained_root_keeps_only_outgoing_edges():
    m = _chain()
    sub = agent_submodel(m, "u", "x")
    assert sub.successors("x", "u") == frozenset({"v"})
    # nothing points back at the retained root — not even itself
    for w in sub.worlds:
        for a in sub.agents:
            assert "u" not in sub.successors(a, w)


def test_agent_submodel_keeps_other_agents_inside_domain():
    m = _chain()
    sub = agent_submodel(m, "u", "x")
    # y's edges between v and w survive even though the carve used x
    assert sub.successors("y", "v") == frozenset({"v", "w"})
    assert sub.successors("y", "w") == frozenset({"v", "w"})


def test_edges_out_of_domain_are_cut():
    m = GradedKripkeModel(
        agents=["x", "y"], atoms=[], worlds=["u", "v", "z"],
        relations={
            "x": {"u": {"v"}, "v": {"v"}, "z": set()},
            "y": {"u": set(), "v": {"z"}, "z": set()},
        },
        valuation={w: set() for w in "uvz"},
        desirability={w: 0 for w in "uvz"},
    )
    sub = agent_submodel(m, "u", "x")
    # z is y-visible from v but x never reaches it: cut
    assert not sub.has_world("z")
    assert sub.successors("y", "v") == frozenset()


def test_isolated_root():
    m = _chain()
    with pytest.raises(IsolatedRoot):
        agent_submodel(m, "w", "x")
    with pytest.raises(IsolatedRoot):
        agent_submodel(m, "u", "y")


def test_generated_submodel_unions_agents():
    m = _chain()
    sub = generated_submodel(m, "u")
    # x gets u to v, then y keeps v and w alive
    assert set(sub.worlds) == {"u", "v", "w"}
    assert sub.eval_only == frozenset({"u"})
    assert sub.agent_filter is None


def test_submodels_are_memoized():
    m = _chain()
    assert agent_submodel(m, "u", "x") is agent_submodel(m, "u", "x")
    assert generated_submodel(m, "u") is generated_submodel(m, "u")


def test_metadata():
    m = _chain()
    sub = agent_submodel(m, "u", "x")
    assert sub.agent_filter == "x"
    assert sub.frame == "K"
    assert sub.valuation["w"] == frozenset({"p"})
    assert sub.desirability["v"] == 5


def test_against_oracle():
    rng = random.Random(515)
    params = GenParams(max_worlds=6, frame="K")
    for _ in range(60):
        m = gen_model(rng, params)
        om = omodel(m)
        root = rng.choice(list(m.worlds))
        agent = rng.choice(list(m.agents) + [None])
        reach = o_reach(om, root, agent)
        if not reach:
            with pytest.raises(IsolatedRoot):
                (agent_submodel(m, root, agent) if agent
                 else generated_submodel(m, root))
            continue
        sub = agent_submodel(m, root, agent) if agent else generated_submodel(m, root)
        osub = o_submodel(om, root, agent)
        assert set(sub.worlds) == osub["worlds"]
        assert sub.eval_only == frozenset(osub["eval_only"])
        for a in sub.agents:
            pairs = {(w, u) for w in sub.worlds for u in sub.successors(a, w)}
            assert pairs == osub["rel"][a]
        for w in sub.worlds:
            assert sub.desirability[w] == osub["des"][w]


def _seeded_models(frame, count=30):
    """Seeded gen_model instances, their products by a generated decision
    point, and every agent submodel of both (eval-only roots included)."""
    rng = random.Random(f"horizons:{frame}")
    params = GenParams(max_worlds=7, frame=frame)
    for _ in range(count):
        bases = [gen_model(rng, params)]
        try:
            bases.append(product(bases[0], gen_decision_point(rng, bases[0], "U", params)))
        except (Unsatisfiable, EmptyProduct):
            pass
        out = list(bases)
        for m in bases:
            for w in m.worlds:
                for a in m.agents:
                    try:
                        out.append(agent_submodel(m, w, a))
                    except IsolatedRoot:
                        pass
        yield from out


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_horizons_match_the_oracle(frame):
    isolated = cyclic = eval_only = 0
    for m in _seeded_models(frame):
        om = omodel(m)
        eval_only += bool(m.eval_only)
        for a in m.agents:
            want = {w: o_reach(om, w, a) for w in m.worlds}
            for w in m.worlds:
                if not want[w]:
                    isolated += 1
                    with pytest.raises(IsolatedRoot):
                        horizon(m, w, a)
                    continue
                assert horizon(m, w, a) == want[w], (m.name, w, a)
            # the worlds of one cycle share one horizon object
            for w in m.worlds:
                for u in want[w]:
                    if w in want[u]:
                        cyclic += 1
                        assert horizon(m, u, a) is horizon(m, w, a), (m.name, w, u, a)
    assert cyclic
    if frame != "S5":
        assert eval_only  # S5 roots always reach themselves
    if frame == "K":
        assert isolated


def test_horizon_checks_world_then_agent():
    m = _chain()
    with pytest.raises(UnknownWorld):
        horizon(m, "nowhere", "nobody")
    with pytest.raises(UnknownAgent):
        horizon(m, "u", "nobody")


def _line(n):
    """w0 -> w1 -> ... -> w{n-1} for agent i: no cycle anywhere."""
    worlds = [f"w{k}" for k in range(n)]
    return GradedKripkeModel(
        agents=["i"], atoms=[], worlds=worlds,
        relations={"i": {w: {u} for w, u in zip(worlds, worlds[1:])}},
        valuation={w: () for w in worlds},
        desirability={w: 0 for w in worlds},
    )


def test_one_root_on_a_long_chain_stays_small():
    # the horizon of one root is one reach, not a table of every world's
    # horizon (which holds about n*n/2 worlds on a chain)
    m = _line(3000)
    tracemalloc.start()
    try:
        h = horizon(m, "w0", "i")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(h) == 2999
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB traced for one horizon"


def test_a_very_long_chain_needs_no_deep_recursion():
    m = _line(10_000)
    assert len(horizon(m, "w0", "i")) == 9_999
    assert horizon(m, "w9998", "i") == {"w9999"}
    with pytest.raises(IsolatedRoot):
        horizon(m, "w9999", "i")


def test_an_isolated_root_is_not_memoized(monkeypatch):
    m = _line(3)
    reaches = []
    reach = oughtcheck.submodel._reach

    def counting_reach(model, root, agent):
        reaches.append(root)
        return reach(model, root, agent)

    monkeypatch.setattr(oughtcheck.submodel, "_reach", counting_reach)
    for _ in range(2):
        with pytest.raises(IsolatedRoot):
            horizon(m, "w2", "i")
        assert horizon(m, "w1", "i") == {"w2"}
    assert reaches == ["w2", "w1", "w2"]
