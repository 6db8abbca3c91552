"""Model construction, world keys, and frame-class checking."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oughtcheck.errors import UnknownAgent, UnknownWorld, ValidationError
from oughtcheck.kripke import (
    GradedKripkeModel,
    MAX_DESIRABILITY,
    base_of,
    extend_world,
    frame_violations,
    trace_of,
    world_id,
)


def _tiny(**overrides):
    kw = dict(
        agents=["a"],
        atoms=["p"],
        worlds=["u", "v"],
        relations={"a": {"u": {"v"}, "v": {"v"}}},
        valuation={"u": {"p"}, "v": set()},
        desirability={"u": 1, "v": 2},
        frame="K",
    )
    kw.update(overrides)
    return GradedKripkeModel(**kw)


def test_world_keys():
    assert trace_of("u") == ()
    assert base_of("u") == "u"
    w = extend_world("u", (("U", "a"),))
    assert w == ("u", (("U", "a"),))
    assert trace_of(w) == (("U", "a"),)
    assert base_of(w) == "u"
    w2 = extend_world(w, (("V", "b"),))
    assert w2 == ("u", (("U", "a"), ("V", "b")))
    assert world_id("u") == "u"
    assert world_id(w2) == "u@U.a;V.b"


def test_accessors():
    m = _tiny()
    assert m.has_world("u") and not m.has_world("zz")
    assert m.require_world("v") == "v"
    with pytest.raises(UnknownWorld):
        m.require_world("zz")
    assert m.successors("a", "u") == frozenset({"v"})
    with pytest.raises(UnknownAgent):
        m.successors("b", "u")
    with pytest.raises(UnknownWorld):
        m.successors("a", "zz")
    assert m.atoms_at("u") == frozenset({"p"})
    assert m.value_of("v") == 2
    assert list(m.pairs("a")) == [("u", "v"), ("v", "v")]


def test_missing_relation_rows_default_to_empty():
    m = _tiny(relations={})
    assert m.successors("a", "u") == frozenset()


def test_domain_excludes_eval_only():
    m = _tiny(eval_only=frozenset({"u"}), root="u")
    assert m.domain_worlds() == ("v",)
    assert _tiny().domain_worlds() == ("u", "v")


def test_construction_validations():
    with pytest.raises(ValidationError):
        _tiny(worlds=[])
    with pytest.raises(ValidationError):
        _tiny(worlds=["u", "u"], valuation={"u": set()}, desirability={"u": 0},
              relations={})
    with pytest.raises(ValidationError):
        _tiny(agents=[])
    with pytest.raises(ValidationError):
        _tiny(frame="T")
    with pytest.raises(ValidationError):
        _tiny(valuation={"u": {"zz"}, "v": set()})
    with pytest.raises(ValidationError):
        _tiny(desirability={"u": MAX_DESIRABILITY + 1, "v": 0})
    with pytest.raises(ValidationError):
        _tiny(relations={"a": {"u": {"nowhere"}}})
    with pytest.raises(ValidationError):
        _tiny(root="zz")


def test_desirability_bound_is_inclusive():
    m = _tiny(desirability={"u": MAX_DESIRABILITY, "v": -MAX_DESIRABILITY})
    assert m.value_of("u") == MAX_DESIRABILITY


def test_frame_violations_s5():
    ok = _tiny(
        frame="S5",
        relations={"a": {"u": {"u", "v"}, "v": {"u", "v"}}},
    )
    assert frame_violations(ok) == []
    missing_refl = _tiny(frame="S5", relations={"a": {"u": {"v"}, "v": {"v"}}})
    assert any("reflexive" in p for p in frame_violations(missing_refl))


def test_frame_violations_kd45():
    not_serial = _tiny(frame="KD45", relations={"a": {"u": {"v"}, "v": set()}})
    assert any("serial" in p for p in frame_violations(not_serial))
    # u -> v -> v but u's successor set {v} is closed: fine
    belief = _tiny(frame="KD45", relations={"a": {"u": {"v"}, "v": {"v"}}})
    assert frame_violations(belief) == []
    m3 = GradedKripkeModel(
        agents=["a"], atoms=[], worlds=["u", "v", "w"],
        relations={"a": {"u": {"v"}, "v": {"w"}, "w": {"w"}}},
        valuation={w: set() for w in "uvw"},
        desirability={w: 0 for w in "uvw"},
        frame="KD45",
    )
    assert any("transitive" in p for p in frame_violations(m3))


def test_frame_violations_exempt_eval_only_roots():
    # u is a retained evaluation root: outgoing edge only, no self loop
    m = _tiny(
        frame="S5",
        relations={"a": {"u": {"v"}, "v": {"v"}}},
        eval_only=frozenset({"u"}),
        root="u",
    )
    assert frame_violations(m) == []


def _per_world_violations(m):
    """frame_violations' list, world by world and edge by edge."""
    problems = []
    core = m.domain_worlds()
    for a in m.agents:
        succ = m.relations[a]
        if m.frame in ("KD45", "S5"):
            for w in core:
                if not succ[w]:
                    problems.append(f"{a!r} is not serial at {world_id(w)}")
            for w in core:
                for u in succ[w]:
                    if not succ[u] <= succ[w]:
                        problems.append(f"{a!r} is not transitive at {world_id(w)} -> {world_id(u)}")
                        break
            for w in core:
                for u in succ[w]:
                    if not succ[w] <= succ[u]:
                        problems.append(f"{a!r} is not euclidean at {world_id(w)} -> {world_id(u)}")
                        break
        if m.frame == "S5":
            for w in core:
                if w not in succ[w]:
                    problems.append(f"{a!r} is not reflexive at {world_id(w)}")
    return problems


def _first_relation_error(agents, worlds, relations, eval_only):
    """_basic_check's message for the relations, found world by world."""
    for a in agents:
        for w in worlds:
            succ = set(relations[a].get(w, ()))
            if succ - set(worlds):
                return f"relation for {a!r} leaves the domain at {w}"
            if succ & eval_only:
                return f"relation for {a!r} enters an evaluation-only world at {w}"
    return None


@st.composite
def _relations(draw):
    """(frame, agents, worlds, relations): each agent's relation starts as a
    partition into cells, whose worlds share a set, and some worlds' sets are
    replaced by random ones, so most relations break their frame."""
    n = draw(st.integers(2, 6))
    worlds = [f"w{k}" for k in range(n)]
    agents = ["a", "b"][: draw(st.integers(1, 2))]
    relations = {}
    for a in agents:
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        noise = draw(st.lists(
            st.one_of(st.none(), st.none(), st.sets(st.sampled_from(worlds))),
            min_size=n, max_size=n,
        ))
        relations[a] = {
            w: set(extra) if extra is not None else {u for u, l in zip(worlds, labels) if l == label}
            for w, label, extra in zip(worlds, labels, noise)
        }
    return draw(st.sampled_from(["S5", "KD45"])), agents, worlds, relations


_frame_fuzz = settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))


@_frame_fuzz
@given(_relations(), st.data())
def test_per_set_frame_check_matches_the_per_world_one(drawn, data):
    frame, agents, worlds, relations = drawn
    eval_only = data.draw(st.sets(st.sampled_from(worlds), max_size=1))
    for rel in relations.values():  # no edge may enter an evaluation-only world
        for w in worlds:
            rel[w] -= eval_only
    m = GradedKripkeModel(
        agents, [], worlds, relations, {w: () for w in worlds}, {w: 0 for w in worlds},
        frame=frame, eval_only=eval_only,
    )
    assert frame_violations(m) == _per_world_violations(m)


@_frame_fuzz
@given(_relations(), st.data())
def test_a_bad_shared_set_is_named_at_its_first_world(drawn, data):
    # a stray edge, or an edge into an evaluation-only world, put on a set
    # several worlds share: the message names the first such world
    frame, agents, worlds, relations = drawn
    a = data.draw(st.sampled_from(agents))
    rel = relations[a]
    sharing = [w for w in worlds if sum(rel[u] == rel[w] for u in worlds) >= 2]
    assume(sharing)
    shared = rel[data.draw(st.sampled_from(sharing))]
    holders = [w for w in worlds if rel[w] == shared]
    eval_only = set()
    if data.draw(st.booleans()):
        bad = "zz"
    else:
        bad = data.draw(st.sampled_from(worlds))
        eval_only = {bad}
    for w in holders:
        rel[w] = shared | {bad}
    want = _first_relation_error(agents, worlds, relations, eval_only)
    assert want is not None
    with pytest.raises(ValidationError) as caught:
        GradedKripkeModel(
            agents, [], worlds, relations, {w: () for w in worlds}, {w: 0 for w in worlds},
            frame=frame, eval_only=eval_only,
        )
    assert str(caught.value) == want


def test_relations_are_frozen_copies():
    rel = {"a": {"u": {"v"}, "v": set()}}
    m = _tiny(relations=rel)
    rel["a"]["u"].add("u")
    assert m.successors("a", "u") == frozenset({"v"})


def test_model_mappings_are_read_only():
    m = _tiny()
    with pytest.raises(TypeError):
        m.relations["b"] = {}
    with pytest.raises(TypeError):
        m.relations["a"]["u"] = frozenset()
    with pytest.raises(TypeError):
        del m.relations["a"]["v"]
    with pytest.raises(TypeError):
        m.valuation["u"] = frozenset()
    with pytest.raises(TypeError):
        m.desirability["u"] = 5
    assert m.successors("a", "u") == frozenset({"v"}) and m.value_of("u") == 1


def test_model_attributes_cannot_be_rebound():
    m = _tiny(root="u", agent_filter="a", name="m")
    names = (
        "agents", "atoms", "worlds", "relations", "valuation", "desirability",
        "frame", "root", "agent_filter", "eval_only", "name", "_world_set", "_cache",
    )
    for name in names:
        before = getattr(m, name)
        with pytest.raises(AttributeError):
            setattr(m, name, before)
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert getattr(m, name) is before
    with pytest.raises(AttributeError):
        m.extra = 1


def test_memo_builds_each_entry_once():
    m = _tiny()
    built = []

    def build(x):
        built.append(x)
        return None if x == 0 else [x]  # a stored None is still a hit

    first = m.memo(("test", 1), build, 1)
    assert m.memo(("test", 1), build, 1) is first
    assert m.memo(("test", 0), build, 0) is None
    assert m.memo(("test", 0), build, 0) is None
    assert built == [1, 0]


def test_memo_stores_nothing_when_the_build_raises():
    m = _tiny()
    built = []

    def build():
        built.append(1)
        raise UnknownWorld("nowhere")

    for _ in range(2):
        with pytest.raises(UnknownWorld):
            m.memo(("test",), build)
    assert len(built) == 2
