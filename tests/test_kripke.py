"""Model construction, world keys, and frame-class checking."""

import pytest

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


def test_relations_are_frozen_copies():
    rel = {"a": {"u": {"v"}, "v": set()}}
    m = _tiny(relations=rel)
    rel["a"]["u"].add("u")
    assert m.successors("a", "u") == frozenset({"v"})
