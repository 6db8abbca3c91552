"""JSON documents for models and decision points, plus DOT export."""

import json
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oughtcheck.docio import (
    actions_from_doc,
    actions_to_doc,
    dump_json,
    load_actions_file,
    load_model_file,
    model_from_doc,
    model_to_doc,
    to_dot,
)
from oughtcheck.errors import (
    CheckerError,
    CyclicPrecondition,
    UnknownAgent,
    UnknownEvent,
    UnknownWorld,
    ValidationError,
)
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.scenarios import allergy_model


def _same_model(a: GradedKripkeModel, b: GradedKripkeModel) -> None:
    assert [str(w) for w in b.worlds] == [str(w) for w in a.worlds]
    assert b.agents == a.agents
    assert set(b.atoms) == set(a.atoms)
    assert b.frame == a.frame
    for w, u in zip(a.worlds, b.worlds):
        assert b.atoms_at(u) == a.atoms_at(w)
        assert b.value_of(u) == a.value_of(w)
    for ag in a.agents:
        assert set(b.pairs(ag)) == set(a.pairs(ag))


def test_model_round_trip(line_model):
    doc = model_to_doc(line_model)
    back, point = model_from_doc(doc)
    assert point is None
    _same_model(line_model, back)


def test_model_round_trip_with_extras():
    m = GradedKripkeModel(
        agents=["a"],
        atoms=["p"],
        worlds=["u", "v"],
        relations={"a": {"u": {"v"}, "v": {"v"}}},
        valuation={"u": {"p"}, "v": set()},
        desirability={"u": 1, "v": 2},
        frame="K",
        root="u",
        eval_only=frozenset({"u"}),
        name="tiny",
    )
    doc = model_to_doc(m, point="v")
    back, point = model_from_doc(doc)
    assert point == "v"
    assert back.name == "tiny"
    assert back.root == "u"
    assert back.eval_only == frozenset({"u"})
    _same_model(m, back)


def test_model_doc_validation():
    with pytest.raises(ValidationError, match="lacks"):
        model_from_doc({"agents": ["a"], "atoms": [], "worlds": []})
    base = {
        "agents": ["a"],
        "atoms": [],
        "worlds": [{"id": "u"}],
        "relations": {"a": [["u", "u"]]},
    }
    bad_agent = dict(base, relations={"b": []})
    with pytest.raises(UnknownAgent):
        model_from_doc(bad_agent)
    bad_pair = dict(base, relations={"a": [["u", "zz"]]})
    with pytest.raises(UnknownWorld):
        model_from_doc(bad_pair)
    bad_point = dict(base, point="zz")
    with pytest.raises(UnknownWorld):
        model_from_doc(bad_point)


def test_strict_frame_loading():
    doc = {
        "agents": ["a"],
        "atoms": [],
        "frame": "S5",
        "worlds": [{"id": "u"}, {"id": "v"}],
        "relations": {"a": [["u", "u"]]},  # v has no loop: not reflexive
    }
    with pytest.raises(ValidationError, match="frame"):
        model_from_doc(doc)
    m, _ = model_from_doc(doc, strict_frame=False)
    assert m.frame == "S5"


def test_actions_round_trip():
    _, points = allergy_model()
    doc = actions_to_doc(points)
    back, notes = actions_from_doc(doc)
    assert notes == []
    assert [p.id for p in back] == [p.id for p in points]
    for orig, loaded in zip(points, back):
        assert loaded.owner == orig.owner
        assert loaded.events == orig.events
        assert loaded.agents == orig.agents
        assert loaded.pre == orig.pre
        for ag in orig.agents:
            assert set(loaded.relations[ag]) == set(orig.relations[ag])


def test_single_entry_and_list_docs():
    entry = {
        "id": "U",
        "owner": "i",
        "events": [{"name": "x", "pre": "true"}, {"name": "y", "pre": "p"}],
    }
    points, _ = actions_from_doc(entry)
    assert [p.id for p in points] == ["U"]
    points, _ = actions_from_doc([entry])
    assert [p.id for p in points] == ["U"]


def test_relations_of_an_agent_outside_the_point_are_rejected():
    entry = {
        "id": "U",
        "owner": "b",
        "events": [{"name": "delta", "pre": "true"}, {"name": "gamma", "pre": "true"}],
        "relations": {"a": [["delta", "gamma"], ["gamma", "delta"]]},
    }
    with pytest.raises(UnknownAgent, match="relation of 'U' for undeclared agent 'a'"):
        actions_from_doc(entry)
    points, notes = actions_from_doc(dict(entry, agents=["a"]))
    assert points[0].q_related("a", (("U", "delta"),), (("U", "gamma"),))
    assert len(notes) == 1


def test_earlier_point_may_appear_in_later_pre():
    doc = {
        "actions": [
            {
                "id": "U",
                "owner": "i",
                "events": [{"name": "x", "pre": "true"}, {"name": "y", "pre": "true"}],
            },
            {
                "id": "V",
                "owner": "i",
                "events": [
                    {"name": "go", "pre": "<U.x> true"},
                    {"name": "stay", "pre": "true"},
                ],
            },
        ]
    }
    points, _ = actions_from_doc(doc)
    assert [p.id for p in points] == ["U", "V"]


def test_pre_reference_errors():
    u = {
        "id": "U",
        "owner": "i",
        "events": [{"name": "x", "pre": "true"}, {"name": "y", "pre": "true"}],
    }

    def v(pre):
        return {
            "id": "V",
            "owner": "i",
            "events": [{"name": "go", "pre": pre}, {"name": "stay", "pre": "true"}],
        }

    for forward in ("<{}> true", "e{{i; {}}}", "O{{i}}({} | true)"):
        with pytest.raises(CyclicPrecondition, match="^precondition of V.go: .*'V'"):
            actions_from_doc({"actions": [v(forward.format("V.go"))]})  # self-reference
        with pytest.raises(CyclicPrecondition, match="^precondition of V.go: .*'U'"):
            actions_from_doc({"actions": [v(forward.format("U.x")), u]})  # declared later
    with pytest.raises(UnknownEvent):  # undeclared point
        actions_from_doc({"actions": [u, v("<W.z> true")]})
    with pytest.raises(UnknownEvent):  # undeclared event of a declared point
        actions_from_doc({"actions": [u, v("<U.zz> true")]})
    with pytest.raises(ValidationError, match="own"):  # wrong owner in e-atom
        actions_from_doc({"actions": [u, v("e{j; U.x}")]})
    with pytest.raises(ValidationError, match="duplicate"):
        actions_from_doc({"actions": [u, u]})


def test_dump_json_round():
    _, points = allergy_model()
    text = dump_json(actions_to_doc(points))
    assert json.loads(text) == actions_to_doc(points)


def test_file_loaders(tmp_path, line_model):
    mp = tmp_path / "model.json"
    mp.write_text(dump_json(model_to_doc(line_model, point="w0")))
    m, point = load_model_file(str(mp))
    assert point == "w0"
    _same_model(line_model, m)

    ap = tmp_path / "actions.json"
    _, points = allergy_model()
    ap.write_text(dump_json(actions_to_doc(points)))
    back, notes = load_actions_file(str(ap))
    assert [p.id for p in back] == ["U", "U2"]


def test_dot_output():
    m = GradedKripkeModel(
        agents=["a", "b"],
        atoms=["p"],
        worlds=["u", "v", "x"],
        relations={
            "a": {"u": {"u", "v"}, "v": {"v"}, "x": {"v"}},
            "b": {"u": {"u"}, "v": {"v"}},
        },
        valuation={"u": {"p"}, "v": set(), "x": set()},
        desirability={"u": 1, "v": 2, "x": 3},
        frame="K",
        root="u",
        eval_only=frozenset({"x"}),
    )
    dot = to_dot(m)
    assert dot == to_dot(m)  # deterministic
    assert dot.startswith("digraph model {")
    assert dot.endswith("}\n")
    assert '"u" [label="u\\np\\nf=1", peripheries=2];' in dot
    assert '"v" [label="v\\n-\\nf=2"];' in dot
    assert '"x" [label="x\\n-\\nf=3", style=dashed];' in dot
    assert '"u" -> "u" [label="a,b"];' in dot
    assert '"u" -> "v" [label="a"];' in dot
    # edge order follows world order
    assert dot.index('"u" -> "u"') < dot.index('"u" -> "v"') < dot.index('"v" -> "v"')
    assert dot.index('"v" -> "v"') < dot.index('"x" -> "v"')

    bare = to_dot(m, include_loops=False)
    assert '"u" -> "u"' not in bare
    assert '"v" -> "v"' not in bare
    assert '"u" -> "v"' in bare


def test_dot_quotes_awkward_ids():
    m = GradedKripkeModel(
        agents=["a"],
        atoms=[],
        worlds=['w "q"'],
        relations={"a": {'w "q"': {'w "q"'}}},
        valuation={'w "q"': set()},
        desirability={'w "q"': 0},
        frame="K",
    )
    dot = to_dot(m)
    assert '"w \\"q\\""' in dot


def test_malformed_shapes_are_validation_errors():
    for doc in (3, None, "worlds", [], {"agents": "a", "atoms": [], "worlds": [], "relations": {}}):
        with pytest.raises(ValidationError):
            model_from_doc(doc)
    base = {"agents": ["a"], "atoms": ["p"], "worlds": [{"id": "u"}], "relations": {}}
    for change in (
        {"worlds": [{"id": ["u"]}]},
        {"worlds": [{"id": "u", "true_atoms": "p"}]},
        {"worlds": [{"id": "u", "value": "many"}]},
        {"worlds": [{"id": "u", "value": float("nan")}]},
        {"worlds": [{"id": "u", "value": 1.9}]},
        {"worlds": [{"id": "u", "value": 2.0}]},
        {"worlds": [{"id": "u", "value": "12"}]},
        {"worlds": [{"id": "u", "value": True}]},
        {"relations": {"a": [["u"]]}},
        {"relations": {"a": 5}},
        {"root": ["u"]},
        {"eval_only": [["u"]]},
        {"point": {"u": 1}},
    ):
        with pytest.raises(ValidationError):
            model_from_doc(dict(base, **change))
    loaded, _ = model_from_doc(dict(base, worlds=[{"id": "u", "value": -3}]))
    assert loaded.value_of("u") == -3
    # an id that is not a string names no world
    with pytest.raises(UnknownWorld):
        model_from_doc(dict(base, relations={"a": [["u", ["u"]]]}))
    for doc in (3, "U", None, {"worlds": 5}, {"actions": 5}, [{"id": "U"}]):
        with pytest.raises(ValidationError):
            actions_from_doc(doc)
    point = {"id": "U", "owner": "i", "events": [{"name": "x", "pre": "true"}, {"name": "y", "pre": "p"}]}
    for change in (
        {"id": 5},
        {"events": [{"name": "x", "pre": 3}, {"name": "y", "pre": "p"}]},
        {"events": "xy"},
        {"relations": {"i": [["x"]]}},
        {"relations": [["x", "y"]]},
        {"agents": "i"},
    ):
        with pytest.raises(ValidationError):
            actions_from_doc(dict(point, **change))


# JSON-shaped values: what json.load can return (NaN and infinities included)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(["u", "v", "a", "i", "p", "x", "U", "true", "S5"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(["id", "name", "a"]), inner, max_size=3),
    max_leaves=10,
)
_GOOD_MODEL = {
    "agents": ["a"], "atoms": ["p"], "frame": "K", "point": "u",
    "worlds": [{"id": "u", "true_atoms": ["p"], "value": 1}, {"id": "v", "value": 2}],
    "relations": {"a": [["u", "v"], ["v", "v"]]},
}
_GOOD_ACTIONS = {
    "actions": [
        {"id": "U", "owner": "a", "events": [{"name": "x", "pre": "true"}, {"name": "y", "pre": "p"}]},
        {
            "id": "W", "owner": "a", "agents": ["a"],
            "events": [{"name": "x", "pre": "<U.x> p"}, {"name": "y", "pre": "true"}],
            "relations": {"a": [["x", "y"]]},
        },
    ]
}


def _paths(doc, extra_keys):
    """Every position inside a document, plus optional keys it leaves out."""
    out = [()]
    if isinstance(doc, dict):
        keys = list(doc) + [k for k in extra_keys if k not in doc]
        for k in keys:
            out += [(k,) + p for p in (_paths(doc[k], extra_keys) if k in doc else [()])]
    elif isinstance(doc, list):
        for i, x in enumerate(doc):
            out += [(i,) + p for p in _paths(x, extra_keys)]
    return out


def _put(doc, path, value):
    """doc with the value at path replaced (or added); a path that an
    earlier replacement cut off leaves doc as it is."""
    if not path:
        return value
    target = doc
    try:
        for step in path[:-1]:
            target = target[step]
        if isinstance(target, dict) or isinstance(path[-1], int) and isinstance(target, list):
            target[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


def _mutants(good, extra_keys):
    """The good document with one or two positions replaced by arbitrary
    JSON values, so that every field is reached with the others intact."""

    def apply(changes):
        doc = json.loads(json.dumps(good))
        for path, value in changes:
            doc = _put(doc, path, value)
        return doc

    paths = st.sampled_from(_paths(good, extra_keys))
    return st.lists(st.tuples(paths, _json), min_size=1, max_size=2).map(apply)


_fuzz = settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))


@_fuzz
@given(_mutants(_GOOD_MODEL, ("root", "agent_filter", "eval_only", "name", "true_atoms", "id")))
def test_model_loader_fuzz_raises_only_checker_errors(doc):
    try:
        model_from_doc(doc)
    except CheckerError:
        pass


@_fuzz
@given(_mutants(_GOOD_ACTIONS, ("relations", "agents", "name", "pre")))
def test_actions_loader_fuzz_raises_only_checker_errors(doc):
    try:
        actions_from_doc(doc)
    except CheckerError:
        pass


# --- the per-pair relation reader that model_from_doc replaced, kept as a reference


def _per_pair_adjacency(doc):
    """Reference: agent -> world -> successor set, each pair checked in list
    order; raises the first bad pair's error."""
    known = {e["id"] for e in doc["worlds"]}
    out = {}
    for agent, pairs in doc["relations"].items():
        adj = {w: set() for w in known}
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValidationError(f"relation pair {pair!r} is not a pair of world ids")
            w, u = pair
            if not (isinstance(w, str) and isinstance(u, str) and w in known and u in known):
                raise UnknownWorld(f"relation pair {pair!r} mentions an unknown world")
            adj[w].add(u)
        out[agent] = adj
    return out


Pair = namedtuple("Pair", "w u")


class PairList(list):
    pass


# one-letter ids, so that a two-letter string or a two-key object unpacks
# into two known ids and only the shape check rejects it
_IDS = ["a", "b", "c"]
_member = st.sampled_from(_IDS)
_good_pair = st.tuples(_member, _member).flatmap(
    lambda p: st.sampled_from([list(p), tuple(p), Pair(*p), PairList(p)])
)
_odd_member = st.sampled_from([0, 7, None, ["a"], "zz", ""])
_bad_pair = st.one_of(
    st.sampled_from(["ab", "ca", None, {"a": "b", "b": "c"}]),
    st.lists(_member, min_size=1, max_size=1),
    st.lists(_member, min_size=3, max_size=3),
    st.tuples(_member, _odd_member).map(list),
    st.tuples(_odd_member, _member).map(list),
    st.tuples(_odd_member, _member),
)
_pair_list = st.one_of(
    st.lists(_good_pair, max_size=8),
    st.lists(st.one_of(_good_pair, _good_pair, _bad_pair), max_size=8),
)


@settings(max_examples=400, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.fixed_dictionaries({"a": _pair_list, "b": _pair_list}))
def test_relation_lists_load_as_the_per_pair_reader_does(relations):
    doc = {
        "agents": ["a", "b"], "atoms": [], "frame": "K",
        "worlds": [{"id": w} for w in _IDS],
        "relations": relations,
    }
    try:
        want = _per_pair_adjacency(doc)
    except CheckerError as exc:
        with pytest.raises(type(exc)) as got:
            model_from_doc(doc)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    model, _ = model_from_doc(doc)
    for agent, adj in want.items():
        assert {w: set(model.successors(agent, w)) for w in _IDS} == adj
