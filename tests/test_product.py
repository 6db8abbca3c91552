"""Product update: survival, edges, inheritance, and the brute-force oracle."""

import random
from importlib import import_module

import pytest

from oracles import OracleError, o_eval, o_product, omodel
from oughtcheck.actions import DecisionPoint
from oughtcheck.errors import CheckerError, EmptyProduct, IsolatedRoot, Unsatisfiable
from oughtcheck.formula import And, Atom, Diamond, ExpAtom, Know, Not, TRUE
from oughtcheck.generate import GenParams, gen_decision_point, gen_model
from oughtcheck.kripke import GradedKripkeModel, extend_world
from oughtcheck.product import apply_sequence, product
from oughtcheck.semantics import evaluate_plain
from oughtcheck.submodel import agent_submodel


def test_survival_and_inheritance(line_model, pick):
    pm = product(line_model, pick)
    # q holds at w0 and w2 only, so 'hi' survives there; 'lo' everywhere
    hi = [("w0", (("P", "hi"),)), ("w2", (("P", "hi"),))]
    lo = [(w, (("P", "lo"),)) for w in ["w0", "w1", "w2", "w3"]]
    assert sorted(pm.worlds) == sorted(hi + lo)
    for w in pm.worlds:
        assert pm.valuation[w] == line_model.valuation[w[0]]
        assert pm.desirability[w] == line_model.desirability[w[0]]
    assert pm.frame == "K"
    assert pm.eval_only == frozenset()


def test_worlds_ordered_base_first_then_event(line_model, pick):
    pm = product(line_model, pick)
    assert pm.worlds == (
        ("w0", (("P", "hi"),)),
        ("w0", (("P", "lo"),)),
        ("w1", (("P", "lo"),)),
        ("w2", (("P", "hi"),)),
        ("w2", (("P", "lo"),)),
        ("w3", (("P", "lo"),)),
    )


def test_edges_need_base_edge_and_event_relation(line_model, pick):
    pm = product(line_model, pick)
    w0hi = ("w0", (("P", "hi"),))
    w0lo = ("w0", (("P", "lo"),))
    # x's block at w0 is {w0, w1}; only w0 carries q, so 'hi' can reach
    # only w0's own 'hi' image
    assert pm.successors("x", w0hi) == frozenset({w0hi})
    assert pm.successors("x", w0lo) == frozenset(
        {w0lo, ("w1", (("P", "lo"),))}
    )
    # no cross-event edges anywhere: the identity relation separates them
    for w in pm.worlds:
        for a in pm.agents:
            for u in pm.successors(a, w):
                assert w[1][-1][1] == u[1][-1][1]


def test_extra_event_edges_connect_events(line_model):
    blur = DecisionPoint(
        "P", "x", ["hi", "lo"],
        {"hi": Atom("q"), "lo": TRUE},
        relations={"y": {("hi", "lo")}},
        agents=["x", "y"],
    )
    pm = product(line_model, blur)
    w0hi = ("w0", (("P", "hi"),))
    w0lo = ("w0", (("P", "lo"),))
    succ = pm.successors("y", w0hi)
    # the identity is always included, the given (hi, lo) edge on top of it
    assert w0hi in succ and w0lo in succ
    assert ("w2", (("P", "hi"),)) in succ
    # the edge was one-directional: from a lo image, hi images stay apart
    assert w0hi not in pm.successors("y", w0lo)


def test_empty_product(line_model):
    dead = DecisionPoint(
        "N", "x", ["a", "b"],
        {"a": Not(TRUE), "b": Not(TRUE)},
        agents=["x", "y"],
    )
    with pytest.raises(EmptyProduct):
        product(line_model, dead)


def test_product_is_memoized(line_model, pick):
    assert product(line_model, pick) is product(line_model, pick)


def test_eval_only_images_stay_eval_only():
    m = GradedKripkeModel(
        agents=["x"],
        atoms=["p"],
        worlds=["u", "v"],
        relations={"x": {"u": {"v"}, "v": {"v"}}},
        valuation={"u": {"p"}, "v": {"p"}},
        desirability={"u": 7, "v": 1},
        frame="K",
    )
    # u cannot reach itself, so its submodel keeps it for evaluation only
    sub = agent_submodel(m, "u", "x")
    assert sub.eval_only == frozenset({"u"})
    again = DecisionPoint("R", "x", ["go", "stop"], {"go": TRUE, "stop": TRUE})
    pm2 = product(sub, again)
    root_images = {w for w in pm2.worlds if w[0] == "u"}
    assert root_images == {
        ("u", (("R", "go"),)),
        ("u", (("R", "stop"),)),
    }
    assert root_images <= pm2.eval_only
    # eval-only worlds keep outgoing edges and receive none
    for w in root_images:
        assert pm2.successors("x", w)
    for w in pm2.worlds:
        for u in pm2.successors("x", w):
            assert u not in pm2.eval_only


def test_apply_sequence_is_nested_product(line_model, pick):
    again = DecisionPoint(
        "R", "y", ["go", "stop"], {"go": Atom("p"), "stop": TRUE}, agents=["x", "y"]
    )
    nested = product(product(line_model, pick), again)
    seq = apply_sequence(line_model, [pick, again])
    assert nested.worlds == seq.worlds
    assert all(
        nested.successors(a, w) == seq.successors(a, w)
        for a in nested.agents
        for w in nested.worlds
    )


def test_update_keeps_values_for_every_surviving_world(line_model, pick):
    pm = product(line_model, pick)
    w = extend_world("w2", (("P", "hi"),))
    assert pm.desirability[w] == 2
    assert pm.valuation[w] == frozenset({"q"})


def test_against_oracle():
    """Fifty random model/point pairs: the package product and the
    brute-force product agree on worlds, edges, values, and survivors."""
    rng = random.Random(2024)
    params = GenParams(max_worlds=5)
    done = 0
    while done < 50:
        m = gen_model(rng, params)
        try:
            dp = gen_decision_point(rng, m, "U", params)
        except Unsatisfiable:
            continue
        om = omodel(m)
        pm = product(m, dp)
        opm = o_product(om, dp, {})
        assert set(pm.worlds) == opm["worlds"]
        assert pm.eval_only == frozenset(opm["eval_only"])
        for a in pm.agents:
            pairs = {(w, u) for w in pm.worlds for u in pm.successors(a, w)}
            assert pairs == opm["rel"][a]
        for w in pm.worlds:
            assert pm.valuation[w] == opm["val"][w]
            assert pm.desirability[w] == opm["des"][w]
        done += 1


def _mixed_pre(rng, model, earlier):
    """A precondition that is propositional about half the time, and else
    reads more than the valuation: knowledge, or, when an earlier point is
    given, an after-run diamond over it or an expectation atom about it."""
    atoms = list(model.atoms)

    def literal():
        a = Atom(rng.choice(atoms))
        return Not(a) if rng.random() < 0.4 else a

    shape = rng.randrange(7 if earlier is not None else 5)
    if shape == 0:
        return literal()
    if shape == 1:
        return And(literal(), Not(literal()))
    if shape == 2:
        return TRUE
    if shape == 3:
        return Know(rng.choice(model.agents), literal())
    if shape == 4:
        return Not(Know(rng.choice(model.agents), Not(literal())))
    step = ((earlier.id, rng.choice(earlier.events)),)
    if shape == 5:
        return Diamond(step, literal())
    return ExpAtom(earlier.owner, step)


def _mixed_point(rng, model, dp_id, earlier=None):
    events = ("x", "y", "z")[: rng.randint(2, 3)]
    return DecisionPoint(
        dp_id, rng.choice(model.agents), events,
        {ev: _mixed_pre(rng, model, earlier) for ev in events},
        agents=list(model.agents), env={earlier.id: earlier} if earlier is not None else None,
    )


def _splits_a_valuation(om, point, env):
    """Whether two worlds with one valuation keep different events."""
    kept = {}
    for w in om["order"]:
        try:
            events = tuple(e for e in point.events if o_eval(om, w, point.pre[e], env))
        except OracleError:
            continue
        if kept.setdefault(om["val"][w], events) != events:
            return True
    return False


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_both_precondition_paths_against_the_oracle(frame):
    """product decides a propositional point's preconditions once per
    valuation and walks any other point's at every world.  On models of up
    to 12 worlds over two atoms, where valuations repeat, both paths must
    give the oracle's worlds, order, edges, facts, values and
    evaluation-only worlds, or fail where it fails; the points mix
    propositional preconditions with knowledge, after-run and expectation
    ones, and second updates, on a model one point has updated, are
    checked too."""
    rng = random.Random(f"precondition paths:{frame}")
    params = GenParams(min_worlds=6, max_worlds=12, max_agents=2, atoms=("p", "q"), frame=frame)
    paths = {True: 0, False: 0}
    compared = errors = splits = 0
    for _ in range(50):
        m = gen_model(rng, params)
        v = _mixed_point(rng, m, "V")
        u = _mixed_point(rng, m, "U", earlier=v)
        env = {"V": v, "U": u}
        cases = [(m, v), (m, u)]
        for first, second in ((v, u), (u, v)):
            try:  # (m, first) is a case of its own, errors and all
                cases.append((product(m, first), second))
            except CheckerError:
                pass
        try:
            cases.append((agent_submodel(m, m.worlds[0], u.owner), u))
        except IsolatedRoot:
            pass
        splits += any(_splits_a_valuation(omodel(m), p, env) for p in (u, v) if not p.propositional)
        for base, action in cases:
            paths[action.propositional] += 1
            try:
                want = o_product(omodel(base), action, env)
            except (OracleError, CheckerError):
                want = None
            try:
                pm = product(base, action)
            except CheckerError:
                assert want is None, (frame, action)
                errors += 1
                continue
            assert want is not None, (frame, action)
            assert list(pm.worlds) == want["order"]
            assert pm.eval_only == frozenset(want["eval_only"])
            for a in pm.agents:
                assert {(w, x) for w in pm.worlds for x in pm.successors(a, w)} == want["rel"][a]
            for w in pm.worlds:
                assert pm.valuation[w] == want["val"][w]
                assert pm.desirability[w] == want["des"][w]
            compared += 1
    assert paths[True] >= 20 and paths[False] >= 150
    assert compared >= 120 and errors >= 20 and splits >= 10


def test_oracle_empty_matches_package_empty(line_model):
    """EmptyProduct fires exactly when the oracle finds no survivor."""
    rng = random.Random(77)
    m = line_model
    om = omodel(m)
    for _ in range(40):
        pre = {}
        for ev in ("a", "b"):
            kind = rng.random()
            if kind < 0.4:
                pre[ev] = Atom(rng.choice(["p", "q"]))
            elif kind < 0.7:
                pre[ev] = Not(Atom(rng.choice(["p", "q"])))
            else:
                pre[ev] = Not(TRUE)
        dp = DecisionPoint("Z", "x", ("a", "b"), pre, agents=["x", "y"])
        brute_empty = not any(
            o_eval(om, w, pre[ev], {}) for w in om["worlds"] for ev in ("a", "b")
        )
        try:
            product(m, dp)
            raised = False
        except EmptyProduct:
            raised = True
        assert raised == brute_empty


def test_an_empty_update_is_built_once_and_raises_each_time(line_model, monkeypatch):
    product_module = import_module("oughtcheck.product")  # the package's `product` is the function
    builds = []
    update = product_module._update

    def counted(model, action, agents):
        builds.append(action.id)
        return update(model, action, agents)

    monkeypatch.setattr(product_module, "_update", counted)
    dp = DecisionPoint("Z", "x", ("a", "b"), {"a": Not(TRUE), "b": Not(TRUE)}, agents=["x", "y"])
    raised = []
    for _ in range(2):
        with pytest.raises(EmptyProduct) as info:
            product(line_model, dp)
        raised.append((type(info.value), str(info.value)))
    assert builds == ["Z"]
    assert raised[0] == raised[1] and "'Z'" in raised[0][1]


def _per_edge_relations(model, action):
    """Reference: the product's edges by one q_related call per base edge
    and pair of surviving events, as product computed them before it built
    event-relatedness tables."""
    env = getattr(action, "env", None) or {}
    survives = {
        w: [k for k in action.event_keys if evaluate_plain(model, w, action.pre_formula(k), env)]
        for w in model.worlds
    }
    relations = {a: {} for a in model.agents}
    for w in model.worlds:
        for a in model.agents:
            for key in survives[w]:
                relations[a][extend_world(w, key)] = frozenset(
                    extend_world(u, ukey)
                    for u in model.successors(a, w)
                    for ukey in survives[u]
                    if action.q_related(a, key, ukey)
                )
    return relations


def _with_extra_edges(rng, dp, agents):
    """The decision point with random event relations beyond the identity,
    declared for some agents only (the others can tell every event apart)."""
    declared = rng.sample(agents, rng.randint(1, len(agents)))
    relations = {
        a: [(e1, e2) for e1 in dp.events for e2 in dp.events if rng.random() < 0.4]
        for a in declared
    }
    return DecisionPoint(dp.id, dp.owner, dp.events, dp.pre, relations=relations, agents=declared)


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_edges_match_the_per_edge_loop(frame):
    rng = random.Random(f"edges:{frame}")
    params = GenParams(max_worlds=6, frame=frame)
    extra = done = 0
    while done < 40:
        m = gen_model(rng, params)
        try:
            u = _with_extra_edges(rng, gen_decision_point(rng, m, "U", params), list(m.agents))
            v = gen_decision_point(rng, m, "V", params)
        except Unsatisfiable:
            continue
        extra += u.extra_edges
        cases = [(m, u)]
        try:
            cases.append((product(m, u), v))
        except EmptyProduct:
            pass
        try:
            cases.append((agent_submodel(m, m.worlds[0], u.owner), u))
        except IsolatedRoot:
            pass
        for base, action in cases:
            try:
                pm = product(base, action)
            except EmptyProduct:
                continue
            want = _per_edge_relations(base, action)
            for a in pm.agents:
                assert list(pm.relations[a]) == list(want[a]) == list(pm.worlds)
                assert pm.relations[a] == want[a]
        done += 1
    assert extra > 20


def test_event_relatedness_is_tabled_once_per_action_and_agent(line_model, pick, monkeypatch):
    """Every product by one action reads the same table per agent: a second
    build, on another model, asks q_related nothing more.  An agent the
    action does not mention can only tell an event from itself."""
    calls = []
    q_related = DecisionPoint.q_related
    monkeypatch.setattr(
        DecisionPoint, "q_related", lambda self, *args: calls.append(args) or q_related(self, *args)
    )
    product(line_model, pick)
    assert len(calls) == len(line_model.agents) * len(pick.events) ** 2
    product(agent_submodel(line_model, "w0", "y"), pick)
    assert len(calls) == len(line_model.agents) * len(pick.events) ** 2
    assert pick.related("z") == {key: frozenset([key]) for key in pick.event_keys}


def _sweep_shaped():
    """200 worlds in 5 S5 cells, 4 valuations over p and q, and a point U of
    3 events guarded by p, q and true."""
    worlds = [f"w{k}" for k in range(200)]
    cells = [worlds[k::5] for k in range(5)]
    model = GradedKripkeModel(
        agents=["i"], atoms=["p", "q"], worlds=worlds,
        relations={"i": {w: cell for cell in cells for w in cell}},
        valuation={w: [("p", "q"), ("p",), ("q",), ()][k % 4] for k, w in enumerate(worlds)},
        desirability={w: k % 10 for k, w in enumerate(worlds)},
        frame="S5",
    )
    point = DecisionPoint("U", "i", ["a", "b", "c"], {"a": Atom("p"), "b": Atom("q"), "c": TRUE})
    return model, point


def test_a_propositional_point_is_walked_once_per_valuation(monkeypatch):
    """A work gate, counted rather than timed: updating 200 worlds with 4
    valuations by 3 propositional preconditions walks 4 x 3 of them; a
    point with a knowledge precondition is walked at every world."""
    semantics = import_module("oughtcheck.semantics")
    walks = []
    evaluate = semantics.evaluate_plain
    monkeypatch.setattr(
        semantics, "evaluate_plain", lambda *args: walks.append(args[1]) or evaluate(*args)
    )
    model, point = _sweep_shaped()
    assert point.propositional
    pm = product(model, point)
    assert len(walks) <= 4 * 3 and len(pm.worlds) == 400
    walks.clear()
    knowing = DecisionPoint("K", "i", ["a", "b"], {"a": Know("i", Atom("p")), "b": TRUE})
    assert not knowing.propositional
    product(model, knowing)
    assert len(walks) == 200 * 2


def test_product_successor_sets_are_built_once_per_successor_and_relatedness_set(monkeypatch):
    """A work gate, counted: along a run of 3 points, each agent's product
    successor sets are built once per (successor set, set of related
    events) among the surviving images, so an agent blind to a point's
    events builds one per successor set, not one per event."""
    builds = []
    # the one frozenset product makes is a product successor set
    monkeypatch.setattr(
        import_module("oughtcheck.product"), "frozenset",
        lambda items: builds.append(1) or frozenset(items), raising=False,
    )
    model, _ = _sweep_shaped()
    halves = (model.worlds[:100], model.worlds[100:])
    model = GradedKripkeModel(
        agents=["a", "b"], atoms=model.atoms, worlds=model.worlds,
        relations={
            "a": model.relations["i"],
            "b": {w: halves[k // 100] for k, w in enumerate(model.worlds)},
        },
        valuation=model.valuation, desirability=model.desirability, frame="S5",
    )
    pres = {"x": Atom("p"), "y": Not(Atom("q")), "z": TRUE}
    run = []
    for k, (owner, blind) in enumerate([("a", "b"), ("b", "a"), ("a", "b")]):
        events = ["x", "y", "z"]
        run.append(DecisionPoint(
            f"U{k}", owner, events, pres, agents=["a", "b"],
            relations={blind: [(e1, e2) for e1 in events for e2 in events]},
        ))
    for point in run:
        builds.clear()
        pm = product(model, point)
        want = 0
        for a in model.agents:
            pairs = {
                (model.relations[a][w], frozenset(k2 for k2 in point.event_keys
                                                  if point.q_related(a, key, k2)))
                for w in model.worlds
                for key in point.event_keys
                if pm.has_world(extend_world(w, key))
            }
            if a != point.owner:  # blind: one related set for every event
                assert len(pairs) == len({succ for succ, _ in pairs})
            want += len(pairs)
        assert len(builds) == want
        model = pm
    assert len(model.worlds) > 200
