"""Slots of alike worlds (semantics.alike_worlds).

The outcome store keeps one outcome per slot, not per world: worlds with
the same trace, valuation, evaluation-only status and successor set for
every agent share a slot, so the first walk at one of them decides them
all.  An error is kept for the world it was raised at, and a slot-mate
runs the clause again, so every message names the world asked.

These tests build S5, KD45 and K models full of twin worlds, by cloning
worlds, and their products, and pin that a store read by slot answers as
the brute-force oracle (verdict, or error) and as a cold walk at each world
on a fresh twin of the model (verdict, or error class and message).  They
include a product by a point no agent can tell apart, whose twins differ
only by trace and so share no slot, and K-frame roots outside their own
horizon, which become the evaluation-only roots of their carriers.  The
last tests are counted work gates on the shape of the obligation sweep.
"""

import random
from collections import Counter
from functools import partial

import pytest

import oughtcheck.semantics as semantics
from oracles import OracleError, o_eval, omodel
from oughtcheck.actions import DecisionPoint
from oughtcheck.errors import CheckerError, Unsatisfiable
from oughtcheck.formula import TRUE, Atom, ExpAtom, Know, Ought
from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.parser import parse
from oughtcheck.product import product
from oughtcheck.semantics import alike_worlds, atom_carrier, evaluate, evaluate_plain
from oughtcheck.submodel import agent_submodel
from test_know_table import _outcome, twin


def cloned(m, rng, count, orphans):
    """m with `count` of its worlds cloned.  A clone has its world's facts,
    any value, and its world's successors; it is put at a random place in
    world order.  A full clone also enters every set its world is in, so it
    keeps the frame class; an orphan clone (when `orphans`, half of them)
    enters none, so nothing reaches it, and on a K frame it is a root
    outside its own horizon."""
    worlds = list(m.worlds)
    succ = {a: {w: set(m.relations[a][w]) for w in worlds} for a in m.agents}
    valuation, desirability = dict(m.valuation), dict(m.desirability)
    for n, w in enumerate(rng.sample(list(m.worlds), min(count, len(m.worlds)))):
        c = f"{w}c{n}"
        for a in m.agents:
            if not (orphans and rng.random() < 0.5):
                for v in list(succ[a]):
                    if w in succ[a][v]:
                        succ[a][v].add(c)
            succ[a][c] = set(succ[a][w])
        valuation[c], desirability[c] = valuation[w], rng.randint(0, 9)
        worlds.insert(rng.randint(0, len(worlds)), c)
    return GradedKripkeModel(
        m.agents, m.atoms, worlds, succ, valuation, desirability, frame=m.frame
    )


def blind(m, dp_id):
    """A point of two events, both available everywhere, that no agent of m
    can tell apart: its product's images of one world differ only by trace."""
    both = {(e1, e2) for e1 in ("x", "y") for e2 in ("x", "y")}
    return DecisionPoint(
        dp_id, m.agents[0], ("x", "y"), {"x": TRUE, "y": TRUE},
        relations={a: both for a in m.agents}, agents=m.agents,
    )


def _twinned(rng, frame, count):
    """count (model with twins, env, decision point a formula may not start
    with): cloned base models, their products by U, and their products by
    B, the blind point.  U's preconditions are sometimes knowledge
    formulas, so that a precondition walk reads the store."""
    params = GenParams(max_worlds=4, max_agents=2, frame=frame)
    out = []
    while len(out) < count:
        m = cloned(gen_model(rng, params), rng, 3, orphans=frame != "S5")
        try:
            env = {}
            env["U"] = gen_decision_point(rng, m, "U", params, env=env)
            env["V"] = gen_decision_point(rng, m, "V", params, env=env)
        except Unsatisfiable:
            continue
        if rng.random() < 0.5:
            pre = {ev: Know(rng.choice(m.agents), f) for ev, f in env["U"].pre.items()}
            env["U"] = DecisionPoint("U", env["U"].owner, env["U"].events, pre)
        env["B"] = blind(m, "B")
        out.append((m, env, None))
        for dp_id in ("U", "B"):
            try:
                out.append((product(m, env[dp_id]), env, dp_id))
            except CheckerError:
                pass
    return out


def _oracle(om, w, f, env):
    try:
        return o_eval(om, w, f, env)
    except OracleError:
        return "error"


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_a_store_read_by_slot_answers_as_the_oracle_and_a_cold_walk(frame):
    rng = random.Random(2900)
    instances = _twinned(rng, frame, 15)
    assert all(alike_worlds(m)[1] < len(m.worlds) for m, _, _ in instances)
    errors = checked = 0
    for m, env, banned in instances:
        om = omodel(m)
        order = list(m.worlds)
        for _ in range(4):
            f = gen_formula(rng, m, env, depth=3, banned_dp=banned)
            rng.shuffle(order)
            for w in order:
                warm = _outcome(lambda: evaluate_plain(m, w, f, env))
                cold = _outcome(lambda: evaluate_plain(twin(m), w, f, env))
                where = f"{f} at {w}"
                assert warm == cold, where
                assert _outcome(lambda: evaluate(m, w, f, env).holds) == warm, where
                assert _oracle(om, w, f, env) == (warm if isinstance(warm, bool) else "error"), where
                checked += 1
                errors += not isinstance(warm, bool)
    assert checked > 450 and errors > 50


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_every_mapping_lists_the_worlds_in_world_order(frame):
    """alike_worlds reads valuation and relations in step with worlds, so
    every model, base or derived, must list its worlds in world order in
    each mapping keyed by world: models with twins, their products, agent
    submodels (a root outside its horizon comes last) and carriers."""
    rng = random.Random(2901)
    seen = 0
    for m, env, banned in _twinned(rng, frame, 6):
        derived = [m]
        for w in m.worlds:
            for agent in m.agents:
                try:
                    derived.append(agent_submodel(m, w, agent))
                except CheckerError:
                    continue
                for step in [(dp_id, ev) for dp_id, p in env.items() if p.owner == agent for ev in p.events]:
                    if step[0] != banned:
                        try:
                            derived.append(atom_carrier(m, w, agent, (step,), env)[0])
                        except CheckerError:
                            pass
        for model in derived:
            order = list(model.worlds)
            assert list(model.valuation) == order and list(model.desirability) == order
            assert all(list(model.relations[a]) == order for a in model.agents)
            seen += 1
    assert seen > 200


def test_images_that_differ_only_by_trace_share_no_slot():
    """In the product by the blind point, (w, B.x) and (w, B.y) have the same
    facts and successors for every agent, but e{a; B.x} holds or fails at
    the one and is read relative to the other, where B cannot follow B."""
    worlds = ["w0", "w1", "w2"]
    m = GradedKripkeModel(
        ["a", "b"], ["p"], worlds,
        {"a": {w: set(worlds) for w in worlds}, "b": {w: {w} for w in worlds}},
        {"w0": {"p"}, "w1": {"p"}, "w2": set()}, {"w0": 1, "w1": 5, "w2": 3},
        frame="S5",
    )
    env = {"B": blind(m, "B")}
    pm = product(m, env["B"])
    index, size = alike_worlds(pm)
    for w in worlds:
        x, y = (w, (("B", "x"),)), (w, (("B", "y"),))
        assert pm.valuation[x] is pm.valuation[y]
        assert all(pm.successors(a, x) is pm.successors(a, y) for a in pm.agents)
        assert index[x] != index[y]
    assert size == len(pm.worlds)  # b's cells tell the base worlds apart
    f = ExpAtom("a", (("B", "x"),))
    om = omodel(pm)
    outcomes = {}
    for w in pm.worlds:
        outcomes[w] = _outcome(lambda: evaluate_plain(pm, w, f, env))
        assert outcomes[w] == _outcome(lambda: evaluate_plain(twin(pm), w, f, env))
        assert _oracle(om, w, f, env) == (
            outcomes[w] if isinstance(outcomes[w], bool) else "error"
        )
    assert all(isinstance(outcomes[w, (("B", "x"),)], bool) for w in worlds)
    assert not any(isinstance(outcomes[w, (("B", "y"),)], bool) for w in worlds)


def test_k_roots_outside_their_horizon_are_alike_and_name_themselves(monkeypatch):
    """r0 and r1 see only the loop world u, and nothing reaches them: each is
    the evaluation-only root of a carrier of its own.  They share a slot, so
    an obligation decided at r0 is read at r1, while an error raised at r0
    is raised at r1 only by a walk there, which names r1."""
    m = GradedKripkeModel(
        ["i"], ["p"], ["r0", "u", "r1"],
        {"i": {"r0": {"u"}, "r1": {"u"}, "u": {"u"}}},
        {"r0": set(), "r1": set(), "u": {"p"}}, {"r0": 0, "u": 4, "r1": 9},
        frame="K",
    )
    index, size = alike_worlds(m)
    assert index["r0"] == index["r1"] != index["u"] and size == 2
    env = {"U": DecisionPoint("U", "i", ("go", "stay"), {"go": TRUE, "stay": Atom("p")})}
    env["V"] = DecisionPoint("V", "i", ("go", "stay"), {"go": TRUE, "stay": TRUE})
    holds = Ought("i", (("U", "go"),), TRUE)
    stuck = ExpAtom("i", (("U", "stay"), ("V", "go")))  # U.stay is not available at r0, r1
    runs = _counted(monkeypatch, m, Ought, ExpAtom)
    told = {(f, w): _outcome(lambda: evaluate_plain(m, w, f, env)) for f in (holds, stuck) for w in ("r0", "r1")}
    monkeypatch.undo()
    assert list(runs) == [(holds, "r0"), (stuck, "r0"), (stuck, "r1")]
    for (f, w), got in told.items():
        assert got == _outcome(lambda: evaluate_plain(twin(m), w, f, env))
    om = omodel(m)
    assert [_oracle(om, w, holds, env) for w in ("r0", "r1")] == [True, True]
    assert [_oracle(om, w, stuck, env) for w in ("r0", "r1")] == ["error", "error"]
    assert told[stuck, "r1"] == ("UnknownProductWorld", "r1 does not survive U.stay")


SWEEP = "O{i}(U.a | K{i} p) | O{i}(U.c | q)"


def _sweep(worlds, cells, seed):
    """An S5 model of agent i in the obligation sweep's shape: `cells` equal
    cells over `worlds` worlds, p at half the worlds of each cell and q, drawn
    apart, at half; and the sweep's point U."""
    rng = random.Random(seed)
    ids = [f"w{k}" for k in range(worlds)]
    order = ids[:]
    rng.shuffle(order)
    blocks = [order[k::cells] for k in range(cells)]
    facts = {w: set() for w in ids}
    for block in blocks:
        for atom in ("p", "q"):
            for w in rng.sample(block, len(block) // 2):
                facts[w].add(atom)
    m = GradedKripkeModel(
        ["i"], ["p", "q"], ids, {"i": {w: set(b) for b in blocks for w in b}},
        facts, {w: rng.randint(0, 9) for w in ids}, frame="S5",
    )
    point = DecisionPoint("U", "i", ("a", "b", "c"), {"a": Atom("p"), "b": Atom("q"), "c": TRUE})
    return m, {"U": point}


def _counted(monkeypatch, m, *classes):
    """Count the runs on m of the clauses of the given kept node classes, per
    (node, world), in the order of their first runs."""
    runs = Counter()

    def counting(clause):
        def counted(model, world, f, env, rec):
            if model is m:
                runs[f, world] += 1
            return clause(model, world, f, env, rec)
        return counted

    for cls in classes:
        clause = semantics._CLAUSES[cls].args[0]
        monkeypatch.setitem(semantics._CLAUSES, cls, partial(semantics._kept, counting(clause)))
    return runs


def test_the_sweep_decides_each_obligation_once_per_slot(monkeypatch):
    """A work gate, counted rather than timed: on 200 worlds in 5 cells with
    atoms p and q there are at most 20 slots, and over all 200 worlds the
    Ought clause runs at most once per (slot, node)."""
    m, env = _sweep(200, 5, 29)
    f = parse(SWEEP, env)
    runs = _counted(monkeypatch, m, Ought)
    verdicts = [evaluate_plain(m, w, f, env) for w in m.worlds]
    monkeypatch.undo()
    index, size = alike_worlds(m)
    assert size == 20
    per_slot = Counter((node, index[w]) for node, w in runs.elements())
    assert max(per_slot.values()) == 1 and len(per_slot) <= 2 * size
    assert sum(runs.values()) == len(per_slot)
    assert verdicts == [evaluate_plain(twin(m), w, f, env) for w in m.worlds]
    assert 0 < sum(verdicts) < len(verdicts)


def test_without_twins_each_obligation_is_decided_once_per_world(monkeypatch):
    """Singleton cells leave no two worlds alike: the first obligation then
    runs once at every world, and the second once at each where the first
    fails."""
    m, env = _sweep(40, 40, 29)
    f = parse(SWEEP, env)
    runs = _counted(monkeypatch, m, Ought)
    verdicts = [evaluate_plain(m, w, f, env) for w in m.worlds]
    monkeypatch.undo()
    assert alike_worlds(m)[1] == len(m.worlds)
    first, second = f.sub.left.sub, f.sub.right.sub
    assert set(runs.values()) == {1}
    assert {w for node, w in runs if node is first} == set(m.worlds)
    fails = {w for w in m.worlds if not evaluate_plain(m, w, first, env)}
    assert {w for node, w in runs if node is second} == fails
    assert verdicts == [evaluate_plain(twin(m), w, f, env) for w in m.worlds]
