"""Truth evaluation: hand-checked verdicts, the explanation mirror, and
agreement with the brute-force oracle on random instances."""

import gc
import importlib
import random
import weakref
from collections import Counter

import pytest

from oracles import OracleError, o_eval, omodel
from oughtcheck.actions import DecisionPoint, env_of
from oughtcheck.docio import model_from_doc, model_to_doc
from oughtcheck.errors import (
    CheckerError,
    EmptyProduct,
    InternalError,
    IsolatedRoot,
    UnknownEvent,
    UnknownProductWorld,
    UnknownWorld,
    ValidationError,
)
from oughtcheck.expect import (
    atom_holds,
    atom_report,
    component_value,
    expected_value,
    rival_instances,
)
from oughtcheck.formula import (
    And,
    Atom,
    Diamond,
    ExpAtom,
    FALSE,
    Formula,
    Know,
    Not,
    Ought,
    TRUE,
    to_text,
)
from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model
from oughtcheck.errors import Unsatisfiable
from oughtcheck.kripke import GradedKripkeModel, extend_world, world_id
from oughtcheck.product import product
from oughtcheck.parser import parse
from oughtcheck.semantics import atom_carrier, evaluate, evaluate_plain, holds_globally
from oughtcheck.submodel import agent_submodel, horizon
import oughtcheck.expect
import oughtcheck.semantics
import oughtcheck.submodel
from test_know_table import twin


@pytest.fixture
def second():
    return DecisionPoint(
        "R", "x", ["go", "stop"], {"go": TRUE, "stop": TRUE}, agents=["x", "y"]
    )


def test_propositional_basics(line_model, pick_env):
    m = line_model
    assert evaluate_plain(m, "w0", Atom("p"), pick_env)
    assert not evaluate_plain(m, "w3", Atom("p"), pick_env)
    assert evaluate_plain(m, "w3", Not(Atom("p")), pick_env)
    assert evaluate_plain(m, "w0", And(Atom("p"), Atom("q")), pick_env)
    assert not evaluate_plain(m, "w1", And(Atom("p"), Atom("q")), pick_env)
    assert evaluate_plain(m, "w1", TRUE, pick_env)
    assert not evaluate_plain(m, "w1", FALSE, pick_env)


def test_undeclared_atom_is_an_error(line_model, pick_env):
    with pytest.raises(ValidationError):
        evaluate_plain(line_model, "w0", Atom("zz"), pick_env)


def test_unknown_world_is_an_error(line_model, pick_env):
    for f in (Atom("p"), Not(And(TRUE, Atom("q"))), FALSE, Diamond((("P", "lo"),), TRUE)):
        with pytest.raises(UnknownWorld):
            evaluate_plain(line_model, "nowhere", f, pick_env)
        with pytest.raises(UnknownWorld):
            evaluate(line_model, "nowhere", f, pick_env)


class _Marked(Atom):
    """A subclass of a node class: it must evaluate as the class it extends."""

    __slots__ = ()


class _Doubled(Not):
    __slots__ = ()


def test_a_node_subclass_evaluates_as_its_node_class(line_model, pick_env):
    m = line_model
    for f, same in (
        (_Marked("p"), Atom("p")),
        (_Doubled(_Marked("q")), Not(Atom("q"))),
        (And(_Marked("p"), _Doubled(Atom("q"))), And(Atom("p"), Not(Atom("q")))),
        (Know("x", _Marked("q")), Know("x", Atom("q"))),
    ):
        for w in m.worlds:
            assert evaluate_plain(m, w, f, pick_env) == evaluate_plain(m, w, same, pick_env)
            told, want = evaluate(m, w, f, pick_env), evaluate(m, w, same, pick_env)
            assert [(v.holds, v.clause) for v in told.walk()] == [
                (v.holds, v.clause) for v in want.walk()
            ]
    with pytest.raises(ValidationError):
        evaluate_plain(m, "w0", _Marked("zz"), pick_env)


@pytest.mark.parametrize("junk", ["p", 3, None, Formula()], ids=repr)
def test_anything_but_a_formula_is_a_type_error(line_model, pick_env, junk):
    for f in (junk, Not(junk), And(TRUE, junk)):
        with pytest.raises(TypeError, match="not a formula: "):
            evaluate_plain(line_model, "w0", f, pick_env)
        with pytest.raises(TypeError, match="not a formula: "):
            evaluate(line_model, "w0", f, pick_env)


def test_knowledge(line_model, pick_env):
    m = line_model
    # x's block at w0 is {w0, w1}: both satisfy p
    assert evaluate_plain(m, "w0", Know("x", Atom("p")), pick_env)
    # y sees everything; w3 fails p
    assert not evaluate_plain(m, "w0", Know("y", Atom("p")), pick_env)
    assert evaluate_plain(m, "w0", Know("y", Not(And(Atom("p"), Not(Atom("p"))))), pick_env)


def test_knowledge_is_vacuous_without_successors(pick_env):
    m = GradedKripkeModel(
        agents=["x"], atoms=["p"], worlds=["u"],
        relations={}, valuation={"u": set()}, desirability={"u": 0},
    )
    assert evaluate_plain(m, "u", Know("x", FALSE), pick_env)


def test_diamond_is_strict(line_model, pick_env):
    m = line_model
    hi = (("P", "hi"),)
    assert evaluate_plain(m, "w0", Diamond(hi, TRUE), pick_env)
    assert not evaluate_plain(m, "w1", Diamond(hi, TRUE), pick_env)
    # after the update the surviving world keeps its facts
    assert evaluate_plain(m, "w0", Diamond(hi, And(Atom("p"), Atom("q"))), pick_env)


def test_diamond_descends_through_products(line_model, pick, second):
    env = env_of([pick, second])
    steps = (("P", "lo"), ("R", "go"))
    assert evaluate_plain(line_model, "w1", Diamond(steps, Atom("p")), env)
    # knowledge after the run ranges over the updated model
    f = Diamond(steps, Know("x", Atom("p")))
    assert evaluate_plain(line_model, "w1", f, env)


def test_obligation_two_conjuncts(line_model, pick_env):
    m = line_model
    # picking 'hi' at w0 yields 0, 'lo' averages 1/2 over x's block
    assert not evaluate_plain(m, "w0", Ought("x", (("P", "hi"),), TRUE), pick_env)
    assert evaluate_plain(m, "w0", Ought("x", (("P", "lo"),), TRUE), pick_env)


def test_obligation_owner_is_checked(line_model, pick_env):
    with pytest.raises(ValidationError):
        evaluate_plain(line_model, "w0", Ought("y", (("P", "hi"),), TRUE), pick_env)


def test_failing_goal_short_circuits_the_dead_instance(line_model, pick_env):
    # at w3 the run P.hi is unavailable; its expectation atom would be a
    # dead instance and raise, so evaluation must settle on the first
    # conjunct alone
    f = Ought("x", (("P", "hi"),), TRUE)
    assert evaluate_plain(line_model, "w3", f, pick_env) is False
    with pytest.raises(UnknownProductWorld):
        evaluate_plain(line_model, "w3", ExpAtom("x", (("P", "hi"),)), pick_env)


def test_bare_atom_relative_reading(line_model, pick_env):
    assert not evaluate_plain(line_model, "w0", ExpAtom("x", (("P", "hi"),)), pick_env)
    assert evaluate_plain(line_model, "w0", ExpAtom("x", (("P", "lo"),)), pick_env)


def test_bare_atom_own_trace_reading(line_model, pick, pick_env):
    pm = product(line_model, pick)
    # judged in the full updated model, 'lo' at w0 is beaten by 'hi' at w2
    f = ExpAtom("x", (("P", "lo"),))
    assert evaluate_plain(pm, ("w0", (("P", "lo"),)), f, pick_env) is False
    # while the relative reading at the base world says the opposite
    assert evaluate_plain(line_model, "w0", f, pick_env) is True


def test_bare_atom_extension_reading(line_model, pick, second):
    env = env_of([pick, second])
    pm = product(line_model, pick)
    f = ExpAtom("x", (("P", "hi"), ("R", "go")))
    # both continuations tie at value 0, and ties count in favour
    assert evaluate_plain(pm, ("w0", (("P", "hi"),)), f, env) is True


def test_bare_atom_junction_is_rejected(line_model, pick, pick_env):
    pm = product(line_model, pick)
    f = ExpAtom("x", (("P", "hi"),))
    with pytest.raises(ValidationError):
        evaluate_plain(pm, ("w0", (("P", "lo"),)), f, pick_env)


def test_dead_relative_instance_raises(line_model, pick_env):
    with pytest.raises(UnknownProductWorld):
        evaluate_plain(line_model, "w1", ExpAtom("x", (("P", "hi"),)), pick_env)


def test_holds_globally_skips_eval_only(pick_env):
    m = GradedKripkeModel(
        agents=["x"], atoms=["p"], worlds=["u", "v"],
        relations={"x": {"u": {"v"}, "v": {"v"}}},
        valuation={"u": set(), "v": {"p"}},
        desirability={"u": 0, "v": 0},
    )
    sub = agent_submodel(m, "u", "x")
    assert sub.eval_only == frozenset({"u"})
    # p fails at the retained root but holds on the domain
    assert holds_globally(sub, Atom("p"), pick_env)
    assert not evaluate_plain(sub, "u", Atom("p"), pick_env)


# --- explanations ---------------------------------------------------------------


def test_explanation_mirrors_plain(line_model, pick, second):
    """The explained evaluator must agree with the plain one everywhere,
    including on which errors it raises.  Besides line_model, the inputs are
    seeded generated models of every frame class with two generated decision
    points, at base worlds and in product contexts: their isolated roots
    make atoms and rival values undefined."""
    line_env = env_of([pick, second])
    contexts = [(line_model, line_env, None), (product(line_model, pick), line_env, "P")]
    rng = random.Random(31)
    for frame in ("S5", "KD45", "K"):
        params = GenParams(max_worlds=6, frame=frame)
        made = 0
        while made < 12:
            m = gen_model(rng, params)
            try:
                env = {}
                env["U"] = gen_decision_point(rng, m, "U", params, env=env)
                env["V"] = gen_decision_point(rng, m, "V", params, env=env)
            except Unsatisfiable:
                continue
            contexts += [(m, env, None), (product(m, env["U"]), env, "U")]
            made += 1
    classes = Counter()
    for _ in range(1500):
        m, env, banned = rng.choice(contexts)
        w = rng.choice(m.worlds)
        f = gen_formula(rng, m, env, depth=3, banned_dp=banned)
        a = _outcome(lambda: evaluate_plain(m, w, f, env))
        b = _outcome(lambda: evaluate(m, w, f, env).holds)
        assert a == b, f"{to_text(f)} at {world_id(w)}: plain={a} explained={b}"
        classes[a] += 1
    assert {True, False, "IsolatedRoot", "UnknownProductWorld"} <= set(classes), classes


@pytest.mark.parametrize("reverse", [False, True])
def test_knowledge_raises_the_first_successor_error_in_world_order(reverse):
    """K{i} e{j; U.a} at r, whose i-successors s and t both leave the atom
    undefined: j reaches nothing from s (IsolatedRoot), and U.a does not
    survive at t (UnknownProductWorld).  Listing the worlds in the opposite
    order flips which error comes first."""
    worlds = ["r", "s", "t"]
    m = GradedKripkeModel(
        agents=["i", "j"], atoms=["p"], worlds=worlds[::-1] if reverse else worlds,
        relations={"i": {"r": {"s", "t"}}, "j": {"r": {"r"}, "t": {"t"}}},
        valuation={"r": set(), "s": {"p"}, "t": set()},
        desirability={"r": 0, "s": 1, "t": 2},
    )
    env = {"U": DecisionPoint("U", "j", ["a", "b"], {"a": Atom("p"), "b": TRUE})}
    f = Know("i", ExpAtom("j", (("U", "a"),)))
    if reverse:
        error, names_first = UnknownProductWorld, "t does not survive U.a"
    else:
        error, names_first = IsolatedRoot, "reaches nothing from s"
    for run in (  # cold on freshly built twins of the model, then warm on it
        lambda: evaluate_plain(twin(m), "r", f, env),
        lambda: evaluate(twin(m), "r", f, env),
        lambda: evaluate_plain(m, "r", f, env),
        lambda: evaluate(m, "r", f, env),  # after the plain walk: reads its table
    ):
        with pytest.raises(CheckerError) as caught:
            run()
        assert type(caught.value) is error
        assert names_first in str(caught.value)


def test_conjunction_short_circuit_is_visible(line_model, pick_env):
    v = evaluate(line_model, "w0", And(FALSE, Atom("p")), pick_env)
    assert not v.holds
    assert v.note == "right conjunct skipped"
    assert len(v.children) == 1


def test_knowledge_failure_names_the_witness(line_model, pick_env):
    v = evaluate(line_model, "w0", Know("y", Atom("p")), pick_env)
    assert not v.holds
    assert "fails at successor" in v.note
    assert len(v.children) == 1 and not v.children[0].holds


def test_obligation_explanation_structure(line_model, pick_env):
    v = evaluate(line_model, "w0", Ought("x", (("P", "lo"),), TRUE), pick_env)
    assert v.holds and v.clause == "obligation"
    goal, expectation = v.children
    assert "(goal conjunct)" in goal.note
    assert expectation.clause == "expectation"
    assert expectation.values["own"] is not None
    # the pretty form renders without blowing up
    assert "obligation" in v.pretty()


def test_obligation_explanation_skips_expectation_leg(line_model, pick_env):
    v = evaluate(line_model, "w3", Ought("x", (("P", "hi"),), TRUE), pick_env)
    assert not v.holds
    assert v.note == "expectation conjunct skipped"
    assert len(v.children) == 1


def test_unavailable_run_note(line_model, pick_env):
    v = evaluate(line_model, "w1", Diamond((("P", "hi"),), TRUE), pick_env)
    assert not v.holds
    assert v.note == "P.hi is not available at w1"


def test_verdict_walk(line_model, pick_env):
    v = evaluate(line_model, "w0", And(Atom("p"), Not(Atom("q"))), pick_env)
    texts = [x.text for x in v.walk()]
    assert texts[0] == "(p & !q)"
    assert "p" in texts and "!q" in texts


# --- oracle agreement ------------------------------------------------------------


def test_against_oracle_base_contexts():
    for frame in ("S5", "KD45", "K"):
        _oracle_base_contexts(frame)


def _oracle_base_contexts(frame):
    rng = random.Random(404)
    params = GenParams(max_worlds=5, frame=frame)
    done = 0
    while done < 60:
        m = gen_model(rng, params)
        try:
            env = {}
            env["U"] = gen_decision_point(rng, m, "U", params, env=env)
            env["V"] = gen_decision_point(rng, m, "V", params, env=env)
        except Unsatisfiable:
            continue
        om = omodel(m)
        for _ in range(4):
            f = gen_formula(rng, m, env, depth=3)
            w = rng.choice(list(m.worlds))
            _assert_agree(m, om, w, f, env)
        done += 1


def test_against_oracle_product_contexts():
    for frame in ("S5", "KD45", "K"):
        _oracle_product_contexts(frame)


def _oracle_product_contexts(frame):
    rng = random.Random(405)
    params = GenParams(max_worlds=4, frame=frame)
    done = 0
    while done < 30:
        m = gen_model(rng, params)
        try:
            env = {}
            env["U"] = gen_decision_point(rng, m, "U", params, env=env)
            env["V"] = gen_decision_point(rng, m, "V", params, env=env)
        except Unsatisfiable:
            continue
        pm = product(m, env["U"])
        opm = omodel(pm)
        for _ in range(3):
            f = gen_formula(rng, pm, env, depth=2, banned_dp="U")
            w = rng.choice(list(pm.worlds))
            _assert_agree(pm, opm, w, f, env)
        done += 1


def _assert_agree(m, om, w, f, env):
    try:
        a = evaluate_plain(m, w, f, env)
    except InternalError:
        raise
    except CheckerError:
        a = "error"
    try:
        b = o_eval(om, w, f, env)
    except OracleError:
        b = "error"
    assert a == b, f"{f} at {w}: package={a} oracle={b}"


# --- shared expectation carriers -----------------------------------------------


def _per_root_carrier(m, w, agent, steps, env):
    """Test-only reference for the expectation route: the carrier built per
    root, product(agent_submodel(m, w, agent), point).  Returns (carrier,
    instance)."""
    for dp_id, ev in steps[:-1]:
        if not evaluate_plain(m, w, env[dp_id].pre[ev], env):
            raise UnknownProductWorld(f"{w} does not survive {dp_id}.{ev}")
        m, w = product(m, env[dp_id]), extend_world(w, ((dp_id, ev),))
    dp_id, ev = steps[-1]
    point = env[dp_id]
    if ev not in point.pre:
        raise UnknownEvent(ev)
    carrier = product(agent_submodel(m, w, agent), point)
    instance = extend_world(w, ((dp_id, ev),))
    if not carrier.has_world(instance):
        raise UnknownProductWorld(f"{w} does not survive {dp_id}.{ev}")
    return carrier, instance


def _per_root_route(m, w, agent, steps, env, carrier_of=_per_root_carrier):
    """(plain verdict, (verdict, own, {rival id: value})) on the per-root
    carrier, or on the one carrier_of builds, each an error class name where
    it raises.  Every component value is also checked against a built
    component submodel."""
    carrier, instance = carrier_of(m, w, agent, steps, env)
    for x in [instance] + rival_instances(carrier, instance):
        assert _outcome(lambda: component_value(carrier, x, agent)) == _outcome(
            lambda: expected_value(agent_submodel(carrier, x, agent), agent)
        )

    def report():
        verdict, own, rivals = atom_report(carrier, instance, agent)
        return verdict, own, {world_id(r): v for r, v in rivals.items()}

    return _outcome(lambda: atom_holds(carrier, instance, agent)), _outcome(report)


def _sharing_route(m, w, agent, steps, env):
    """The carrier the package's route judges the atom in."""
    return atom_carrier(m, w, agent, steps, env)[0]


def _outcome(call):
    try:
        return call()
    except CheckerError as exc:
        return type(exc).__name__


def _shared_instance(seed, frame):
    """A seeded gen_model instance with a generated decision point U and a
    point W whose preconditions look past the root: another agent's
    knowledge, an expectation atom on U and an after-run diamond, all read
    inside the restricted horizon when W updates a submodel."""
    rng = random.Random(seed)
    params = GenParams(max_worlds=6, frame=frame)
    m = gen_model(rng, params)
    env = {}
    env["U"] = gen_decision_point(rng, m, "U", params, env=env)
    j, k = rng.choice(m.agents), rng.choice(m.agents)
    u_ev = rng.choice(env["U"].events)
    p = Atom(rng.choice(m.atoms))
    env["W"] = DecisionPoint(
        "W", rng.choice(m.agents), ["x", "y", "z"],
        {
            "x": Know(j, p),
            "y": And(Not(p), ExpAtom(env["U"].owner, (("U", u_ev),))),
            "z": Not(Diamond((("U", u_ev),), Know(k, p))),
        },
        agents=list(m.agents), env=env,
    )
    return m, env


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_shared_carriers_match_per_root_carriers(frame):
    compared = valued = shared = 0
    classes = Counter()
    for seed in range(40):
        try:
            ref_m, ref_env = _shared_instance(seed, frame)
        except Unsatisfiable:
            continue
        # a second, identical copy, so the two routes share no cache
        m, env = _shared_instance(seed, frame)
        p = Atom(m.atoms[0])
        runs = [(("U", e),) for e in env["U"].events] + [(("U", "nope"),)]
        runs += [(("W", e),) for e in env["W"].events]
        runs += [(("U", env["U"].events[0]), ("W", e)) for e in env["W"].events]
        carriers = {}
        for w in list(m.worlds) + ["nowhere"]:
            for agent in list(m.agents) + ["nobody"]:
                for steps in runs:
                    ref = _outcome(lambda: _per_root_route(ref_m, w, agent, steps, ref_env))
                    atom = ExpAtom(agent, steps)
                    where = f"seed {seed} {frame}: {to_text(atom)} at {w}"
                    owned = agent == env[steps[-1][0]].owner
                    if owned:
                        plain = _outcome(lambda: evaluate_plain(m, w, atom, env))
                        told = _told(_outcome(lambda: evaluate(m, w, atom, env)))
                    else:
                        # the walker rejects a non-owner's atom, but
                        # `oughtcheck expect` values the run in its carrier
                        for run_walker in (evaluate_plain, evaluate):
                            got = _outcome(lambda: run_walker(m, w, atom, env))
                            assert got == "ValidationError", where
                        route = _outcome(
                            lambda: _per_root_route(m, w, agent, steps, env, atom_carrier)
                        )
                        plain, told = (route, route) if isinstance(route, str) else route
                    ref_plain, ref_told = (ref, ref) if isinstance(ref, str) else ref
                    classes.update(x for x in (ref_plain, ref_told) if isinstance(x, str))
                    assert plain == ref_plain, where
                    assert told == ref_told, where
                    if not isinstance(ref_told, str):
                        valued += 1
                        if len(steps) == 1:
                            c = _sharing_route(m, w, agent, steps, env)
                            roots, ids = carriers.setdefault((agent, steps[0][0]), (set(), set()))
                            roots.add(w)
                            ids.add(id(c))
                    if owned and w != "nowhere":
                        ought = Ought(agent, steps, p)
                        run = Diamond(steps, p)
                        want = _outcome(lambda: evaluate_plain(ref_m, w, run, ref_env))
                        if want is True:
                            want = ref_plain
                        assert _outcome(lambda: evaluate_plain(m, w, ought, env)) == want, where
                    compared += 1
        shared += sum(len(roots) - len(ids) for roots, ids in carriers.values())
    print(f"[carriers] {frame}: {compared} atoms, {valued} valued, {shared} shared", dict(classes))
    assert compared > 2000 and valued > 300
    assert {
        "UnknownEvent", "UnknownWorld", "UnknownAgent", "UnknownProductWorld", "EmptyProduct"
    } <= set(classes)
    if frame != "S5":
        assert classes["IsolatedRoot"]
    if frame != "K":
        assert shared > 0  # roots of one cell did share carriers


def test_one_s5_cell_shares_one_carrier(line_model, pick_env):
    steps = (("P", "lo"),)
    c0 = _sharing_route(line_model, "w0", "x", steps, pick_env)
    assert _sharing_route(line_model, "w1", "x", steps, pick_env) is c0
    c2 = _sharing_route(line_model, "w2", "x", steps, pick_env)
    assert c2 is not c0
    assert _sharing_route(line_model, "w3", "x", steps, pick_env) is c2
    # y's single cell is the whole model: one carrier for every root
    cy = {id(_sharing_route(line_model, w, "y", steps, pick_env)) for w in line_model.worlds}
    assert len(cy) == 1


def test_kd45_root_outside_its_horizon_gets_its_own_carrier():
    m = GradedKripkeModel(
        agents=["i"], atoms=["p"], worlds=["u", "v", "w"],
        relations={"i": {w: {"v", "w"} for w in ["u", "v", "w"]}},
        valuation={"u": {"p"}, "v": set(), "w": {"p"}},
        desirability={"u": 9, "v": 1, "w": 4},
        frame="KD45",
    )
    env = env_of([DecisionPoint("T", "i", ["l", "r"], {"l": TRUE, "r": Atom("p")})])
    steps = (("T", "l"),)
    cu = _sharing_route(m, "u", "i", steps, env)
    cv = _sharing_route(m, "v", "i", steps, env)
    assert cu is not cv
    assert _sharing_route(m, "w", "i", steps, env) is cv
    assert _sharing_route(m, "u", "i", steps, env) is cu
    # u is kept in its own carrier only as an evaluation point
    assert cu.eval_only == {("u", (("T", "l"),)), ("u", (("T", "r"),))}
    assert not cv.eval_only
    assert evaluate_plain(m, "u", ExpAtom("i", steps), env) == (
        _per_root_route(m, "u", "i", steps, env)[0]
    )


@pytest.mark.parametrize("frame", ["S5", "KD45", "K"])
def test_a_carrier_relates_only_its_agent(frame):
    # W's preconditions read other agents' edges inside the horizon, so the
    # submodel a carrier updates keeps them; the carrier keeps only its agent
    lean = whole = 0
    for seed in range(12):
        try:
            ref_m, ref_env = _shared_instance(seed, frame)
        except Unsatisfiable:
            continue
        m, env = _shared_instance(seed, frame)  # a copy that shares no cache
        runs = [(("U", e),) for e in env["U"].events] + [(("W", e),) for e in env["W"].events]
        for w in m.worlds:
            for agent in m.agents:
                for steps in runs:
                    try:
                        carrier = _sharing_route(m, w, agent, steps, env)
                    except CheckerError:
                        continue
                    point = env[steps[0][0]]
                    where = f"seed {seed} {frame}: {agent} {steps} at {w}"
                    if len(horizon(m, w, agent)) == len(m.worlds):
                        assert carrier is product(m, point), where
                        assert carrier.agents == m.agents, where
                        whole += 1
                        continue
                    ref = product(agent_submodel(ref_m, w, agent), ref_env[steps[0][0]])
                    assert carrier.agents == (agent,), where
                    assert carrier.worlds == ref.worlds, where
                    assert carrier.eval_only == ref.eval_only, where
                    assert dict(carrier.valuation) == dict(ref.valuation), where
                    assert dict(carrier.desirability) == dict(ref.desirability), where
                    assert dict(carrier.relations[agent]) == dict(ref.relations[agent]), where
                    lean += 1
    assert lean > 50, lean
    if frame == "S5":
        assert whole > 0


def test_a_whole_horizon_carrier_keeps_every_agent(line_model, pick, pick_env):
    # y's horizon is every world: its carrier is the ambient product itself
    carrier = _sharing_route(line_model, "w2", "y", (("P", "lo"),), pick_env)
    assert carrier is product(line_model, pick)
    assert carrier.agents == ("x", "y")
    # x's is a cell: a carrier of x alone
    assert _sharing_route(line_model, "w2", "x", (("P", "lo"),), pick_env).agents == ("x",)


def test_a_carrier_keeps_no_submodel(monkeypatch):
    m, env = _shared_instance(3, "S5")
    restrict = oughtcheck.semantics._restrict
    made = []

    def recording(model, *args):
        sub = restrict(model, *args)
        made.append(weakref.ref(sub))
        return sub

    monkeypatch.setattr(oughtcheck.semantics, "_restrict", recording)
    gc.disable()  # freed by reference counting alone, not by the collector
    try:
        for w in m.worlds:
            for e in env["W"].events:
                _outcome(lambda: evaluate_plain(m, w, ExpAtom(env["W"].owner, (("W", e),)), env))
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()
    assert not [key for key in m._cache if key[0] == "sub"]


def test_a_carrier_that_raises_is_built_once(line_model, monkeypatch):
    # nothing survives Z in x's cell {w0, w1}, though w2 and w3 survive it
    # in the model: the carrier's own build raises EmptyProduct
    z = DecisionPoint("Z", "x", ["a", "b"], {"a": Not(Atom("p")), "b": Not(Atom("p"))})
    env = env_of([z])
    product(line_model, z)
    update = oughtcheck.semantics._update
    builds = []

    def counted(model, action, agents):
        builds.append(agents)
        return update(model, action, agents)

    monkeypatch.setattr(oughtcheck.semantics, "_update", counted)
    atom = ExpAtom("x", (("Z", "a"),))
    raised = []
    for w in ("w0", "w1", "w0"):
        with pytest.raises(EmptyProduct) as info:
            evaluate_plain(line_model, w, atom, env)
        raised.append((type(info.value), str(info.value)))
    assert builds == [("x",)]
    # the carrier is x's cell's, shared by w0 and w1: its error names the
    # cell, so it is true at whichever root raises it
    message = "no world of model|x@{w0, w1} satisfies any precondition of 'Z'"
    assert raised == [(EmptyProduct, message)] * 3


def test_a_shared_carrier_names_its_horizon_by_its_first_worlds():
    """x's cell {w0, ..., w4} has no world where Z is available, though w5
    has one: the cell's carrier raises, and its name lists three worlds of
    the horizon and counts the rest, whichever root asks."""
    worlds = [f"w{k}" for k in range(6)]
    cells = [worlds[:5], worlds[5:]]
    m = GradedKripkeModel(
        ["x"], ["p"], worlds, {"x": {w: set(c) for c in cells for w in c}},
        {w: {"p"} if w == "w5" else set() for w in worlds}, {w: 1 for w in worlds},
        frame="S5",
    )
    env = env_of([DecisionPoint("Z", "x", ["a", "b"], {"a": Atom("p"), "b": Atom("p")})])
    message = "no world of model|x@{w0, w1, w2 and 2 more} satisfies any precondition of 'Z'"
    for w in ("w3", "w0"):
        with pytest.raises(EmptyProduct) as info:
            evaluate_plain(m, w, ExpAtom("x", (("Z", "a"),)), env)
        assert str(info.value) == message


def _one_cell():
    """An S5 submodel of agent i that is one cell of i, with j's and k's
    edges inside it, and two decision points owned by i whose preconditions
    read atoms and j's knowledge."""
    worlds = [f"w{n}" for n in range(6)]
    parts = {
        "i": [worlds[:4], worlds[4:]],
        "j": [worlds[:2], worlds[2:5], worlds[5:]],
        "k": [worlds],
    }
    m = GradedKripkeModel(
        agents=["i", "j", "k"], atoms=["p", "q"], worlds=worlds,
        relations={a: {w: set(b) for b in blocks for w in b} for a, blocks in parts.items()},
        valuation=dict(zip(worlds, [{"p", "q"}, {"q"}, {"p"}, {"q"}, set(), {"p"}])),
        desirability=dict(zip(worlds, [3, 7, 2, 7, 5, 1])),
        frame="S5",
    )
    env = env_of(
        [
            DecisionPoint("U", "i", ["a", "b", "c"], {"a": Atom("p"), "b": Not(Atom("p")), "c": TRUE}),
            DecisionPoint("V", "i", ["x", "y"], {"x": Know("j", Atom("q")), "y": TRUE}),
        ]
    )
    return agent_submodel(m, "w0", "i"), env


def _told(v):
    """(verdict, own, {rival id: value}) of an explained expectation node, or
    the error class name _outcome returned in its place."""
    return v if isinstance(v, str) else (v.holds, v.values["own"], v.values["rivals"])


def test_a_whole_horizon_carrier_is_the_models_own_product(monkeypatch):
    # i's horizon is the whole submodel at each of its worlds, so every
    # carrier is the product the goal conjunct descends into: one product
    # per decision point and no further submodel
    sub, env = _one_cell()
    assert sub.worlds == ("w0", "w1", "w2", "w3") and not sub.eval_only
    # the module, not the `product` function the package re-exports under its name
    products = importlib.import_module("oughtcheck.product")
    restrict, update = oughtcheck.submodel._restrict, products._update
    built = Counter()

    def counting_restrict(model, *args):
        built["submodel"] += 1
        return restrict(model, *args)

    def counting_update(model, action, agents):
        built[action.id] += 1
        return update(model, action, agents)

    # the carrier build calls both by the names semantics imports
    for module in (oughtcheck.submodel, oughtcheck.semantics):
        monkeypatch.setattr(module, "_restrict", counting_restrict)
    for module in (products, oughtcheck.semantics):
        monkeypatch.setattr(module, "_update", counting_update)
    goal = Atom("q")
    outcomes = {}
    for w in sub.worlds:
        for steps in [(("U", e),) for e in "abc"] + [(("V", e),) for e in "xy"]:
            atom, ought = ExpAtom("i", steps), Ought("i", steps, goal)
            outcomes[w, steps] = (
                _outcome(lambda: evaluate_plain(sub, w, ought, env)),
                _outcome(lambda: evaluate(sub, w, ought, env)),
                _outcome(lambda: evaluate_plain(sub, w, atom, env)),
                _outcome(lambda: _told(evaluate(sub, w, atom, env))),
            )
            if not isinstance(outcomes[w, steps][2], str):
                carrier = _sharing_route(sub, w, "i", steps, env)
                assert carrier is product(sub, env[steps[0][0]])
    assert built == {"U": 1, "V": 1}
    monkeypatch.undo()

    # the same verdicts and values as on the per-root carrier, in a fresh copy
    ref_sub, ref_env = _one_cell()
    verdicts, valued = Counter(), 0
    for (w, steps), (plain, told, atom_plain, atom_told) in outcomes.items():
        ref = _outcome(lambda: _per_root_route(ref_sub, w, "i", steps, ref_env))
        ref_plain, ref_told = (ref, ref) if isinstance(ref, str) else ref
        where = f"{to_text(ExpAtom('i', steps))} at {w}"
        assert atom_plain == ref_plain, where
        assert atom_told == ref_told, where
        reached = _outcome(lambda: evaluate_plain(ref_sub, w, Diamond(steps, goal), ref_env))
        assert plain == (ref_plain if reached is True else reached), where
        if reached is True:
            assert _told(told if isinstance(told, str) else told.children[-1]) == ref_told, where
            valued += not isinstance(ref_told, str)
        verdicts[plain] += 1
    assert verdicts[True] and verdicts[False] and valued >= 8, (verdicts, valued)


def test_an_edge_into_an_evaluation_only_world_is_rejected():
    # an evaluation-only world is in no horizon, so a carrier never has to
    # cut one away: a model whose relation enters one does not load
    ws = ["u", "v", "w"]
    kw = dict(
        agents=["i"], atoms=["p"], worlds=ws,
        relations={"i": {w: set(ws) for w in ws}},
        valuation={"u": {"p"}, "v": set(), "w": {"p"}},
        desirability={"u": 9, "v": 1, "w": 4},
    )
    with pytest.raises(ValidationError, match="enters an evaluation-only world"):
        GradedKripkeModel(**kw, eval_only=frozenset(["u"]))
    doc = model_to_doc(GradedKripkeModel(**kw))
    for marked, match in ((["u"], "enters"), (["nowhere"], "names no world")):
        with pytest.raises(ValidationError, match=match):
            model_from_doc(dict(doc, eval_only=marked))


def _five_cells(n=400):
    """n worlds in 5 S5 cells of agent i, and the sweep's decision point."""
    worlds = [f"w{k}" for k in range(n)]
    cells = [worlds[c::5] for c in range(5)]
    m = GradedKripkeModel(
        agents=["i"], atoms=["p", "q"], worlds=worlds,
        relations={"i": {w: set(cell) for cell in cells for w in cell}},
        valuation={w: {"p"} if k % 2 else {"q"} for k, w in enumerate(worlds)},
        desirability={w: k % 10 for k, w in enumerate(worlds)},
        frame="S5",
    )
    env = env_of(
        [DecisionPoint("U", "i", ["a", "b", "c"], {"a": Atom("p"), "b": Atom("q"), "c": TRUE})]
    )
    return m, cells, env


def test_carriers_per_decision_point_do_not_grow_with_roots(monkeypatch):
    # 400 worlds in 5 S5 cells: 5 submodels and 5 carriers, not one per root
    m, _, env = _five_cells()
    worlds = m.worlds
    built = []
    init = GradedKripkeModel.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(len(self.worlds))
        # fail fast instead of building a carrier per root
        assert len(built) <= 10, "more than one carrier per information cell"

    monkeypatch.setattr(GradedKripkeModel, "__init__", counting_init)
    carriers = set()
    for w in worlds:
        for ev in ("a", "c"):
            steps = (("U", ev),)
            try:
                evaluate_plain(m, w, ExpAtom("i", steps), env)
            except UnknownProductWorld:
                continue
            carriers.add(id(_sharing_route(m, w, "i", steps, env)))
    assert len(carriers) == 5
    assert sorted(built) == [80] * 5 + [160] * 5  # submodels, then carriers


def test_sweep_derives_each_horizon_and_sum_once(monkeypatch):
    # the sweep formula at every world of 5 S5 cells: one closure per cell
    # on the base model and one per event clique in each carrier, one
    # desirability sum per distinct horizon
    m, cells, env = _five_cells()
    f = parse("O{i}(U.a | K{i} p) | O{i}(U.c | q)", env)
    closures, sums = Counter(), Counter()
    closure, total = oughtcheck.submodel._closure, oughtcheck.expect._desirability_sum

    def counting_closure(model, succ, agent):
        closures[model] += 1
        return closure(model, succ, agent)

    def counting_sum(carrier, worlds):
        sums[carrier, worlds] += 1
        return total(carrier, worlds)

    monkeypatch.setattr(oughtcheck.submodel, "_closure", counting_closure)
    monkeypatch.setattr(oughtcheck.expect, "_desirability_sum", counting_sum)
    verdicts = Counter(evaluate_plain(m, w, f, env) for w in m.worlds)
    assert verdicts[True] and verdicts[False]
    assert closures.pop(m) == 5
    # 5 carriers, each with one clique of instances per event a, b, c
    assert sorted(closures.values()) == [3] * 5
    assert set(sums.values()) == {1} and len(sums) == 15
    for cell in cells:
        assert len({id(m.successors("i", w)) for w in cell}) == 1
        assert len({id(m.valuation[w]) for w in cell}) == 2  # {p} and {q}


def test_a_2000_world_sweep_passes_each_cell_once(monkeypatch):
    # counts, not times: the base model's relation is closed once per cell,
    # and K{i} runs its loop once per successor set it meets
    m, cells, env = _five_cells(2000)
    f = parse("O{i}(U.a | K{i} p) | O{i}(U.c | q)", env)
    closures, loops = Counter(), Counter()
    closure, ordered = oughtcheck.submodel._closure, GradedKripkeModel.ordered_successors

    def counting_closure(model, succ, agent):
        closures[model] += 1
        return closure(model, succ, agent)

    def counting_ordered(self, agent, world):
        loops[self, self.successors(agent, world)] += 1
        return ordered(self, agent, world)

    monkeypatch.setattr(oughtcheck.submodel, "_closure", counting_closure)
    monkeypatch.setattr(GradedKripkeModel, "ordered_successors", counting_ordered)
    verdicts = Counter(evaluate_plain(m, w, f, env) for w in m.worlds)
    assert verdicts[True] and verdicts[False]
    assert closures[m] == 5
    # K{i} p is read after U.a: one successor set per cell of the product
    assert set(loops.values()) == {1} and len(loops) == 5


def test_unknown_world_in_an_expectation_atom():
    m, env = _shared_instance(1, "S5")
    atom = ExpAtom(m.agents[0], (("U", env["U"].events[0]), ("W", "x")))
    with pytest.raises(UnknownWorld):
        evaluate_plain(m, "nowhere", atom, env)
    with pytest.raises(UnknownWorld):
        evaluate(m, "nowhere", atom, env)
