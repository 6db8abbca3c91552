"""The successor-set fast paths against the brute-force oracle.

The walker keeps one K outcome per successor set, the horizon is a closure
memoised per set, the carrier is shared per horizon, and component values
are memoised per set.  Hypothesis draws small S5, KD45 and K models, some
with an evaluation-only world, and runs of one to three decision points;
at every world, evaluate_plain must agree with tests/oracles.py's o_eval,
and at every world of the run's product, component_value with
o_component_value.  The draws stay small so the test keeps to a second or
two.
"""

from hypothesis import given, settings, strategies as st

from oracles import OracleError, o_component_value, o_eval, omodel
from oughtcheck.actions import DecisionPoint
from oughtcheck.errors import CheckerError, InternalError
from oughtcheck.expect import component_value
from oughtcheck.formula import TRUE, And, Atom, Diamond, ExpAtom, Know, Not, Ought
from oughtcheck.kripke import GradedKripkeModel
from oughtcheck.product import product
from oughtcheck.semantics import evaluate_plain

P = Atom("p")
_PRES = (TRUE, P, Not(P))


def _outcome(call):
    """A verdict or value, or "error" for a checked evaluation error."""
    try:
        return call()
    except InternalError:
        raise
    except (CheckerError, OracleError):
        return "error"


@st.composite
def _relation(draw, frame, domain):
    """world -> successor set, in the frame class, over the domain."""
    n = len(domain)
    if frame == "S5":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return {w: {u for u, b in zip(domain, labels) if b == a} for w, a in zip(domain, labels)}
    if frame == "KD45":
        member = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        member[0] = True
        clusters = {}
        for w, m, a in zip(domain, member, labels):
            if m:
                clusters.setdefault(a, set()).add(w)
        keys = sorted(clusters)
        return {
            w: clusters[a] if m else clusters[keys[a % len(keys)]]
            for w, m, a in zip(domain, member, labels)
        }
    masks = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n))
    return {w: {u for k, u in enumerate(domain) if mask >> k & 1} for w, mask in zip(domain, masks)}


@st.composite
def _instance(draw):
    """(model, env, run): a model over p, two points U and V, and a run of
    one to three steps alternating between them."""
    frame = draw(st.sampled_from(["S5", "KD45", "K"]))
    agents = ["a", "b"][: draw(st.integers(1, 2))]
    domain = [f"w{k}" for k in range(draw(st.integers(2, 4)))]
    relations = {a: draw(_relation(frame, domain)) for a in agents}
    worlds = list(domain)
    eval_only = set()
    if draw(st.booleans()):  # a world no edge enters, with edges out into the domain
        worlds.append("e")
        eval_only.add("e")
        for a in agents:
            mask = draw(st.integers(1, 2 ** len(domain) - 1))
            relations[a]["e"] = {u for k, u in enumerate(domain) if mask >> k & 1}
    model = GradedKripkeModel(
        agents=agents,
        atoms=["p"],
        worlds=worlds,
        relations=relations,
        valuation={w: {"p"} if draw(st.booleans()) else set() for w in worlds},
        desirability={w: draw(st.integers(0, 3)) for w in worlds},
        frame=frame,
        eval_only=eval_only,
    )
    env = {}
    for dp_id, owner in (("U", agents[0]), ("V", agents[-1])):
        blind = {a: [["x", "y"], ["y", "x"]] for a in agents if a != owner and draw(st.booleans())}
        pre = {"x": draw(st.sampled_from(_PRES)), "y": draw(st.sampled_from(_PRES))}
        env[dp_id] = DecisionPoint(dp_id, owner, ["x", "y"], pre, relations=blind, agents=agents)
    run = tuple(
        (dp_id, draw(st.sampled_from("xy")))
        for dp_id in ("U", "V", "U")[: draw(st.integers(1, 3))]
    )
    return model, env, run


def _formulas(model, env, run):
    owner = env[run[-1][0]].owner
    other = model.agents[-1]
    return [
        Know(other, P),
        Know(other, Diamond(run, P)),
        ExpAtom(owner, run),
        Ought(owner, run, Know(other, P)),
        Know(other, Ought(owner, run, Not(P))),
        And(Diamond(run, Know(owner, P)), ExpAtom(owner, run)),
    ]


@settings(max_examples=60, deadline=None)
@given(_instance())
def test_the_successor_set_paths_agree_with_the_oracle(instance):
    model, env, run = instance
    om = omodel(model)
    for f in _formulas(model, env, run):
        for w in model.worlds:
            package = _outcome(lambda: evaluate_plain(model, w, f, env))
            oracle = _outcome(lambda: o_eval(om, w, f, env))
            assert package == oracle, f"{f} at {w}"
    carrier = model
    for dp_id, _ in run:
        carrier = _outcome(lambda: product(carrier, env[dp_id]))
        if carrier == "error":
            return
    oc = omodel(carrier)
    for w in carrier.worlds:
        for a in carrier.agents:
            package = _outcome(lambda: component_value(carrier, w, a))
            oracle = _outcome(lambda: o_component_value(oc, w, a))
            assert package == oracle, f"value of {a} at {w}"
