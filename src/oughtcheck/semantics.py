"""Truth evaluation for the full language.

Evaluation happens at (model, world) pairs.  The model is the current
ambient structure: updates replace it by product models, so a world's key
always carries the trace of updates that produced it.

One walker states every clause.  evaluate_plain runs it for a bare verdict
and evaluate runs it with a trail that records the explanation, so the two
give the same verdict, or raise the same error, on every input.

Conventions that matter and are easy to get wrong:

* Conjunction short-circuits: when the left conjunct is false the right one
  is not evaluated.  Rewrites rely on this to guard expectation atoms with
  preconditions.
* Knowledge does not short-circuit: the body is evaluated at every
  successor, in world order, so an undefined instance inside someone's
  horizon always raises, and the error raised is that of the first
  erroring successor in world order.
* The after-run diamond is strict: every step's precondition must hold at
  the current world before descending.
* An obligation O{i}(t | phi) is the conjunction of (1) <t> phi at the
  current world of the current ambient model, evaluated first, and (2) the
  expectation atom for running t, whose carrier is built from the agent's
  OWN epistemic horizon: descend through products along all but the last
  step, take the agent submodel there, and update it by the final decision
  point.  (2) is only computed when (1) did not already settle the verdict,
  so a failing precondition never trips an undefined expectation.  The
  carrier is built once per (agent, horizon, decision point) and shared by
  every root inside that horizon (a whole S5 cell); a root outside its own
  horizon gets its own.
* A bare expectation atom e{i; s} at a world with trace t resolves in one
  of three ways: s equals t (the current model is the carrier), s strictly
  extends t (run the difference as above), or s is read relative to the
  current world (run all of s).  The agent-submodel step at the end is what
  ties atoms to the acting agent's perspective.

Evaluation errors (dead instances, isolated roots, empty updates) raise;
batch drivers record them per context instead of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import UnknownProductWorld, ValidationError
from .expect import atom_holds, atom_report
from .formula import (
    And,
    Atom,
    Diamond,
    ExpAtom,
    Falsity,
    Formula,
    Know,
    Not,
    Ought,
    Truth,
    check_adjacency,
    check_owner,
    point_of,
    pre_of,
    to_text,
)
from .kripke import GradedKripkeModel, extend_world, trace_of, world_id
from .product import product
from .submodel import agent_submodel, horizon


@dataclass
class Verdict:
    holds: bool
    text: str
    where: str
    clause: str
    note: str = ""
    values: Optional[dict] = None
    children: List["Verdict"] = field(default_factory=list)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def leaves(self):
        return [v for v in self.walk() if not v.children]

    def pretty(self, indent: int = 0) -> str:
        mark = "+" if self.holds else "-"
        lines = [f"{'  ' * indent}{mark} {self.clause}: {self.text} @ {self.where}"]
        if self.note:
            lines.append(f"{'  ' * (indent + 1)}note: {self.note}")
        if self.values:
            own = self.values.get("own")
            rivals = self.values.get("rivals", {})
            lines.append(
                f"{'  ' * (indent + 1)}value {own}"
                + (
                    " vs " + ", ".join(f"{k}={v}" for k, v in rivals.items())
                    if rivals
                    else " (no rivals)"
                )
            )
        for c in self.children:
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)


class _Trail:
    """Where an explained walk records a clause's Verdict.  Each node's
    children go to a trail of their own; `loose` adds the first-conjunct
    reading to the note of a run that is not available."""

    __slots__ = ("nodes", "loose")

    def __init__(self, loose: bool):
        self.nodes: List[Verdict] = []
        self.loose = loose

    def sub(self) -> "_Trail":
        return _Trail(self.loose)


def evaluate_plain(model: GradedKripkeModel, world, f: Formula, env: Dict) -> bool:
    """Truth value of f at (model, world); no explanation structure."""
    return _walk(model, world, f, env, None)


def evaluate(
    model: GradedKripkeModel,
    world,
    f: Formula,
    env: Dict,
    first_conjunct_note: bool = False,
) -> Verdict:
    """Evaluate with a full explanation tree: the walk of evaluate_plain,
    recorded."""
    trail = _Trail(first_conjunct_note)
    _walk(model, world, f, env, trail)
    return trail.nodes[0]


def holds_globally(model: GradedKripkeModel, f: Formula, env: Dict) -> bool:
    """True when f holds at every world of the model's domain (retained
    evaluation roots are outside the quantification range)."""
    return all(evaluate_plain(model, w, f, env) for w in model.domain_worlds())


def _node(rec, holds, f, world, clause, kids=None, note="", values=None) -> bool:
    """Record f's Verdict at world when there is a trail; return holds."""
    if rec is not None:
        children = kids.nodes if kids is not None else []
        rec.nodes.append(
            Verdict(holds, to_text(f), world_id(world), clause, note, values, children)
        )
    return holds


def _walk(model, world, f, env, rec) -> bool:
    """Truth of f at (model, world).  rec is None for a bare verdict, or the
    _Trail that receives f's Verdict."""
    kids = None if rec is None else rec.sub()
    if isinstance(f, Atom):
        if f.name not in model.atoms:
            raise ValidationError(f"atom {f.name!r} is not declared in this model")
        try:
            holds = f.name in model.valuation[world]
        except KeyError:
            model.require_world(world)  # raises UnknownWorld
            raise
        return _node(rec, holds, f, world, "atom")
    if isinstance(f, (Truth, Falsity)):
        model.require_world(world)
        return _node(rec, isinstance(f, Truth), f, world, "constant")
    if isinstance(f, Not):
        holds = not _walk(model, world, f.sub, env, kids)
        return _node(rec, holds, f, world, "negation", kids)
    if isinstance(f, And):
        if not _walk(model, world, f.left, env, kids):
            return _node(rec, False, f, world, "conjunction", kids, "right conjunct skipped")
        holds = _walk(model, world, f.right, env, kids)
        return _node(rec, holds, f, world, "conjunction", kids)
    if isinstance(f, Know):
        # evaluated over the whole horizon, not lazily, and in world order:
        # which successor's error raises must not depend on set order
        witness = None
        for u in model.ordered_successors(f.agent, world):
            sub = None if rec is None else rec.sub()
            if not _walk(model, u, f.sub, env, sub) and witness is None:
                witness, kids = u, sub
        if witness is None:
            return _node(rec, True, f, world, "knowledge")
        note = f"fails at successor {world_id(witness)}"
        return _node(rec, False, f, world, "knowledge", kids, note)
    if isinstance(f, Diamond):
        return _after_run(rec, f, model, world, f.steps, f.sub, env)
    if isinstance(f, ExpAtom):
        rest = _atom_remainder(world, f)
        if rest is None:
            return _expectation(rec, f, world, model, world, f.agent)
        carrier, instance = atom_carrier(model, world, f.agent, rest, env)
        return _expectation(rec, f, world, carrier, instance, f.agent)
    if isinstance(f, Ought):
        check_owner(env, f.agent, f.steps, "obligation")
        if not _after_run(kids, f, model, world, f.steps, f.body, env, "(goal conjunct)"):
            return _node(
                rec, False, f, world, "obligation", kids, "expectation conjunct skipped"
            )
        carrier, instance = atom_carrier(model, world, f.agent, f.steps, env)
        atom = None if rec is None else ExpAtom(f.agent, f.steps)
        holds = _expectation(
            kids, atom, world, carrier, instance, f.agent, "(expectation conjunct)"
        )
        return _node(rec, holds, f, world, "obligation", kids)
    raise TypeError(f"not a formula: {f!r}")


def _run(model, world, steps, env, rec):
    """Run the steps from (model, world), each only where its precondition
    holds; a trail records each precondition's Verdict.  Returns the model
    and world reached and None, or the model and world where the run stops
    and the step that is not available there."""
    for dp_id, ev in steps:
        available = _walk(model, world, pre_of(env, dp_id, ev), env, rec)
        if rec is not None:
            rec.nodes[-1].clause = f"precondition {dp_id}.{ev}"
        if not available:
            return model, world, (dp_id, ev)
        model = product(model, point_of(env, dp_id))
        world = extend_world(world, ((dp_id, ev),))
    return model, world, None


def _after_run(rec, f, model, world, steps, body, env, tag="") -> bool:
    """<steps> body at (model, world), recorded as f's after-run node; tag
    ends the node's note."""
    kids = None if rec is None else rec.sub()
    end_m, end_w, stuck = _run(model, world, steps, env, kids)
    if stuck is None:
        holds = _walk(end_m, end_w, body, env, kids)
        return _node(rec, holds, f, world, "after-run", kids, tag)
    if rec is None:
        return False
    note = f"{stuck[0]}.{stuck[1]} is not available at {world_id(end_w)}"
    if rec.loose:
        note += (
            "; a loose first-conjunct reading would treat the run as"
            " available, the strict semantics does not"
        )
    return _node(rec, False, f, world, "after-run", kids, f"{note} {tag}".strip())


def _expectation(rec, f, world, carrier, instance, agent, note="") -> bool:
    """The expectation atom at instance of carrier, recorded as f's node at
    world with the values the verdict compared."""
    if rec is None:
        return atom_holds(carrier, instance, agent)
    holds, own, rivals = atom_report(carrier, instance, agent)
    values = {
        "own": own,
        "instance": world_id(instance),
        "rivals": {world_id(k): v for k, v in rivals.items()},
    }
    return _node(rec, holds, f, world, "expectation", note=note, values=values)


def _atom_remainder(world, f: ExpAtom):
    """Which steps still have to be run for a bare expectation atom.

    None    -> the atom talks about the world's own trace: current model is
               the carrier.
    steps   -> run these from the current world (the agent-submodel step
               happens at the last one).
    """
    t = trace_of(world)
    s = f.steps
    if s == t:
        return None
    if len(s) > len(t) and s[: len(t)] == t:
        return s[len(t):]
    check_adjacency(t + s)  # s read relative to the world must not repeat its last point
    return s


def atom_carrier(model: GradedKripkeModel, world, agent: str, steps, env: Dict):
    """(carrier, instance) in which obligations and bare atoms judge running
    `steps` from (model, world): descend all but the last step through
    products, and update the agent's submodel there by the final decision
    point.  UnknownProductWorld means the run does not survive.

    A root inside its own horizon H generates the same submodel as every
    other root of H up to the root itself, which the update never reads, so
    the carrier is shared per (agent, H, decision point): one per
    information cell in S5.  A root outside its horizon is retained in its
    submodel as an evaluation point and gets a carrier of its own."""
    cur_m, cur_w, stuck = _run(model, world, steps[:-1], env, None)
    if stuck is not None:
        raise UnknownProductWorld(
            f"{world_id(cur_w)} does not survive {stuck[0]}.{stuck[1]}"
        )
    dp_id, ev = steps[-1]
    pre_of(env, dp_id, ev)  # an unknown decision point or event raises here
    point = point_of(env, dp_id)
    h = horizon(cur_m, cur_w, agent)
    key = ("carrier", agent, h if cur_w in h else cur_w, point)
    carrier = cur_m.memo(key, _carrier, cur_m, cur_w, agent, point)
    instance = extend_world(cur_w, ((dp_id, ev),))
    if not carrier.has_world(instance):
        raise UnknownProductWorld(
            f"{world_id(cur_w)} does not survive {dp_id}.{ev}"
        )
    return carrier, instance


def _carrier(model: GradedKripkeModel, root, agent: str, point) -> GradedKripkeModel:
    return product(agent_submodel(model, root, agent), point)
