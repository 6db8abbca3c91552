"""Truth evaluation for the full language.

Evaluation happens at (model, world) pairs.  The model is the current
ambient structure: updates replace it by product models, so a world's key
always carries the trace of updates that produced it.

Conventions that matter and are easy to get wrong:

* Conjunction short-circuits: when the left conjunct is false the right one
  is not evaluated.  Rewrites rely on this to guard expectation atoms with
  preconditions.
* Knowledge does not short-circuit: the body is evaluated at every
  successor, so an undefined instance inside someone's horizon raises no
  matter how the successor set happens to be ordered.
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

from .errors import UnknownEvent, UnknownProductWorld, ValidationError
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
    to_text,
)
from .kripke import GradedKripkeModel, extend_world, trace_of, world_id
from .product import product
from .submodel import agent_submodel, horizon


def _resolve(env: Dict, dp_id: str):
    try:
        return env[dp_id]
    except KeyError:
        raise UnknownEvent(f"unknown decision point {dp_id!r}") from None


def _pre_of(env: Dict, dp_id: str, ev: str) -> Formula:
    point = _resolve(env, dp_id)
    try:
        return point.pre[ev]
    except KeyError:
        raise UnknownEvent(f"decision point {dp_id!r} has no event {ev!r}") from None


def evaluate_plain(model: GradedKripkeModel, world, f: Formula, env: Dict) -> bool:
    """Truth value of f at (model, world); no explanation structure."""
    if isinstance(f, Atom):
        if f.name not in model.atoms:
            raise ValidationError(f"atom {f.name!r} is not declared in this model")
        try:
            return f.name in model.valuation[world]
        except KeyError:
            model.require_world(world)  # raises UnknownWorld
            raise
    if isinstance(f, (Truth, Falsity)):
        model.require_world(world)
        return isinstance(f, Truth)
    if isinstance(f, Not):
        return not evaluate_plain(model, world, f.sub, env)
    if isinstance(f, And):
        return evaluate_plain(model, world, f.left, env) and evaluate_plain(
            model, world, f.right, env
        )
    if isinstance(f, Know):
        # evaluated over the whole horizon, not lazily: whether a dead
        # instance in the body raises must not depend on set order
        results = [
            evaluate_plain(model, u, f.sub, env)
            for u in model.successors(f.agent, world)
        ]
        return all(results)
    if isinstance(f, Diamond):
        cur_m, cur_w = model, world
        for dp_id, ev in f.steps:
            if not evaluate_plain(cur_m, cur_w, _pre_of(env, dp_id, ev), env):
                return False
            cur_m = product(cur_m, _resolve(env, dp_id))
            cur_w = extend_world(cur_w, ((dp_id, ev),))
        return evaluate_plain(cur_m, cur_w, f.sub, env)
    if isinstance(f, ExpAtom):
        rest = _atom_remainder(world, f)
        if rest is None:
            return atom_holds(model, world, f.agent)
        return _atom_route(model, world, f.agent, rest, env)
    if isinstance(f, Ought):
        _check_ought_owner(env, f)
        if not evaluate_plain(model, world, Diamond(f.steps, f.body), env):
            return False
        return _atom_route(model, world, f.agent, f.steps, env)
    raise TypeError(f"not a formula: {f!r}")


def _check_ought_owner(env: Dict, f: Ought) -> None:
    point = _resolve(env, f.steps[-1][0])
    if point.owner != f.agent:
        raise ValidationError(
            f"obligation agent {f.agent!r} does not own {f.steps[-1][0]}."
            f"{f.steps[-1][1]} (owner {point.owner!r})"
        )


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
    if t and t[-1][0] == s[0][0]:
        raise ValidationError(
            f"expectation atom {to_text(f)} would repeat decision point "
            f"{s[0][0]!r} right after {world_id(world)}"
        )
    return s


def _atom_route(model, world, agent: str, rest, env, report=False):
    """Carrier construction shared by obligations and bare atoms: descend all
    but the last step through products, update the agent's submodel there
    by the final decision point, and judge the instance in that carrier.

    A root inside its own horizon H generates the same submodel as every
    other root of H up to the root itself, which the update never reads, so
    the carrier is shared per (agent, H, decision point): one per
    information cell in S5.  A root outside its horizon is retained in its
    submodel as an evaluation point and gets a carrier of its own."""
    cur_m, cur_w = model, world
    for dp_id, ev in rest[:-1]:
        if not evaluate_plain(cur_m, cur_w, _pre_of(env, dp_id, ev), env):
            raise UnknownProductWorld(
                f"{world_id(cur_w)} does not survive {dp_id}.{ev}"
            )
        cur_m = product(cur_m, _resolve(env, dp_id))
        cur_w = extend_world(cur_w, ((dp_id, ev),))
    dp_id, ev = rest[-1]
    point = _resolve(env, dp_id)
    if ev not in point.pre:
        raise UnknownEvent(f"decision point {dp_id!r} has no event {ev!r}")
    h = horizon(cur_m, cur_w, agent)
    key = ("carrier", agent, h if cur_w in h else cur_w, point)
    carrier = cur_m._cache.get(key)
    if carrier is None:
        carrier = product(agent_submodel(cur_m, cur_w, agent), point)
        cur_m._cache[key] = carrier
    instance = extend_world(cur_w, ((dp_id, ev),))
    if not carrier.has_world(instance):
        raise UnknownProductWorld(
            f"{world_id(cur_w)} does not survive {dp_id}.{ev}"
        )
    if report:
        return atom_report(carrier, instance, agent) + (carrier, instance)
    return atom_holds(carrier, instance, agent)


def holds_globally(model: GradedKripkeModel, f: Formula, env: Dict) -> bool:
    """True when f holds at every world of the model's domain (retained
    evaluation roots are outside the quantification range)."""
    return all(evaluate_plain(model, w, f, env) for w in model.domain_worlds())


# --- explained evaluation ----------------------------------------------------

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


def evaluate(
    model: GradedKripkeModel,
    world,
    f: Formula,
    env: Dict,
    first_conjunct_note: bool = False,
) -> Verdict:
    """Evaluate with a full explanation tree.  Same verdicts as
    evaluate_plain on every input (property-tested)."""
    return _explain(model, world, f, env, first_conjunct_note)


def _v(holds, f, world, clause, **kw) -> Verdict:
    return Verdict(holds, to_text(f), world_id(world), clause, **kw)


def _explain(model, world, f, env, fcn) -> Verdict:
    if isinstance(f, Atom):
        if f.name not in model.atoms:
            raise ValidationError(f"atom {f.name!r} is not declared in this model")
        try:
            holds = f.name in model.valuation[world]
        except KeyError:
            model.require_world(world)  # raises UnknownWorld
            raise
        return _v(holds, f, world, "atom")
    if isinstance(f, (Truth, Falsity)):
        model.require_world(world)
        return _v(isinstance(f, Truth), f, world, "constant")
    if isinstance(f, Not):
        child = _explain(model, world, f.sub, env, fcn)
        return _v(not child.holds, f, world, "negation", children=[child])
    if isinstance(f, And):
        left = _explain(model, world, f.left, env, fcn)
        if not left.holds:
            return _v(
                False, f, world, "conjunction",
                note="right conjunct skipped", children=[left],
            )
        right = _explain(model, world, f.right, env, fcn)
        return _v(right.holds, f, world, "conjunction", children=[left, right])
    if isinstance(f, Know):
        children = []
        for u in sorted(model.successors(f.agent, world), key=model.world_index):
            child = _explain(model, u, f.sub, env, fcn)
            if not child.holds and not children:
                children.append(child)
        holds = not children
        return _v(
            holds, f, world, "knowledge",
            note="" if holds else f"fails at successor {children[0].where}",
            children=children,
        )
    if isinstance(f, Diamond):
        return _explain_diamond(model, world, f.steps, f.sub, env, fcn, f)
    if isinstance(f, ExpAtom):
        rest = _atom_remainder(world, f)
        if rest is None:
            verdict, own, rivals = atom_report(model, world, f.agent)
            return _v(
                verdict, f, world, "expectation",
                values={
                    "own": own,
                    "instance": world_id(world),
                    "rivals": {world_id(k): v for k, v in rivals.items()},
                },
            )
        verdict, own, rivals, carrier, instance = _atom_route(
            model, world, f.agent, rest, env, report=True
        )
        return _v(
            verdict, f, world, "expectation",
            values={
                "own": own,
                "instance": world_id(instance),
                "rivals": {world_id(k): v for k, v in rivals.items()},
            },
        )
    if isinstance(f, Ought):
        _check_ought_owner(env, f)
        conj1 = _explain_diamond(model, world, f.steps, f.body, env, fcn, f)
        conj1.note = (conj1.note + " " if conj1.note else "") + "(goal conjunct)"
        if not conj1.holds:
            return _v(
                False, f, world, "obligation",
                note="expectation conjunct skipped", children=[conj1],
            )
        atom = ExpAtom(f.agent, f.steps)
        verdict, own, rivals, carrier, instance = _atom_route(
            model, world, f.agent, f.steps, env, report=True
        )
        conj2 = Verdict(
            verdict,
            to_text(atom),
            world_id(world),
            "expectation",
            note="(expectation conjunct)",
            values={
                "own": own,
                "instance": world_id(instance),
                "rivals": {world_id(k): v for k, v in rivals.items()},
            },
        )
        return _v(verdict, f, world, "obligation", children=[conj1, conj2])
    raise TypeError(f"not a formula: {f!r}")


def _explain_diamond(model, world, steps, sub, env, fcn, outer) -> Verdict:
    children = []
    cur_m, cur_w = model, world
    for dp_id, ev in steps:
        pre = _pre_of(env, dp_id, ev)
        pre_verdict = _explain(cur_m, cur_w, pre, env, fcn)
        pre_verdict.clause = f"precondition {dp_id}.{ev}"
        children.append(pre_verdict)
        if not pre_verdict.holds:
            note = f"{dp_id}.{ev} is not available at {world_id(cur_w)}"
            if fcn:
                note += (
                    "; a loose first-conjunct reading would treat the run as"
                    " available, the strict semantics does not"
                )
            return _v(False, outer, world, "after-run", note=note, children=children)
        cur_m = product(cur_m, _resolve(env, dp_id))
        cur_w = extend_world(cur_w, ((dp_id, ev),))
    body = _explain(cur_m, cur_w, sub, env, fcn)
    children.append(body)
    return _v(body.holds, outer, world, "after-run", children=children)
