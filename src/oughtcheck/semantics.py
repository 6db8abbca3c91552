"""Truth evaluation for the full language.

Evaluation happens at (model, world) pairs.  The model is the current
ambient structure: updates replace it by product models, so a world's key
always carries the trace of updates that produced it.

One walker states every clause, and each clause body is written once.
evaluate_plain runs it for a bare verdict and evaluate runs it with a trail,
the list that receives each node's Verdict; the two paths differ only in
whether a node is recorded, so they give the same verdict, or raise the same
error, on every input.  The walker dispatches by node type through one table
of clauses, one per node class; formula.node_class reads a subclass as the
node class it extends.

Conventions that matter and are easy to get wrong:

* Conjunction short-circuits: when the left conjunct is false the right one
  is not evaluated.  Rewrites rely on this to guard expectation atoms with
  preconditions.
* Knowledge does not short-circuit: the body is evaluated at every
  successor, in world order, so an undefined instance inside someone's
  horizon always raises, and the error raised is that of the first
  erroring successor in world order.
* One outcome store per model keeps what the walker decided there, for one
  env, in the model's memo as ("outcomes",).  A verdict is a property of
  (model, world, formula), so for every Diamond, Ought and ExpAtom node,
  and for every Know body whatever its class, the store keeps the outcome
  at each world walked: True, False, or the CheckerError raised, as a
  stored error raised again on a later visit (_kept, _decide).  It keeps
  one outcome per slot of alike worlds (alike_worlds: same trace,
  valuation, evaluation-only status and successor sets), as every formula
  holds at all worlds of a slot or at none, so the first walk at one of
  them decides them all.  An error is kept for the world it was raised at:
  at a slot-mate the clause runs again, so the error names the world asked
  and the first in world order is the one raised.  The plain walk reads
  the entry before it runs the clause and fills it after; evaluate runs
  the clause with its trail and fills it too.  It is filled lazily,
  top-down, so the short-circuit and error-order conventions above hold
  as they do without it.  A Know node keeps, per successor set,
  what decides it there (its witness, the first failing successor in
  world order; the error of the first erroring one; or None when the body
  holds at every successor): a world whose set was seen before, as every
  world of an S5 cell after the first, reads it and walks nothing, and
  evaluate walks the body with a trail at the witness only.  Each decision
  point run from the model has a step table there too (_steps).  The store
  serves one env, taken by its items (_made_for, applied where the store is
  fetched), so an env whose items differ starts it empty.  Keying by the
  node is sound because equal formulas are one node (formula.Formula): a
  text parsed again builds the node the store keeps alive and finds its
  entry.  The store dies with its model.
* Trails render on demand.  evaluate records, per node, the formula node,
  the world key and, for an expectation node, (carrier, instance, agent);
  a Verdict's text, where, note and values render on first read and are
  kept.  A caller that reads only holds renders nothing, and an
  expectation node keeps its carrier alive until its values are read.
* The after-run diamond is strict: every step's precondition must hold at
  the current world before descending.
* A run reads each step from its step table: the model's product by the
  point, built at the first available step, and for each (world, event)
  asked so far the world key reached, or None where the precondition
  fails.  Both paths read and fill it, so a step is decided once per
  (model, world, event), and evaluate walks the precondition again with a
  trail, as it walks a Know node's witness.  A precondition walk or product
  build that raises keeps no step, so the same error is raised again.
* An obligation O{i}(t | phi) is the conjunction of (1) <t> phi at the
  current world of the current ambient model, evaluated first, and (2) the
  expectation atom for running t, whose carrier is built from the agent's
  OWN epistemic horizon: descend through products along all but the last
  step, take the agent submodel there, and update it by the final decision
  point.  (2) is only computed when (1) did not already settle the verdict,
  so a failing precondition never trips an undefined expectation.  The
  carrier is built once per (agent, horizon, decision point) and shared by
  every root inside that horizon (a whole S5 cell); a root outside its own
  horizon gets its own.  The carrier relates the agent only, which is all
  an expectation reads.  The submodel it updates keeps every agent's edges
  inside the horizon, as a precondition may read them, but it is not kept
  once the update is built.  A carrier build that raises is kept as its
  error, stored, and raises it again on a later visit.  A horizon that is
  every world of the model restricts nothing (no edge enters an
  evaluation-only world, so such a world is in no horizon): the carrier is
  then the model's own product by the point, with every agent, the one the
  goal conjunct descended into.
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
from functools import cached_property, partial
from typing import Dict, List, Optional

from .errors import CheckerError, Stored, UnknownProductWorld, ValidationError
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
    node_class,
    point_of,
    pre_of,
    refuse_past_limit,
    to_text,
)
from .kripke import GradedKripkeModel, extend_world, trace_of, world_id
from .product import _update, product
from .submodel import _restrict, horizon


@dataclass
class Verdict:
    """One node of an explanation trail.  The walk records what to render,
    not the text: the formula node, the world key, the note (a string, or
    (before, world key, after) when it names a world) and, for an
    expectation node, (carrier, instance, agent).  text, where, note and
    values render on first read; values then releases the carrier."""

    holds: bool
    formula: Formula
    world: object
    clause: str
    remark: object = ""
    expectation: Optional[tuple] = None
    children: List["Verdict"] = field(default_factory=list)

    @cached_property
    def text(self) -> str:
        return to_text(self.formula)

    @cached_property
    def where(self) -> str:
        return world_id(self.world)

    @cached_property
    def note(self) -> str:
        if self.remark.__class__ is str:
            return self.remark
        before, world, after = self.remark
        return before + world_id(world) + after

    @cached_property
    def values(self) -> Optional[dict]:
        """The values the expectation verdict compared: own value, instance
        and {rival: value}; None on any other node."""
        if self.expectation is None:
            return None
        carrier, instance, agent = self.expectation
        _, own, rivals = atom_report(carrier, instance, agent)
        self.expectation = None
        return {
            "own": own,
            "instance": world_id(instance),
            "rivals": {world_id(k): v for k, v in rivals.items()},
        }

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

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


def evaluate_plain(model: GradedKripkeModel, world, f: Formula, env: Dict) -> bool:
    """Truth value of f at (model, world); no explanation structure.  A
    formula nested past formula.MAX_DEPTH raises ValidationError."""
    try:
        return _walk(model, world, f, env, None)
    except RecursionError:
        refuse_past_limit(f)
        raise


def evaluate(model: GradedKripkeModel, world, f: Formula, env: Dict) -> Verdict:
    """Evaluate with a full explanation tree: the walk of evaluate_plain,
    recorded.  A formula nested past formula.MAX_DEPTH raises
    ValidationError."""
    trail: List[Verdict] = []
    try:
        _walk(model, world, f, env, trail)
    except RecursionError:
        refuse_past_limit(f)
        raise
    return trail[0]


def holds_globally(model: GradedKripkeModel, f: Formula, env: Dict) -> bool:
    """True when f holds at every world of the model's domain (retained
    evaluation roots are outside the quantification range).  Each world is
    evaluate_plain's, so a formula nested past formula.MAX_DEPTH raises
    ValidationError here too."""
    return first_failure(model, f, env) is None


def first_failure(model: GradedKripkeModel, f: Formula, env: Dict):
    """The first domain world in world order at which f fails, or None: the
    world where holds_globally stops, so the error it raises is this one's."""
    for w in model.domain_worlds():
        if not evaluate_plain(model, w, f, env):
            return w
    return None


def _node(rec, holds, f, world, clause, kids=None, note="", source=None) -> bool:
    """Record f's Verdict at world on the trail rec; return holds.  source is
    an expectation node's (carrier, instance, agent)."""
    rec.append(Verdict(holds, f, world, clause, note, source, [] if kids is None else kids))
    return holds


def _walk(model, world, f, env, rec) -> bool:
    """Truth of f at (model, world).  rec is None for a bare verdict, or the
    list that receives f's Verdict."""
    try:
        clause = _CLAUSES[type(f)]
    except KeyError:
        clause = _CLAUSES[node_class(f)]
    return clause(model, world, f, env, rec)


# One clause per node class.  Each body serves both paths: its children are
# walked in one place, and with rec None it returns the verdict and records
# no node.


def _atom(model, world, f, env, rec) -> bool:
    if f.name not in model.atoms:
        raise ValidationError(f"atom {f.name!r} is not declared in this model")
    try:
        holds = f.name in model.valuation[world]
    except KeyError:
        model.require_world(world)  # raises UnknownWorld
        raise
    return holds if rec is None else _node(rec, holds, f, world, "atom")


def _truth(model, world, f, env, rec) -> bool:
    model.require_world(world)
    return True if rec is None else _node(rec, True, f, world, "constant")


def _falsity(model, world, f, env, rec) -> bool:
    model.require_world(world)
    return False if rec is None else _node(rec, False, f, world, "constant")


def _not(model, world, f, env, rec) -> bool:
    kids = None if rec is None else []
    holds = not _walk(model, world, f.sub, env, kids)
    return holds if rec is None else _node(rec, holds, f, world, "negation", kids)


def _and(model, world, f, env, rec) -> bool:
    kids = None if rec is None else []
    if not _walk(model, world, f.left, env, kids):
        if rec is None:
            return False
        return _node(rec, False, f, world, "conjunction", kids, "right conjunct skipped")
    holds = _walk(model, world, f.right, env, kids)
    return holds if rec is None else _node(rec, holds, f, world, "conjunction", kids)


_UNSEEN = object()  # no entry yet for a successor set


def _know(model, world, f, env, rec) -> bool:
    store = _store(model, env)
    sets = store.witnesses.get(f)
    if sets is None:
        sets = store.witnesses[f] = {}
    succ = model.successors(f.agent, world)
    witness = sets.get(succ, _UNSEEN)
    if witness is _UNSEEN:
        witness = _decide(model, world, f, env, store, sets, succ)
    elif witness.__class__ is Stored:
        raise witness.rebuild()
    if rec is None:
        return witness is None
    if witness is None:
        return _node(rec, True, f, world, "knowledge")
    kids = []  # the trail of the first failing successor, walked again to record it
    _walk(model, witness, f.sub, env, kids)
    note = ("fails at successor ", witness, "")
    return _node(rec, False, f, world, "knowledge", kids, note)


def _decide(model, world, f, env, store, sets, succ):
    """Read f.sub's outcome at every successor, in world order, from its entry
    in the store, walking it where there is none, and keep under succ in
    sets what decides f: the error of the first that raises (raised again),
    else the first that fails, else None.  Evaluated over the whole horizon,
    not lazily, and in world order: which successor's error raises must not
    depend on set order.  A successor whose slot raised at an alike world,
    but not at it, is walked, so the error raised is its own."""
    body, index, raised = f.sub, store.index, store.raised
    codes = store.nodes.get(body)
    if codes is None:
        codes = store.nodes[body] = bytearray(store.size)
    witness = None
    for u in model.ordered_successors(f.agent, world):
        i = index[u]
        code = codes[i]
        if code == _RAISED:
            error = raised[body].get(u)
            if error is not None:
                sets[succ] = error
                raise error.rebuild()
            code = 0
        if code:
            holds = code == _TRUE
        else:
            try:
                holds = _walk(model, u, body, env, None)
            except CheckerError as exc:
                codes[i] = _RAISED
                sets[succ] = raised.setdefault(body, {})[u] = Stored.of(exc)
                raise
            codes[i] = _TRUE if holds else _FALSE
        if not holds and witness is None:
            witness = u
    sets[succ] = witness
    return witness


# The codes of a node's entry in the outcome store, one byte per slot.
_FALSE, _TRUE, _RAISED = 1, 2, 3


class _Store:
    """The outcome store of one model, for one env.  index maps each world
    to its slot (alike_worlds), and size is the number of slots.  nodes maps
    each node kept to its entry: a bytearray with one code per slot, 0
    where no walk has decided it yet; raised maps a node to {world: the
    CheckerError a walk raised there, stored}.  witnesses maps each Know
    node to {successor set: what decides the node there}; steps maps each
    decision point id to its step table.  snapshot is the env's items when
    the store last started empty."""

    __slots__ = ("index", "size", "snapshot", "nodes", "raised", "witnesses", "steps")

    def __init__(self, model):
        self.index, self.size = alike_worlds(model)
        self.snapshot = None


def alike_worlds(model):
    """({world: its slot}, the number of slots), in one pass over the worlds.
    Worlds are alike, and share a slot, when they have the same trace,
    valuation, evaluation-only status and successor set for every agent.
    Relating each to the other, and every other world to itself, is a
    bisimulation that keeps every horizon sum and successor count, so every
    formula holds at both or at neither, and raises at both or at neither.
    The model's mappings list the worlds in world order, so their values are
    read in step with the worlds, without hashing a world key per mapping;
    a model without evaluation-only worlds has one status for all."""
    worlds = model.worlds
    columns = [map(trace_of, worlds), model.valuation.values()]
    columns += [model.relations[a].values() for a in model.agents]
    if model.eval_only:
        columns.append(map(model.eval_only.__contains__, worlds))
    slots: Dict = {}
    index = {w: slots.setdefault(kind, len(slots)) for w, kind in zip(worlds, zip(*columns))}
    return index, len(slots)


def _store(model, env) -> _Store:
    """The model's outcome store for env, memoised as ("outcomes",).  A store
    made for an env whose items differ from env's starts empty again."""
    store = model.memo(("outcomes",), _Store, model)
    if not _made_for(env, store.snapshot):  # also a new store
        store.snapshot = dict(env)
        store.nodes, store.raised, store.witnesses, store.steps = {}, {}, {}, {}
    return store


def _made_for(env, snapshot) -> bool:
    """The env rule of the outcome store: a store started for an env whose
    items were then snapshot (a dict) serves env when env has those items.
    Decision points compare by identity, so an equal env names the very
    points, and every outcome kept was decided by them."""
    return snapshot == env


def _kept(clause, model, world, f, env, rec) -> bool:
    """f's outcome at (model, world), read from f's entry in the store or
    decided by clause and kept there, for every world of the slot.  A walk
    with a trail runs the clause to record it, and keeps its outcome too.
    An error is kept for the world it was raised at: where an alike world
    raised, the clause runs again, so the error names the world asked.  A
    world outside the model has no place in an entry: the clause runs, and
    raises."""
    store = _store(model, env)
    i = store.index.get(world)
    if i is None:
        return clause(model, world, f, env, rec)
    codes = store.nodes.get(f)
    if codes is None:
        codes = store.nodes[f] = bytearray(store.size)
    code = codes[i]
    if code and rec is None:
        if code != _RAISED:
            return code == _TRUE
        error = store.raised[f].get(world)
        if error is not None:
            raise error.rebuild()
    # taken before the clause runs: a product build in it walks preconditions
    # under the point's own env, which may start this store again, and the
    # outcome then belongs with codes, not in the new store
    raised = store.raised
    try:
        holds = clause(model, world, f, env, rec)
    except CheckerError as exc:
        codes[i] = _RAISED
        raised.setdefault(f, {})[world] = Stored.of(exc)
        raise
    codes[i] = _TRUE if holds else _FALSE
    return holds


def _diamond(model, world, f, env, rec) -> bool:
    return _after_run(rec, f, model, world, f.steps, f.sub, env)


def _exp_atom(model, world, f, env, rec) -> bool:
    check_owner(env, f.agent, f.steps, "expectation atom")
    rest = _atom_remainder(world, f)
    if rest is None:
        return _expectation(rec, f, world, model, world, f.agent)
    carrier, instance = atom_carrier(model, world, f.agent, rest, env)
    return _expectation(rec, f, world, carrier, instance, f.agent)


def _ought(model, world, f, env, rec) -> bool:
    check_owner(env, f.agent, f.steps, "obligation")
    kids = None if rec is None else []
    if not _after_run(kids, f, model, world, f.steps, f.body, env, "(goal conjunct)"):
        if rec is None:
            return False
        return _node(
            rec, False, f, world, "obligation", kids, "expectation conjunct skipped"
        )
    carrier, instance = atom_carrier(model, world, f.agent, f.steps, env)
    atom = None if rec is None else ExpAtom(f.agent, f.steps)
    holds = _expectation(
        kids, atom, world, carrier, instance, f.agent, "(expectation conjunct)"
    )
    return holds if rec is None else _node(rec, holds, f, world, "obligation", kids)


# The clauses of the nodes that do work read and fill their entries in the
# outcome store (_kept); a Know node keeps a witness per successor set and
# its body's outcomes in the body's entry (_decide).
_CLAUSES = {
    Atom: _atom,
    Truth: _truth,
    Falsity: _falsity,
    Not: _not,
    And: _and,
    Know: _know,
    Diamond: partial(_kept, _diamond),
    ExpAtom: partial(_kept, _exp_atom),
    Ought: partial(_kept, _ought),
}


class _Steps:
    """A step table: the runs of one decision point from one model, for the
    env of the store that holds it.  product is the model's product by the
    point, built at the first available step; decided maps (world, event)
    to the world key reached, or to None where the event's precondition
    fails."""

    __slots__ = ("point", "product", "decided")

    def __init__(self, point):
        self.point, self.product, self.decided = point, None, {}


def _steps(model, env, dp_id) -> _Steps:
    """The step table of (model, the point env names dp_id), kept in the
    model's outcome store for env."""
    tables = _store(model, env).steps
    table = tables.get(dp_id)
    if table is None:
        table = tables[dp_id] = _Steps(point_of(env, dp_id))
    return table


def _run(model, world, steps, env, rec):
    """Run the steps from (model, world), each only where its precondition
    holds; a trail records each precondition's Verdict.  Returns the model
    and world reached and None, or the model and world where the run stops
    and the step that is not available there.  Each step is read from its
    step table, and decided there on the first visit; the explained path
    walks the precondition again with the trail."""
    for step in steps:
        dp_id, ev = step
        table = _steps(model, env, dp_id)
        decided = table.decided  # a reset by a nested walk leaves this one aside
        key = (world, ev)
        reached = decided.get(key, _UNSEEN)
        if reached is _UNSEEN or rec is not None:
            available = _walk(model, world, pre_of(env, dp_id, ev), env, rec)
            if rec is not None:
                rec[-1].clause = f"precondition {dp_id}.{ev}"
            if reached is _UNSEEN:
                if available and table.product is None:
                    table.product = product(model, table.point)
                reached = decided[key] = (
                    extend_world(world, (step,)) if available else None
                )
        if reached is None:
            return model, world, step
        model, world = table.product, reached
    return model, world, None


def _after_run(rec, f, model, world, steps, body, env, tag="") -> bool:
    """<steps> body at (model, world), recorded as f's after-run node; tag
    ends the node's note."""
    kids = None if rec is None else []
    end_m, end_w, stuck = _run(model, world, steps, env, kids)
    if stuck is None:
        holds = _walk(end_m, end_w, body, env, kids)
        return holds if rec is None else _node(rec, holds, f, world, "after-run", kids, tag)
    if rec is None:
        return False
    note = (f"{stuck[0]}.{stuck[1]} is not available at ", end_w, f" {tag}".rstrip())
    return _node(rec, False, f, world, "after-run", kids, note)


def _expectation(rec, f, world, carrier, instance, agent, note="") -> bool:
    """The expectation atom at instance of carrier, recorded as f's node at
    world with the carrier its values are read from."""
    holds = atom_holds(carrier, instance, agent)
    if rec is None:
        return holds
    return _node(rec, holds, f, world, "expectation", None, note, (carrier, instance, agent))


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
    submodel as an evaluation point and gets a carrier of its own.  A
    carrier build that raises is kept under the carrier's key as that
    error, stored, and raises it again on a later visit.  The instance is
    read from the step table where the goal conjunct has just run the final
    step, and made afresh only where nothing ran it."""
    cur_m, cur_w = model, world
    if len(steps) > 1:
        cur_m, cur_w, stuck = _run(model, world, steps[:-1], env, None)
        if stuck is not None:
            raise UnknownProductWorld(
                f"{world_id(cur_w)} does not survive {stuck[0]}.{stuck[1]}"
            )
    dp_id, ev = steps[-1]
    table = _steps(cur_m, env, dp_id)
    point = table.point
    # the goal conjunct of an obligation has just run this step here
    instance = table.decided.get((cur_w, ev))
    if instance is None:
        pre_of(env, dp_id, ev)  # an unknown event raises here
        instance = extend_world(cur_w, steps[-1:])
    h = horizon(cur_m, cur_w, agent)
    key = ("carrier", agent, h if cur_w in h else cur_w, point)
    carrier = cur_m.memo(key, _carrier, cur_m, cur_w, agent, h, point)
    if carrier.__class__ is Stored:
        raise carrier.rebuild()
    if not carrier.has_world(instance):
        raise UnknownProductWorld(
            f"{world_id(cur_w)} does not survive {dp_id}.{ev}"
        )
    return carrier, instance


def _carrier(model: GradedKripkeModel, root, agent: str, h, point):
    """The carrier of (agent, horizon h of root, point), or the CheckerError
    its build raises, stored.  It relates only `agent`, the one relation an
    expectation reads.  The agent submodel it updates keeps every agent's
    edges inside h, since a precondition may read them, but it is built
    here without being memoised: once updated, nothing reads it again.
    When h is every world of the model (no edge enters an evaluation-only
    world), the submodel would copy the model, so the carrier is the
    model's own product by the point, with every agent: the very product
    the run's goal conjunct descends into.  An EmptyProduct raised there
    names the model, not a copy of it.  A carrier that every root of h
    shares is named for h, not for the root that built it, so an error it
    keeps is true at each root that raises it again."""
    try:
        if len(h) == len(model.worlds):
            return product(model, point)
        return _update(_restrict(model, root, h, agent, root in h), point, (agent,))
    except CheckerError as exc:
        return Stored(exc)
