"""Decision points (single-owner action models) and their composition.

A decision point bundles at least two mutually exclusive-feeling events,
each guarded by a precondition in the obligation-free fragment.  Event
relations default to the identity for every agent (an agent can always tell
which event happened); extra edges are accepted but flagged, since most of
the theory is exercised with identity relations only.

Composition pairs every event of the first point with every event of the
second.  Composed events are flattened traces, their preconditions are
after-run formulas over the first point, and relations are pairwise.  With
product worlds keyed by (base, trace), updating by a composition yields the
very same model as updating twice, which the tests assert as equality.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Tuple

from .errors import (
    CyclicPrecondition, OughtInPrecondition, UnknownAgent, UnknownEvent, ValidationError,
)
from .formula import (
    MAX_DEPTH, _VALUATION_NODES, Diamond, ExpAtom, Formula, Ought, Trace, depth, make_trace,
    pre_formula, subformulas,
)
from .kripke import ReadOnly


class _Action(ReadOnly):
    """What a decision point and a composition share.  Every action-like
    object exposes: event_keys, pre_formula, q_related, related, owner, and
    propositional, true when every precondition is built from atoms, true,
    false, ! and & only, so that the valuation of a world decides it."""

    def related(self, agent: str) -> Dict[Trace, frozenset]:
        """Event key -> the event keys `agent` cannot tell apart from it, by
        q_related, one object per distinct set; built once per agent, as
        every product by this action reads it."""
        table = self._related.get(agent)
        if table is None:
            keys = self.event_keys
            table = self._related[agent] = {}
            shared = {}
            for k1 in keys:
                ok = frozenset([k2 for k2 in keys if self.q_related(agent, k1, k2)])
                table[k1] = shared.setdefault(ok, ok)
        return table


class DecisionPoint(_Action):
    """A named decision point owned by one agent.

    events: ordered tuple of event names (at least two).
    pre: event name -> precondition Formula (obligation-free, and naming
    no step of this point: CyclicPrecondition otherwise).
    relations: agent -> set of (event, event) pairs; the identity is always
    included.  `extra_edges` records whether anything beyond it was given.
    `propositional` records whether every precondition is built from the
    node classes a valuation decides (formula._VALUATION_NODES) only.
    A relation for an agent outside `agents` (and the owner) raises
    UnknownAgent.
    Attributes cannot be rebound, and env, pre and relations are read-only
    mappings, as memoized products are keyed by points.
    """

    def __init__(self, dp_id, owner, events, pre, relations=None, agents=None, env=None):
        dp_id, owner = str(dp_id), str(owner)
        events: Tuple[str, ...] = tuple(str(e) for e in events)
        if len(events) < 2:
            raise ValidationError(f"decision point {dp_id!r} needs at least two events")
        if len(set(events)) != len(events):
            raise ValidationError(f"duplicate event names in {dp_id!r}")
        propositional = True
        for ev in events:
            if ev not in pre:
                raise ValidationError(f"event {ev!r} of {dp_id!r} has no precondition")
            where = f"precondition of {dp_id}.{ev}"
            nodes = 0
            for g in subformulas(pre[ev]):
                nodes += 1
                propositional = propositional and isinstance(g, _VALUATION_NODES)
                if isinstance(g, Ought):
                    raise OughtInPrecondition(f"{where} contains an obligation")
                if isinstance(g, (Diamond, ExpAtom)) and any(d == dp_id for d, _ in g.steps):
                    raise CyclicPrecondition(f"{where} names its own decision point")
            # no more nodes than the limit, no deeper than it
            if nodes > MAX_DEPTH and depth(pre[ev]) > MAX_DEPTH:
                raise ValidationError(f"{where} nests past the nesting limit of {MAX_DEPTH}")
        agents = tuple(agents) if agents is not None else (owner,)
        if owner not in agents:
            agents = agents + (owner,)
        for a in relations or {}:
            if a not in agents:
                raise UnknownAgent(f"relation of {dp_id!r} for undeclared agent {a!r}")
        identity = frozenset((e, e) for e in events)
        relations_map: Dict[str, frozenset] = {}
        extra_edges = False
        for a in agents:
            given = frozenset(tuple(p) for p in (relations or {}).get(a, ()))
            for e1, e2 in given:
                if e1 not in events or e2 not in events:
                    raise UnknownEvent(
                        f"relation of {dp_id!r} mentions unknown event {e1!r}/{e2!r}"
                    )
            if given - identity:
                extra_edges = True
            relations_map[a] = identity | given
        bind = object.__setattr__
        bind(self, "id", dp_id)
        bind(self, "owner", owner)
        # resolution environment for decision points mentioned inside the
        # preconditions (earlier declarations only).  It leaves out this
        # point, which no precondition of it can name: holding itself would
        # make every point a reference cycle.
        bind(self, "env", MappingProxyType(dict(env or {})))
        bind(self, "events", events)
        # one 1-step trace per event, bound once: every product build reads it
        bind(self, "event_keys", tuple(((dp_id, ev),) for ev in events))
        bind(self, "pre", MappingProxyType({ev: pre[ev] for ev in events}))
        bind(self, "agents", agents)
        bind(self, "relations", MappingProxyType(relations_map))
        bind(self, "extra_edges", extra_edges)
        bind(self, "propositional", propositional)
        bind(self, "_related", {})  # agent -> related(agent)

    def pre_formula(self, key: Trace) -> Formula:
        ((dp, ev),) = key
        if dp != self.id or ev not in self.pre:
            raise UnknownEvent(f"{dp}.{ev} is not an event of {self.id!r}")
        return self.pre[ev]

    def q_related(self, agent: str, k1: Trace, k2: Trace) -> bool:
        rel = self.relations.get(agent)
        if rel is None:
            # agents the point does not mention can only tell an event from itself
            return k1 == k2
        return (k1[0][1], k2[0][1]) in rel

    def __repr__(self):
        return f"DecisionPoint({self.id!r}, owner={self.owner!r}, events={self.events})"


class ComposedAction(_Action):
    """The composition of two action-like objects (left applied first).
    Attributes cannot be rebound and env is a read-only mapping, as memoized
    products are keyed by compositions too."""

    def __init__(self, first, second):
        make_trace(first.event_keys[0] + second.event_keys[0])  # no point after itself
        bind = object.__setattr__
        bind(self, "first", first)
        bind(self, "second", second)
        bind(self, "id", f"{first.id};{second.id}")
        bind(self, "owner", second.owner)
        # its preconditions name the points it composes, so env holds them
        env = {**first.env, **second.env}
        for part in (first, second):
            if isinstance(part, DecisionPoint):
                env[part.id] = part
        bind(self, "env", MappingProxyType(env))
        bind(self, "agents", tuple(dict.fromkeys(tuple(first.agents) + tuple(second.agents))))
        bind(self, "event_keys", tuple(
            ka + kb for ka in first.event_keys for kb in second.event_keys
        ))
        bind(self, "extra_edges", first.extra_edges or second.extra_edges)
        # a composed precondition is an after-run formula, never propositional
        bind(self, "propositional", False)
        bind(self, "_related", {})  # agent -> related(agent)

    def pre_formula(self, key: Trace) -> Formula:
        return pre_formula(key, self.env)

    def q_related(self, agent: str, k1: Trace, k2: Trace) -> bool:
        split = len(k1) - len(self.second.event_keys[0])
        return self.first.q_related(agent, k1[:split], k2[:split]) and self.second.q_related(
            agent, k1[split:], k2[split:]
        )

    def __repr__(self):
        return f"ComposedAction({self.id!r})"


def compose_all(actions) -> object:
    actions = list(actions)
    if not actions:
        raise ValidationError("nothing to compose")
    out = actions[0]
    for nxt in actions[1:]:
        out = ComposedAction(out, nxt)
    return out


def validate_decision_point(point: DecisionPoint) -> list:
    """Report of advisory findings for a decision point."""
    notes = []
    if point.extra_edges:
        notes.append(
            f"decision point {point.id!r} declares event relations beyond the "
            f"identity; downstream guarantees are only exercised without them"
        )
    return notes


def env_of(actions) -> Dict[str, DecisionPoint]:
    """Map decision-point ids to points, rejecting duplicates."""
    env: Dict[str, DecisionPoint] = {}
    for p in actions:
        if p.id in env:
            raise ValidationError(f"duplicate decision point id {p.id!r}")
        env[p.id] = p
    return env
