"""Decision points (single-owner action models).

A decision point bundles at least two mutually exclusive-feeling events,
each guarded by a precondition in the obligation-free fragment.  Event
relations default to the identity for every agent (an agent can always tell
which event happened); extra edges are accepted but flagged, since most of
the theory is exercised with identity relations only.

A run of several points is an update by each point in turn
(product.apply_sequence); the tests check that this equals the update by
their composition, enumerated directly.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Tuple

from .errors import (
    CyclicPrecondition, OughtInPrecondition, UnknownAgent, UnknownEvent, ValidationError,
)
from .formula import (
    MAX_DEPTH, _VALUATION_NODES, Diamond, ExpAtom, Formula, Ought, Trace, depth, subformulas,
)
from .kripke import ReadOnly


class DecisionPoint(ReadOnly):
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

    def related(self, agent: str) -> Dict[Trace, frozenset]:
        """Event key -> the event keys `agent` cannot tell apart from it, by
        q_related, one object per distinct set; built once per agent, as
        every product by this point reads it."""
        table = self._related.get(agent)
        if table is None:
            keys = self.event_keys
            table = self._related[agent] = {}
            shared = {}
            for k1 in keys:
                ok = frozenset([k2 for k2 in keys if self.q_related(agent, k1, k2)])
                table[k1] = shared.setdefault(ok, ok)
        return table

    def __repr__(self):
        return f"DecisionPoint({self.id!r}, owner={self.owner!r}, events={self.events})"


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
