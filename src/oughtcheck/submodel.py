"""Reachability submodels with retained evaluation roots.

The domain is everything strictly forward-reachable from the root (paths of
length one or more); the root belongs to the domain exactly when it can
reach itself.  A root outside its domain is not dropped: it stays as a
distinguished evaluation point that keeps its atoms and desirability, keeps
its outgoing edges into the domain (for every agent), and receives none.
Such a point supports truth evaluation and serves as the divisor anchor for
expected values, but it contributes to no sums and is never anyone's rival.

agent_submodel reaches along one agent's relation only, yet keeps every
agent's edges inside the carved-out domain — other agents' knowledge inside
someone's epistemic horizon is still meaningful.  That domain, the agent's
horizon of the root, is also what expectation carriers are shared by and
what component values sum over, so `horizon` states the isolated-root rule
for all three.
"""

from __future__ import annotations

from collections import deque

from .errors import IsolatedRoot
from .kripke import GradedKripkeModel, world_id


def _reach(model: GradedKripkeModel, root):
    """Worlds reachable from root by ≥1 step along the union of all agents'
    relations."""
    seen = set()
    frontier = deque([root])
    while frontier:
        w = frontier.popleft()
        for a in model.agents:
            for u in model.successors(a, w):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
    return seen


def _restrict(model: GradedKripkeModel, root, domain, agent_filter):
    root_in = root in domain
    worlds = [w for w in model.worlds if w in domain]
    if not root_in:
        worlds.append(root)
    eval_only = frozenset() if root_in else frozenset([root])

    relations = {}
    shared = {}  # one object per distinct kept set
    for a in model.agents:
        rel = model.relations[a]
        cut = {}  # one intersection per distinct successor set
        kept = relations[a] = {}
        for w in worlds:
            s = rel[w]
            inside = cut.get(s)
            if inside is None:
                inside = s if s <= domain else s & domain
                inside = cut[s] = shared.setdefault(inside, inside)
            kept[w] = inside

    return GradedKripkeModel(
        agents=model.agents,
        atoms=model.atoms,
        worlds=worlds,
        relations=relations,
        valuation={w: model.valuation[w] for w in worlds},
        desirability={w: model.desirability[w] for w in worlds},
        frame="K",
        root=root,
        agent_filter=agent_filter,
        eval_only=eval_only,
        name=f"{model.name or 'model'}|{agent_filter or '*'}@{world_id(root)}",
        _derived=True,
    )


def generated_submodel(model: GradedKripkeModel, root) -> GradedKripkeModel:
    """Submodel generated from root along all agents' relations.  No verdict
    reads it; it stays public because bench/spans.py traces it by name."""
    model.require_world(root)
    return model.memo(("sub", root, None), _generated, model, root)


def _generated(model: GradedKripkeModel, root) -> GradedKripkeModel:
    domain = _reach(model, root)
    if not domain:
        raise IsolatedRoot(f"nothing is reachable from {world_id(root)}")
    return _restrict(model, root, domain, None)


def horizon(model: GradedKripkeModel, root, agent: str) -> frozenset:
    """What `agent` reaches from root in one or more steps: the closure of
    root's successor set under the relation.  An empty successor set is an
    isolated root.

    The closure depends on the successor set only, so it is memoized per
    set: the worlds of an S5 cell or a KD45 cluster, which share one set
    object, share one horizon.  Each distinct set is expanded once, so a
    cell costs a pass over its worlds, not over its edges.  A horizon is
    closed, so it is its own closure: it is filed under itself too, and
    equal horizons of one agent are one object."""
    model.require_world(root)
    succ = model.successors(agent, root)
    if not succ:
        raise IsolatedRoot(f"agent {agent!r} reaches nothing from {world_id(root)}")
    return model.memo(("horizon", agent, succ), _closure, model, succ, agent)


def _closure(model: GradedKripkeModel, succ: frozenset, agent: str) -> frozenset:
    rel = model.relations[agent]
    reach = set(succ)
    expanded = {succ}
    frontier = list(succ)
    while frontier:
        s = rel[frontier.pop()]
        if s not in expanded:
            expanded.add(s)
            new = s - reach
            reach |= new
            frontier.extend(new)
    if len(reach) == len(succ):
        return succ  # closed already: an S5 cell, a KD45 cluster
    closed = frozenset(reach)
    return model.memo(("horizon", agent, closed), _itself, closed)


def _itself(x):
    return x


def agent_submodel(model: GradedKripkeModel, root, agent: str) -> GradedKripkeModel:
    """Submodel generated from root along one agent's relation."""
    return model.memo(
        ("sub", root, agent), _restrict, model, root, horizon(model, root, agent), agent
    )
