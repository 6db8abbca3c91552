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
from typing import Optional

from .errors import IsolatedRoot
from .kripke import GradedKripkeModel, world_id


def _reach(model: GradedKripkeModel, root, agent: Optional[str]):
    """Worlds reachable from root by ≥1 step along `agent`'s relation
    (or along the union of all relations when agent is None)."""
    agents = (agent,) if agent is not None else model.agents
    seen = set()
    frontier = deque()
    for a in agents:
        for u in model.successors(a, root):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    while frontier:
        w = frontier.popleft()
        for a in agents:
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
    for a in model.agents:
        rel = {}
        for w in worlds:
            if w == root and not root_in:
                rel[w] = model.successors(a, root) & domain
            else:
                rel[w] = model.successors(a, w) & domain
        relations[a] = rel

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
    )


def generated_submodel(model: GradedKripkeModel, root) -> GradedKripkeModel:
    """Submodel generated from root along all agents' relations."""
    model.require_world(root)
    key = ("sub", root, None)
    hit = model._cache.get(key)
    if hit is None:
        domain = _reach(model, root, None)
        if not domain:
            raise IsolatedRoot(f"nothing is reachable from {world_id(root)}")
        hit = _restrict(model, root, domain, None)
        model._cache[key] = hit
    return hit


def horizon(model: GradedKripkeModel, root, agent: str) -> frozenset:
    """What `agent` reaches from root in one or more steps (memoized on the
    model).  An empty horizon is an isolated root."""
    model.require_world(root)
    key = ("horizon", root, agent)
    hit = model._cache.get(key)
    if hit is None:
        hit = frozenset(_reach(model, root, agent))
        if not hit:
            raise IsolatedRoot(
                f"agent {agent!r} reaches nothing from {world_id(root)}"
            )
        model._cache[key] = hit
    return hit


def agent_submodel(model: GradedKripkeModel, root, agent: str) -> GradedKripkeModel:
    """Submodel generated from root along one agent's relation."""
    key = ("sub", root, agent)
    hit = model._cache.get(key)
    if hit is None:
        hit = _restrict(model, root, horizon(model, root, agent), agent)
        model._cache[key] = hit
    return hit
