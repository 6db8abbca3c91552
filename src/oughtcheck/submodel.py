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


def _representatives(model: GradedKripkeModel, agent: str) -> dict:
    """Map every world to one world of its strongly connected component
    under `agent`'s relation: Tarjan's algorithm (1972), with an explicit
    stack so that long chains cannot overflow the interpreter's."""
    rel = model.relations[agent]
    index = {}
    low = {}
    rep = {}
    pending = []
    for start in model.worlds:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        pending.append(start)
        path = [(start, iter(rel[start]))]
        while path:
            w, succ = path[-1]
            for u in succ:
                if u not in index:
                    index[u] = low[u] = len(index)
                    pending.append(u)
                    path.append((u, iter(rel[u])))
                    break
                if u not in rep and index[u] < low[w]:
                    low[w] = index[u]  # u is still on the pending stack
            else:
                path.pop()
                if path and low[w] < low[path[-1][0]]:
                    low[path[-1][0]] = low[w]
                if low[w] == index[w]:
                    while True:
                        u = pending.pop()
                        rep[u] = w
                        if u == w:
                            break
    return rep


def horizon(model: GradedKripkeModel, root, agent: str) -> frozenset:
    """What `agent` reaches from root in one or more steps.  An empty
    horizon is an isolated root.

    Every world of a cycle reaches the same worlds, itself included, so the
    horizon is memoized on the model per strongly connected component: the
    worlds of an S5 cell or a KD45 cluster share one frozenset.  A world on
    no cycle is its own component."""
    model.require_world(root)
    memo = model._cache.get(("horizons", agent))
    if memo is None:
        model.successors(agent, root)  # an unknown agent raises here
        memo = model._cache[("horizons", agent)] = (_representatives(model, agent), {})
    reps, by_rep = memo
    rep = reps[root]
    hit = by_rep.get(rep)
    if hit is None:
        hit = frozenset(_reach(model, rep, agent))
        if not hit:
            raise IsolatedRoot(
                f"agent {agent!r} reaches nothing from {world_id(root)}"
            )
        by_rep[rep] = hit
    return hit


def agent_submodel(model: GradedKripkeModel, root, agent: str) -> GradedKripkeModel:
    """Submodel generated from root along one agent's relation."""
    key = ("sub", root, agent)
    hit = model._cache.get(key)
    if hit is None:
        hit = _restrict(model, root, horizon(model, root, agent), agent)
        model._cache[key] = hit
    return hit
