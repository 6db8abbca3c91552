"""Graded Kripke models: worlds, agent relations, valuation, desirability.

Worlds are hashable keys.  Base models use strings; models produced by
updates use (base_id, trace) pairs where the trace is a tuple of
(decision_point, event) steps.  A model may carry a designated root (for
submodels) and a set of evaluation-only worlds: retained roots that can be
evaluated at but do not belong to the model's domain proper (they are
excluded from expectation sums, rival sets, and global quantification).

Desirability values are plain machine ints, bounded at load so sums can
never silently overflow anything downstream.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .errors import UnknownAgent, UnknownWorld, ValidationError

FRAME_CLASSES = ("K", "KD45", "S5")
MAX_DESIRABILITY = 10**12

EMPTY_TRACE: Tuple = ()


def trace_of(world) -> Tuple:
    """The update trace a world key carries; () for base worlds."""
    if isinstance(world, tuple) and len(world) == 2 and isinstance(world[1], tuple):
        return world[1]
    return EMPTY_TRACE


def base_of(world):
    if isinstance(world, tuple) and len(world) == 2 and isinstance(world[1], tuple):
        return world[0]
    return world


def extend_world(world, steps: Iterable[Tuple[str, str]]):
    """Key of the world reached from `world` by running the given steps."""
    return (base_of(world), trace_of(world) + tuple(steps))


def world_id(world) -> str:
    """Render a world key the way documents and reports show it."""
    trace = trace_of(world)
    if not trace:
        return str(world)
    return f"{base_of(world)}@" + ";".join(f"{d}.{e}" for d, e in trace)


class ReadOnly:
    """Attributes are bound once, by __init__ through object.__setattr__;
    rebinding or deleting one raises AttributeError, because results memoized
    on the object derive from them.  The guard never reads __dict__, which
    would slow every attribute load."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class GradedKripkeModel(ReadOnly):
    """Immutable graded Kripke model.

    relations: agent -> world -> frozenset of successor worlds, one object
    per distinct set (valuations likewise).  Attributes cannot be rebound,
    and relations (outer and per agent), valuation and desirability are
    read-only mappings, so that what memo stores stays sound.
    """

    def __init__(
        self,
        agents,
        atoms,
        worlds,
        relations,
        valuation,
        desirability,
        frame: str = "K",
        root=None,
        agent_filter: Optional[str] = None,
        eval_only: FrozenSet = frozenset(),
        name: Optional[str] = None,
    ):
        worlds = tuple(worlds)
        # one frozenset object per distinct set: an S5 cell's worlds share
        # their successor set, which also lets frame_violations skip them
        shared: Dict = {}

        def one(items) -> FrozenSet:
            s = frozenset(items)
            return shared.setdefault(s, s)

        bind = object.__setattr__
        bind(self, "agents", tuple(agents))
        bind(self, "atoms", tuple(atoms))
        bind(self, "worlds", worlds)
        bind(self, "valuation", MappingProxyType({w: one(valuation[w]) for w in worlds}))
        bind(self, "desirability", MappingProxyType({w: int(desirability[w]) for w in worlds}))
        bind(self, "relations", MappingProxyType({
            a: MappingProxyType({w: one(relations.get(a, {}).get(w, ())) for w in worlds})
            for a in self.agents
        }))
        bind(self, "frame", frame)
        bind(self, "root", root)
        bind(self, "agent_filter", agent_filter)
        bind(self, "eval_only", frozenset(eval_only))
        bind(self, "name", name)
        bind(self, "_world_set", frozenset(worlds))
        bind(self, "_cache", {})
        _basic_check(self)

    def memo(self, key, build, *args):
        """The result stored under key, or on first use build(*args), stored.
        Every result derived from the model is memoized here and lives as
        long as the model; keys are tuples that name the kind of result
        first.  An error raised by build propagates and stores nothing."""
        hit = self._cache.get(key)
        if hit is None and key not in self._cache:  # a stored None is a hit
            hit = self._cache[key] = build(*args)
        return hit

    # -- access ---------------------------------------------------------------

    def has_world(self, w) -> bool:
        return w in self._world_set

    def require_world(self, w):
        if w not in self._world_set:
            raise UnknownWorld(f"no world {world_id(w)!r} in this model")
        return w

    def successors(self, agent: str, world) -> FrozenSet:
        try:
            per_world = self.relations[agent]
        except KeyError:
            raise UnknownAgent(f"no agent {agent!r} in this model") from None
        try:
            return per_world[world]
        except KeyError:
            raise UnknownWorld(f"no world {world_id(world)!r} in this model") from None

    def ordered_successors(self, agent: str, world) -> Tuple:
        """successors() in world order, sorted once per distinct set."""
        succ = self.successors(agent, world)
        return self.memo(("ordered", succ), _in_world_order, self, succ)

    def atoms_at(self, world) -> FrozenSet[str]:
        return self.valuation[world]

    def value_of(self, world) -> int:
        return self.desirability[world]

    def domain_worlds(self):
        """Worlds that belong to the model proper (evaluation roots excluded)."""
        if not self.eval_only:
            return self.worlds
        return tuple(w for w in self.worlds if w not in self.eval_only)

    def world_index(self, world) -> int:
        return self.memo(("world_index",), _index_of, self.worlds)[world]

    def pairs(self, agent: str):
        """Relation pairs in deterministic (world order, then world order) order."""
        for w in self.worlds:
            for u in self.ordered_successors(agent, w):
                yield (w, u)


def _index_of(worlds) -> Dict:
    return {w: i for i, w in enumerate(worlds)}


def _in_world_order(model: GradedKripkeModel, worlds) -> Tuple:
    return tuple(sorted(worlds, key=model.world_index))


def _basic_check(m: GradedKripkeModel) -> None:
    if not m.worlds:
        raise ValidationError("a model needs at least one world")
    if len(set(m.worlds)) != len(m.worlds):
        raise ValidationError("duplicate world ids")
    if not m.agents:
        raise ValidationError("a model needs at least one agent")
    if len(set(m.agents)) != len(m.agents):
        raise ValidationError("duplicate agent names")
    if m.frame not in FRAME_CLASSES:
        raise ValidationError(f"unknown frame class {m.frame!r}")
    for w in m.worlds:
        extra = m.valuation[w] - set(m.atoms)
        if extra:
            raise ValidationError(
                f"world {world_id(w)} uses undeclared atoms {sorted(extra)}"
            )
        value = m.desirability[w]
        if abs(value) > MAX_DESIRABILITY:
            raise ValidationError(
                f"desirability {value} at {world_id(w)} exceeds the supported range"
            )
    for a in m.agents:
        for w, succ in m.relations[a].items():
            stray = succ - m._world_set
            if stray:
                raise ValidationError(
                    f"relation for {a!r} leaves the domain at {world_id(w)}"
                )
    if m.root is not None and m.root not in m._world_set:
        raise ValidationError("designated root is not a world of the model")


def frame_violations(m: GradedKripkeModel) -> list:
    """Check the declared frame class; returns human-readable violations.

    Evaluation-only roots are exempt (they keep only outgoing edges by
    design), as are their edges.
    """
    problems = []
    core = [w for w in m.worlds if w not in m.eval_only]
    core_set = frozenset(core)
    for a in m.agents:
        rel = m.relations[a]
        succ = rel if not m.eval_only else {w: rel[w] & core_set for w in core}
        if m.frame in ("KD45", "S5"):
            for w in core:
                if not succ[w]:
                    problems.append(f"{a!r} is not serial at {world_id(w)}")
            for w in core:
                targets = succ[w]
                for u in targets:
                    if succ[u] is not targets and not succ[u] <= targets:
                        problems.append(
                            f"{a!r} is not transitive at {world_id(w)} -> {world_id(u)}"
                        )
                        break
            for w in core:
                targets = succ[w]
                for u in targets:
                    if succ[u] is not targets and not targets <= succ[u]:
                        problems.append(
                            f"{a!r} is not euclidean at {world_id(w)} -> {world_id(u)}"
                        )
                        break
        if m.frame == "S5":
            for w in core:
                if w not in succ[w]:
                    problems.append(f"{a!r} is not reflexive at {world_id(w)}")
    return problems
