"""Graded Kripke models: worlds, agent relations, valuation, desirability.

Worlds are hashable keys.  Base models use strings; models produced by
updates use (base_id, trace) pairs where the trace is a tuple of
(decision_point, event) steps.  trace_of states the rule: a key is an
updated world's exactly when it is a pair whose second item is a non-empty
tuple; any other key, (b, ()) included, is a base world's.  A model may
carry a designated root (for submodels) and a set of evaluation-only
worlds: retained roots that can be evaluated at but do not belong to the
model's domain proper (they are excluded from expectation sums, rival sets,
and global quantification).  An evaluation-only world keeps its outgoing
edges, and no edge enters one.

Desirability values are plain machine ints, bounded at load so sums can
never silently overflow anything downstream.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .errors import UnknownAgent, UnknownWorld, ValidationError
from .formula import trace_text

FRAME_CLASSES = ("K", "KD45", "S5")
MAX_DESIRABILITY = 10**12

EMPTY_TRACE: Tuple = ()


def trace_of(world) -> Tuple:
    """The update trace a world key carries: its second item when the key is
    a pair whose second item is a non-empty tuple, else () for a base world."""
    if isinstance(world, tuple) and len(world) == 2 and isinstance(world[1], tuple) and world[1]:
        return world[1]
    return EMPTY_TRACE


def base_of(world):
    """The base world a key was updated from; a base world's key itself."""
    return world[0] if trace_of(world) else world


def extend_world(world, steps: Iterable[Tuple[str, str]]):
    """Key of the world reached from `world` by running the given steps; the
    walker calls it at every step, so trace_of's test is inlined."""
    if isinstance(world, tuple) and len(world) == 2 and isinstance(world[1], tuple) and world[1]:
        return (world[0], world[1] + tuple(steps))
    return (world, tuple(steps))


def world_id(world) -> str:
    """Render a world key the way documents and reports show it."""
    trace = trace_of(world)
    if not trace:
        return str(world)
    return f"{world[0]}@{trace_text(trace)}"


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
    read-only mappings, so that what memo stores stays sound.  Each mapping
    keyed by world lists the worlds in world order, so its values can be
    read in step with `worlds`.

    The constructor normalises what it is given: every valuation and
    successor set becomes a frozenset shared per distinct set, and every
    desirability an int.  `_derived=True` skips that step and binds the
    mappings as given; only product and submodel pass it.  They derive
    every model from one already built: their mappings are keyed by exactly
    `worlds`, in world order, hold the parent's valuation objects and ints,
    hold successor sets they have shared one object per distinct set, and
    are not touched again once handed over.  So normalising them again
    would change nothing.  The model check (_basic_check) runs on every
    model.
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
        *,
        _derived: bool = False,
    ):
        agents, worlds = tuple(agents), tuple(worlds)
        if not _derived:
            relations, valuation, desirability = _normalised(
                agents, worlds, relations, valuation, desirability
            )
        bind = object.__setattr__
        bind(self, "agents", agents)
        bind(self, "atoms", tuple(atoms))
        bind(self, "worlds", worlds)
        bind(self, "valuation", MappingProxyType(valuation))
        bind(self, "desirability", MappingProxyType(desirability))
        bind(self, "relations", MappingProxyType({
            a: MappingProxyType(relations[a]) for a in agents
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

    def world_order(self) -> Dict:
        """{world: its position in world order}, built once."""
        return self.memo(("world_index",), _index_of, self.worlds)

    def world_index(self, world) -> int:
        return self.world_order()[world]

    def pairs(self, agent: str):
        """Relation pairs in deterministic (world order, then world order) order."""
        for w in self.worlds:
            for u in self.ordered_successors(agent, w):
                yield (w, u)


def _normalised(agents, worlds, relations, valuation, desirability):
    """(relations, valuation, desirability) restricted to `worlds`, with
    frozen sets and int values.  Each distinct set is one object: an S5
    cell's worlds share their successor set, which also lets frame_violations
    skip them."""
    shared: Dict = {}

    def one(items) -> FrozenSet:
        s = frozenset(items)
        return shared.setdefault(s, s)

    valuation = {w: one(valuation[w]) for w in worlds}
    desirability = {w: int(desirability[w]) for w in worlds}
    relations = {a: {w: one(relations.get(a, {}).get(w, ())) for w in worlds} for a in agents}
    return relations, valuation, desirability


def _index_of(worlds) -> Dict:
    return {w: i for i, w in enumerate(worlds)}


def _in_world_order(model: GradedKripkeModel, worlds) -> Tuple:
    return tuple(sorted(worlds, key=model.world_order().__getitem__))


def _basic_check(m: GradedKripkeModel) -> None:
    if not m.worlds:
        raise ValidationError("a model needs at least one world")
    if len(m._world_set) != len(m.worlds):
        raise ValidationError("duplicate world ids")
    if not m.agents:
        raise ValidationError("a model needs at least one agent")
    if len(set(m.agents)) != len(m.agents):
        raise ValidationError("duplicate agent names")
    if m.frame not in FRAME_CLASSES:
        raise ValidationError(f"unknown frame class {m.frame!r}")
    # each distinct valuation is checked once, and every value in one pass;
    # only a model that fails is read world by world, in world order, to
    # name the first world at fault
    atoms = frozenset(m.atoms)
    if not all(val <= atoms for val in set(m.valuation.values())) or (
        max(map(abs, m.desirability.values())) > MAX_DESIRABILITY
    ):
        for w in m.worlds:
            extra = m.valuation[w] - atoms
            if extra:
                raise ValidationError(
                    f"world {world_id(w)} uses undeclared atoms {sorted(extra)}"
                )
            value = m.desirability[w]
            if abs(value) > MAX_DESIRABILITY:
                raise ValidationError(
                    f"desirability {value} at {world_id(w)} exceeds the supported range"
                )
    if not m.eval_only <= m._world_set:
        raise ValidationError("an evaluation-only id names no world of the model")
    checked = set()
    for a in m.agents:
        for w, succ in m.relations[a].items():
            if succ in checked:
                continue
            checked.add(succ)
            stray = succ - m._world_set
            if stray:
                raise ValidationError(
                    f"relation for {a!r} leaves the domain at {world_id(w)}"
                )
            if m.eval_only and not m.eval_only.isdisjoint(succ):
                raise ValidationError(
                    f"relation for {a!r} enters an evaluation-only world at {world_id(w)}"
                )
    if m.root is not None and m.root not in m._world_set:
        raise ValidationError("designated root is not a world of the model")


def frame_violations(m: GradedKripkeModel) -> list:
    """Check the declared frame class; returns human-readable violations.

    Evaluation-only roots are exempt: they keep only outgoing edges, and
    no edge enters one.
    """
    problems = []
    core = m.domain_worlds()
    for a in m.agents:
        succ = m.relations[a]
        if m.frame in ("KD45", "S5"):
            for w in core:
                if not succ[w]:
                    problems.append(f"{a!r} is not serial at {world_id(w)}")
            # a set every member of which has that same set object is closed:
            # no world with it breaks transitivity or euclideanness
            closed = {}
            unclosed = []
            for w in core:
                targets = succ[w]
                shut = closed.get(targets)
                if shut is None:
                    shut = closed[targets] = all(succ[u] is targets for u in targets)
                if not shut:
                    unclosed.append(w)
            for w in unclosed:
                targets = succ[w]
                for u in targets:
                    if succ[u] is not targets and not succ[u] <= targets:
                        problems.append(
                            f"{a!r} is not transitive at {world_id(w)} -> {world_id(u)}"
                        )
                        break
            for w in unclosed:
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
