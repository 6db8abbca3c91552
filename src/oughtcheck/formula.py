"""Formula syntax: AST nodes, derived forms, canonical printing, complexity,
and the trace rules.

The core language is

    true | false | atom | e{agent; trace}        (expectation atom)
    | !phi | phi & phi | K{agent} phi
    | <trace> phi                                 (after-some-run diamond)
    | O{agent}(trace | phi)                       (obligation)

Traces are tuples of (decision_point_id, event_name) pairs.  Disjunction,
implication and the box are derived forms; their constructors return core
nodes, so printing always yields the core syntax and parse(print(f)) is the
identity on ASTs.

Nodes are hash-consed: a node constructor returns the one live node with
its class and field values, so equal formulas are one object, compared and
hashed by identity (Formula states the rules).

Each rule that makes a trace meaningful is stated here once, and the
parser, the loaders, the evaluator and the rewriter call it:
check_adjacency, also through make_trace (a decision point never follows
itself), point_of / pre_of (every step names a declared event),
check_owner (the agent of an obligation owns the final decision point)
and pre_formula (pre(t), the precondition the run needs).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from typing import Tuple

from .errors import UnknownEvent, ValidationError

Step = Tuple[str, str]
Trace = Tuple[Step, ...]


def _is_normal(steps) -> bool:
    """steps is already what make_trace returns: a tuple of (str, str) pairs."""
    if steps.__class__ is not tuple:
        return False
    for step in steps:
        if (
            step.__class__ is not tuple
            or len(step) != 2
            or step[0].__class__ is not str
            or step[1].__class__ is not str
        ):
            return False
    return True


def make_trace(steps) -> Trace:
    """Normalize and validate a trace: one choice per decision point, in order.
    A trace already normal is kept as it is; every trace is validated."""
    trace = steps if _is_normal(steps) else tuple([(str(d), str(e)) for d, e in steps])
    if not trace:
        raise ValidationError("a trace needs at least one step")
    return check_adjacency(trace)


def check_adjacency(trace: Trace) -> Trace:
    """The trace itself, once no decision point follows itself in it.  A point
    may recur when not adjacent; each occurrence is then resolved alone."""
    last = None
    for d, _ in trace:
        if d == last:
            raise ValidationError(f"trace repeats decision point {d!r} in consecutive steps")
        last = d
    return trace


class _Ref(weakref.ref):
    """The intern table's reference to a live node; key is its entry."""

    __slots__ = ("key",)


# The intern table: (class, *field values) -> the one live node with them.
# Children are nodes, and a node hashes and compares by identity, so no key
# hashes or compares recursively.  Each node constructor reads it inline.
_live: dict = {}
_lookup = _live.get


def _forget(ref, live=_live) -> None:
    """A node died: drop its entry, unless a new node took the key first."""
    if live.get(ref.key) is ref:
        del live[ref.key]


def _hit(key):
    """The live node under key, steps as given, or None.  A node whose steps
    are a trace is found before make_trace runs: its key holds the trace
    made once, and steps equal to it are that trace.  Steps that cannot be
    hashed (a list) find nothing and are made a trace first."""
    try:
        ref = _lookup(key)
    except TypeError:
        return None
    return None if ref is None else ref()


_new = object.__new__
_bind = object.__setattr__


class Formula:
    """A formula node.  Each node class's constructor returns the one live
    node of that class with those field values (hash-consing), so equal
    formulas are one object: == is identity, hash is object.__hash__, and a
    result keyed by a node (its entry in a model's outcome store) serves
    every formula that contains it.  A subclass of a node class interns
    under its own class.  A node leaves the table when it dies."""

    __slots__ = ("__weakref__",)

    def __str__(self) -> str:
        return to_text(self)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # a pickle rebuilds the node through its constructor, which returns
        # the live node with the same fields if there is one
        return type(self), tuple(getattr(self, fld.name) for fld in fields(self))


@dataclass(frozen=True, eq=False, init=False)
class Truth(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


@dataclass(frozen=True, eq=False, init=False)
class Falsity(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


@dataclass(frozen=True, eq=False, init=False)
class Atom(Formula):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name):
        key = (cls, name)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _bind(node, "name", name)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


@dataclass(frozen=True, eq=False, init=False)
class ExpAtom(Formula):
    """e{agent; trace}: running `trace` is expectation-best for `agent`."""

    __slots__ = ("agent", "steps")
    agent: str
    steps: Trace

    def __new__(cls, agent, steps):
        node = _hit((cls, agent, steps))
        if node is not None:
            return node
        steps = make_trace(steps)
        key = (cls, agent, steps)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _bind(node, "agent", agent)
        _bind(node, "steps", steps)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


@dataclass(frozen=True, eq=False, init=False)
class Not(Formula):
    __slots__ = ("sub",)
    sub: Formula

    def __new__(cls, sub):
        key = (cls, sub)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _bind(node, "sub", sub)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


@dataclass(frozen=True, eq=False, init=False)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left, right):
        key = (cls, left, right)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _bind(node, "left", left)
        _bind(node, "right", right)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


@dataclass(frozen=True, eq=False, init=False)
class Know(Formula):
    """K{agent} phi.  The evaluator keeps phi's outcomes at successor worlds
    in each model's outcome store, in phi's entry (semantics._decide)."""

    __slots__ = ("agent", "sub")
    agent: str
    sub: Formula

    def __new__(cls, agent, sub):
        key = (cls, agent, sub)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _bind(node, "agent", agent)
        _bind(node, "sub", sub)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


@dataclass(frozen=True, eq=False, init=False)
class Diamond(Formula):
    """<trace> phi: the trace survives here and phi holds afterwards."""

    __slots__ = ("steps", "sub")
    steps: Trace
    sub: Formula

    def __new__(cls, steps, sub):
        node = _hit((cls, steps, sub))
        if node is not None:
            return node
        steps = make_trace(steps)
        key = (cls, steps, sub)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _bind(node, "steps", steps)
        _bind(node, "sub", sub)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


@dataclass(frozen=True, eq=False, init=False)
class Ought(Formula):
    """O{agent}(trace | phi): running `trace` is obliged given goal phi."""

    __slots__ = ("agent", "steps", "body")
    agent: str
    steps: Trace
    body: Formula

    def __new__(cls, agent, steps, body):
        node = _hit((cls, agent, steps, body))
        if node is not None:
            return node
        steps = make_trace(steps)
        key = (cls, agent, steps, body)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _bind(node, "agent", agent)
        _bind(node, "steps", steps)
        _bind(node, "body", body)
        ref = _live[key] = _Ref(node, _forget)
        ref.key = key
        return node


_NODE_CLASSES = frozenset({Truth, Falsity, Atom, ExpAtom, Not, And, Know, Diamond, Ought})
# the node classes a world's valuation decides: a formula built only from
# them holds at every world with the same valuation or at none
_VALUATION_NODES = (Truth, Falsity, Atom, Not, And)


def node_class(f) -> type:
    """The node class f's class is or derives from: tables keyed by node
    class read a subclass as the class it extends.  TypeError for anything
    that is not a formula."""
    for cls in type(f).__mro__:
        if cls in _NODE_CLASSES:
            return cls
    raise TypeError(f"not a formula: {f!r}")


# --- derived forms -----------------------------------------------------------

TRUE = Truth()
FALSE = Falsity()


def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def Box(steps, sub: Formula) -> Formula:
    return Not(Diamond(steps, Not(sub)))


def big_and(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# --- printing ----------------------------------------------------------------

def trace_text(steps: Trace) -> str:
    return ";".join(f"{d}.{e}" for d, e in steps)


def to_text(f: Formula) -> str:
    """Canonical text: binary connectives fully parenthesized, prefixes bare."""
    if isinstance(f, Truth):
        return "true"
    if isinstance(f, Falsity):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, ExpAtom):
        return "e{" + f.agent + "; " + trace_text(f.steps) + "}"
    if isinstance(f, Not):
        return "!" + to_text(f.sub)
    if isinstance(f, And):
        return "(" + to_text(f.left) + " & " + to_text(f.right) + ")"
    if isinstance(f, Know):
        return "K{" + f.agent + "} " + to_text(f.sub)
    if isinstance(f, Diamond):
        return "<" + trace_text(f.steps) + "> " + to_text(f.sub)
    if isinstance(f, Ought):
        return "O{" + f.agent + "}(" + trace_text(f.steps) + " | " + to_text(f.body) + ")"
    raise TypeError(f"not a formula: {f!r}")


# --- the trace rules (check_adjacency above states adjacency) -----------------

def point_of(env, dp_id: str):
    """The decision point env maps dp_id to; UnknownEvent when there is none."""
    try:
        return env[dp_id]
    except KeyError:
        raise UnknownEvent(f"unknown decision point {dp_id!r}") from None


def pre_of(env, dp_id: str, ev: str) -> Formula:
    """The precondition of event ev of decision point dp_id in env."""
    try:
        return point_of(env, dp_id).pre[ev]
    except KeyError:
        raise UnknownEvent(f"decision point {dp_id!r} has no event {ev!r}") from None


def check_owner(env, agent: str, steps: Trace, what: str) -> None:
    """An obligation or expectation atom of `agent` about `steps` needs
    `agent` to own the final decision point; `what` names it in the error."""
    dp_id, ev = steps[-1]
    owner = point_of(env, dp_id).owner
    if owner != agent:
        raise ValidationError(
            f"{what} agent {agent!r} does not own {dp_id}.{ev} (owner {owner!r})"
        )


def pre_formula(steps: Trace, env) -> Formula:
    """pre(t): the precondition of a trace's final event, after the steps
    before it: the formula that makes the run available."""
    last = pre_of(env, *steps[-1])
    if len(steps) == 1:
        return last
    return Diamond(steps[:-1], last)


# --- structure ---------------------------------------------------------------

def subformulas(f: Formula):
    """Every node of f, f first, depth-first and left to right.  The walk
    keeps its own stack, so any nesting depth is fine."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, (Not, Know, Diamond)):
            stack.append(g.sub)
        elif isinstance(g, Ought):
            stack.append(g.body)


def distinct_nodes(f: Formula) -> int:
    """How many distinct nodes f has: a node shared by several branches
    counts once, so this is the size of f as a DAG, while subformulas walks
    it as a tree.  The walk keeps its own stack."""
    seen = {f}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            children = (g.left, g.right)
        elif isinstance(g, (Not, Know, Diamond)):
            children = (g.sub,)
        elif isinstance(g, Ought):
            children = (g.body,)
        else:
            continue
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(seen)


# The nesting limit.  Every walk but subformulas, depth and complexity
# recurses once or more per level, and a formula this deep leaves room on
# CPython's default stack for the deepest of them: the explained walk of
# translate's output, which nests up to five times deeper than its input.
MAX_DEPTH = 64


def depth(f: Formula, known=None) -> int:
    """How deep f nests: the operators on its longest branch, 0 for a leaf.
    The walk keeps its own stack, so any nesting depth is fine, and measures
    each distinct node once.  `known` maps id(node) to the depth of nodes
    measured before, which the caller keeps alive; it is filled in."""
    value = {} if known is None else known
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in value:
            stack.pop()
            continue
        kind = _KIND.get(g.__class__) or _KIND[node_class(g)]
        if kind == _AND:
            left, right = value.get(id(g.left)), value.get(id(g.right))
            if left is None or right is None:
                if right is None:
                    stack.append(g.right)
                if left is None:
                    stack.append(g.left)
                continue
            d = 1 + (left if left >= right else right)
        elif kind == _LEAF:
            d = 0
        else:
            sub = g.body if kind == _OUGHT else g.sub
            d = value.get(id(sub))
            if d is None:
                stack.append(sub)
                continue
            d += 1
        value[id(g)] = d
        stack.pop()
    return value[id(f)]


def refuse_past_limit(f: Formula) -> None:
    """ValidationError when f nests deeper than MAX_DEPTH.  An entry that
    meets a RecursionError calls it: past the limit the input is bad, and
    within it the entry raises the RecursionError again, as a bug."""
    d = depth(f)
    if d > MAX_DEPTH:
        raise ValidationError(
            f"formula nests {d} levels deep, past the nesting limit of {MAX_DEPTH}"
        ) from None


def complexity(f: Formula, env) -> int:
    """Size measure used to certify that obligation rewrites shrink formulas:
    1 for a leaf, 1 + c(phi) for !phi and K{i} phi, 1 + max of the two sides
    for a conjunction, (4 + c(pre(t))) * c(phi) for <t> phi and
    (5 + c(pre(t))) * c(phi) for O{i}(t | phi).  A trace weighs c(pre(t)),
    which folds left over its steps: c(pre(t ; s)) = (4 + c(pre(t))) * c(pre(s)).
    Any nesting depth is fine."""
    return _Measure(env).of(f)


# how _Measure reads each node class
_LEAF, _UNARY, _AND, _DIAMOND, _OUGHT = range(1, 6)
_KIND = {
    Truth: _LEAF, Falsity: _LEAF, Atom: _LEAF, ExpAtom: _LEAF,
    Not: _UNARY, Know: _UNARY, And: _AND, Diamond: _DIAMOND, Ought: _OUGHT,
}
# a leaf weighs 1 wherever it is met, so it is neither pushed nor stored
_LEAVES = frozenset(cls for cls, kind in _KIND.items() if kind == _LEAF)


class _Measure:
    """`complexity` in one env: `of(f)` is c(f), each node measured once.
    An inner node's value is remembered by id, and the node is kept alive
    so that no other node can take its id; a trace's weight c(pre(t)) is
    remembered per trace.  The walk is post-order on its own stack and
    pushes only children not yet measured."""

    __slots__ = ("env", "_value", "_kept", "_weight")

    def __init__(self, env):
        self.env = env
        self._value = {}  # id(node) -> c(node)
        self._kept = []  # every node in _value
        self._weight = {}  # trace -> c(pre(trace))

    def of(self, f: Formula) -> int:
        value = self._value
        c = value.get(id(f))
        if c is not None:
            return c
        env, kept, weight = self.env, self._kept, self._weight
        stack = [f]
        while stack:
            g = stack[-1]
            gid = id(g)
            if gid in value:  # pushed twice before it was measured
                stack.pop()
                continue
            kind = _KIND.get(g.__class__) or _KIND[node_class(g)]
            if kind == _AND:
                left, right = g.left, g.right
                lc = 1 if left.__class__ in _LEAVES else value.get(id(left))
                rc = 1 if right.__class__ in _LEAVES else value.get(id(right))
                if lc is None or rc is None:
                    if rc is None:
                        stack.append(right)
                    if lc is None:
                        stack.append(left)
                    continue
                c = 1 + (lc if lc >= rc else rc)
            elif kind == _UNARY:
                sub = g.sub
                c = 1 if sub.__class__ in _LEAVES else value.get(id(sub))
                if c is None:
                    stack.append(sub)
                    continue
                c += 1
            elif kind == _LEAF:
                c = 1
            else:
                # the trace is weighed before the body, so an unknown step
                # raises before anything under it is read; like pre_formula,
                # c(pre(t)) resolves the last step first
                w = weight.get(g.steps)
                if w is None:
                    pres = [pre_of(env, d, e) for d, e in reversed(g.steps)]
                    cs = [1 if p.__class__ in _LEAVES else value.get(id(p)) for p in pres]
                    if None in cs:  # the first step's precondition goes on top
                        stack.extend([p for p, pc in zip(pres, cs) if pc is None])
                        continue
                    w = cs[-1]
                    for pc in reversed(cs[:-1]):
                        w = (4 + w) * pc
                    weight[g.steps] = w
                body = g.sub if kind == _DIAMOND else g.body
                c = 1 if body.__class__ in _LEAVES else value.get(id(body))
                if c is None:
                    stack.append(body)
                    continue
                c *= (4 if kind == _DIAMOND else 5) + w
            value[gid] = c
            kept.append(g)
            stack.pop()
        return value[id(f)]


def contains_ought(f: Formula) -> bool:
    return any(isinstance(g, Ought) for g in subformulas(f))


def contains_diamond(f: Formula) -> bool:
    # an obligation counts: its trace is an update
    return any(isinstance(g, (Diamond, Ought)) for g in subformulas(f))
